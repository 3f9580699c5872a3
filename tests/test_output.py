import json
import math
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterp import (
    Circuit,
    HadamardLayer,
    PhaseLadder,
    Register,
    RegisterLayout,
    StateVector,
    encode_value_real,
    zero_state,
)
from qinterp.patterns import Sweep, prepare_lambda, quantum_interpolate, quantum_interpolate_sweep
from qinterp.stateio import ROUND_OFF, format_value, state_to_json, sweep_to_csv, table_to_csv
from qinterp.svgchart import hue_of, render_state_svg

HSL_RE = re.compile(r'class="bar"[^>]*fill="hsl\(([0-9.]+), 85%, 50%\)"')


def circular_hue_distance(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class TestStateJson:
    def test_schema(self):
        layout = RegisterLayout(2, 3)
        data = json.loads(state_to_json(zero_state(5), layout))
        assert list(data) == ["num_qubits", "key_width", "value_width", "amplitudes"]
        assert data["num_qubits"] == 5
        assert data["key_width"] == 2
        assert data["value_width"] == 3
        assert len(data["amplitudes"]) == 32
        assert data["amplitudes"][0] == [1.0, 0.0]

    def test_roundtrip(self):
        # JSON prints each float in its shortest repr, which reads back exactly
        rng = np.random.default_rng(0)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        data = json.loads(state_to_json(StateVector(4, amps)))
        assert list(data) == ["num_qubits", "amplitudes"]
        back = np.array([complex(re, im) for re, im in data["amplitudes"]])
        assert np.array_equal(back, amps)


def csv_from_rows(header, rows):
    """The CSV built one row at a time: the reference for the column-wise tables.

    Each entry prints by ``format_value``, None as an empty field, and an
    entry within ``ROUND_OFF`` of its column's largest finite magnitude as 0.
    """
    columns = []
    for column in zip(*rows):
        floor = ROUND_OFF * max((abs(v) for v in column if v is not None and math.isfinite(v)), default=0.0)
        columns.append(["" if v is None else format_value(0.0 if abs(v) <= floor else v) for v in column])
    return "\n".join([",".join(header), *(",".join(line) for line in zip(*columns))]) + "\n"


def sweep_of(t, quantum, classical, exact=None):
    return Sweep(np.asarray(t), np.asarray(quantum), np.asarray(classical), exact, np.zeros(len(t)))


@st.composite
def csv_columns(draw):
    """Columns of one length, the first always present, with entries at and around the round-off floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 40))
    columns = []
    for i in range(draw(st.integers(1, 5))):
        if i > 0 and draw(st.booleans()):
            columns.append(None)
            continue
        scale = 10.0 ** rng.uniform(-300, 300)
        values = rng.normal(size=rows) * scale
        near_floor = rng.random(rows) < 0.3
        values[near_floor] = scale * ROUND_OFF * rng.uniform(-3, 3, near_floor.sum())
        specials = rng.random(rows) < 0.1
        values[specials] = rng.choice([0.0, -0.0, math.inf, -math.inf, math.nan], specials.sum())
        columns.append(values)
    return columns


class TestCsv:
    def test_reparse_precision(self):
        rng = np.random.default_rng(1)
        columns = rng.normal(size=(4, 20))
        text = sweep_to_csv(sweep_of(*columns))
        lines = text.strip().splitlines()
        assert lines[0] == "t,quantum,classical,exact"
        for row, line in zip(columns.T, lines[1:]):
            parsed = [float(tok) for tok in line.split(",")]
            for original, reparsed in zip(row, parsed):
                assert abs(original - reparsed) < 1e-8

    def test_missing_exact_column(self):
        text = sweep_to_csv(sweep_of([0.5], [1.0], [1.0]))
        assert text.strip().splitlines()[1].endswith(",")

    def test_format_value_significant_digits(self):
        assert format_value(0.1234567894) == "0.123456789"

    def test_scalar_value_keeps_round_off(self):
        # a printed error must stay visible however small it is
        assert format_value(-6.938893903907228e-18) == "-6.9388939e-18"

    def test_round_off_prints_as_zero_per_column(self):
        columns = [
            [1.0, -6.9e-18, 3e-15],
            [2e-3, 3e-19, -1e-5],
            [0.0, -0.0, 0.0],
            [math.nan, 1e-300, math.inf],
        ]
        lines = table_to_csv(["a", "b", "zeros", "odd"], columns).splitlines()
        # 8 eps of column a is 1.8e-15 and of column b 3.6e-18; inf and nan set no
        # scale, so 1e-300 is the largest magnitude of its column and stays
        assert lines[1:] == ["1,0.002,0,nan", "0,0,0,1e-300", "3e-15,-1e-05,0,inf"]

    @settings(max_examples=60)
    @given(columns=csv_columns())
    def test_columns_print_as_the_rows_would(self, columns):
        header = [f"c{i}" for i in range(len(columns))]
        rows = list(zip(*[[None] * len(columns[0]) if c is None else c.tolist() for c in columns]))
        assert table_to_csv(header, columns) == csv_from_rows(header, rows)
        if len(columns) == 4 and all(column is not None for column in columns[:3]):
            sweep = sweep_of(*columns[:3], columns[3])
            assert sweep_to_csv(sweep) == csv_from_rows(["t", "quantum", "classical", "exact"], rows)

    def test_columns_are_not_changed(self):
        column = np.array([1.0, 1e-300, -0.0])
        table_to_csv(["a"], [column])
        assert column.tolist() == [1.0, 1e-300, -0.0]

    def test_sweep_csv_independent_of_float_order(self):
        # the batched sweep sums in another order than one readout per point: at
        # t = 0 it reads -6.9e-18 where the point reads 0
        prep = prepare_lambda(6)
        sweep = quantum_interpolate_sweep(prep, 0.0, 64.0, 256)
        points = [quantum_interpolate(prep, t) for t in sweep.t.tolist()]
        by_point = sweep_of(
            sweep.t, [p.quantum_value for p in points], [p.classical_value for p in points]
        )
        assert np.any(sweep.quantum != by_point.quantum)
        assert sweep_to_csv(sweep) == sweep_to_csv(by_point)


class TestSvg:
    def test_deterministic(self):
        state = encode_value_real(3, 2.7)
        assert render_state_svg(state) == render_state_svg(state)

    def test_bar_count(self):
        for q in (1, 3, 5):
            state = zero_state(q)
            svg = render_state_svg(state)
            assert svg.count('class="bar"') == 1 << q

    def test_zero_state_two_bars(self):
        svg = render_state_svg(zero_state(1))
        heights = re.findall(r'class="bar"[^>]*height="([0-9.]+)"', svg)
        assert len(heights) == 2
        assert float(heights[0]) > 0
        assert float(heights[1]) == 0.0

    def test_hue_tracks_phase(self):
        # geometric state: equal-height bars with linearly advancing hue
        theta = 2 * math.pi * 2.3 / 8
        reg = Register(0, 3)
        state = Circuit(3, (HadamardLayer(reg), PhaseLadder(reg, theta))).state()
        svg = render_state_svg(state)
        hues = [float(h) for h in HSL_RE.findall(svg)]
        assert len(hues) == 8
        for k, hue in enumerate(hues):
            expected = math.degrees((k * theta) % (2 * math.pi))
            assert circular_hue_distance(hue, expected) < 0.5

    def test_real_state_red_blue_only(self):
        svg = render_state_svg(encode_value_real(3, 2.7))
        hues = [float(h) for h in HSL_RE.findall(svg)]
        for hue in hues:
            assert (
                circular_hue_distance(hue, 0.0) < 1.0 or circular_hue_distance(hue, 180.0) < 1.0
            )

    def test_hue_of_mapping(self):
        assert hue_of(1 + 0j) == 0.0
        assert abs(hue_of(-1 + 0j) - 180.0) < 1e-9
        assert abs(hue_of(1j) - 90.0) < 1e-9

    def test_round_off_sets_no_hue(self):
        assert hue_of(-1e-17 - 1e-18j) == 0.0  # a zero-height bar
        assert hue_of(0.7 - 1e-15j) == 0.0  # not 360
        assert hue_of(-0.7 - 1e-15j) == 180.0
        assert hue_of(-0.7 + 1e-15j) == 180.0
        assert hue_of(0.7 + 1e-9j) > 0.0  # a phase above round-off still shows
        # every bar of a phase-corrected encoding is exactly red or blue-cyan
        svg = render_state_svg(encode_value_real(4, 5.5))
        assert set(HSL_RE.findall(svg)) == {"0.000000", "180.000000"}

    def test_key_value_labels(self):
        svg = render_state_svg(zero_state(5), RegisterLayout(2, 3))
        labels = re.findall(r"<title>([^<]*)</title>", svg)
        assert len(labels) == 32
        assert labels[0] == "0:0"
        assert labels[9] == "1:1"
