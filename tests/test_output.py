import json
import math
import re

import numpy as np
import pytest

from qinterp import ParseError, RegisterLayout, StateVector, encode_geometric, encode_value_real, zero_state
from qinterp.stateio import (
    format_value,
    state_from_json,
    state_to_dict,
    state_to_json,
    sweep_to_csv,
)
from qinterp.svgchart import ChartSpec, chart_from_state, hue_of, render_state_svg, render_svg

HSL_RE = re.compile(r'class="bar"[^>]*fill="hsl\(([0-9.]+), 85%, 50%\)"')


def circular_hue_distance(a, b):
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


class TestStateJson:
    def test_schema(self):
        layout = RegisterLayout(2, 3)
        data = state_to_dict(zero_state(5), layout)
        assert data["num_qubits"] == 5
        assert data["key_width"] == 2
        assert data["value_width"] == 3
        assert len(data["amplitudes"]) == 32
        assert data["amplitudes"][0] == [1.0, 0.0]

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        state = StateVector(4, amps)
        text = state_to_json(state)
        back, layout = state_from_json(text)
        assert layout is None
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-15

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            state_from_json("{not json")
        with pytest.raises(ParseError):
            state_from_json("{}")

    @pytest.mark.parametrize("field", ["key_width", "value_width"])
    @pytest.mark.parametrize("bad", ["abc", None, 1.5, True])
    def test_non_integer_width_is_parse_error(self, field, bad):
        data = state_to_dict(zero_state(2), RegisterLayout(1, 1))
        data[field] = bad
        with pytest.raises(ParseError):
            state_from_json(json.dumps(data))

    def test_widths_must_sum_to_qubit_count(self):
        data = state_to_dict(zero_state(1))
        data["key_width"] = 1
        data["value_width"] = 1
        with pytest.raises(ParseError, match="num_qubits"):
            state_from_json(json.dumps(data))

    @pytest.mark.parametrize("num_qubits", [0, -1])
    def test_qubit_count_below_one_is_parse_error(self, num_qubits):
        data = state_to_dict(zero_state(1))
        data["num_qubits"] = num_qubits
        with pytest.raises(ParseError):
            state_from_json(json.dumps(data))

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_amplitude_count_must_match_qubits(self, count):
        data = state_to_dict(zero_state(2))
        data["amplitudes"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (count - 1)
        with pytest.raises(ParseError):
            state_from_json(json.dumps(data))


class TestCsv:
    def test_reparse_precision(self):
        rng = np.random.default_rng(1)
        rows = [
            (float(t), float(q), float(c), float(e))
            for t, q, c, e in rng.normal(size=(20, 4))
        ]
        text = sweep_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "t,quantum,classical,exact"
        for (t, q, c, e), line in zip(rows, lines[1:]):
            parsed = [float(tok) for tok in line.split(",")]
            for original, reparsed in zip((t, q, c, e), parsed):
                assert abs(original - reparsed) < 1e-8

    def test_missing_exact_column(self):
        text = sweep_to_csv([(0.5, 1.0, 1.0, None)])
        assert text.strip().splitlines()[1].endswith(",")

    def test_format_value_significant_digits(self):
        assert format_value(0.1234567894) == "0.123456789"


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
        state = encode_geometric(3, theta)
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
        layout = RegisterLayout(2, 3)
        chart = chart_from_state(zero_state(5), layout)
        assert chart.bars[0].label == "0:0"
        assert chart.bars[9].label == "1:1"
        assert len(chart.bars) == 32

    def test_render_custom_spec(self):
        spec = ChartSpec(tuple(chart_from_state(zero_state(2)).bars), 400, 300)
        svg = render_svg(spec)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
