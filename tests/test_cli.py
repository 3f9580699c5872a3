import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qinterp import EncodingDomain, ParseError, QInterpError, cli, prepare_nu2, quantum_interpolate
from qinterp.cli import main
from qinterp.stateio import format_value


def dumped_amplitudes(text):
    """The amplitudes of a JSON state dump, as a complex array."""
    return np.array([complex(re, im) for re, im in json.loads(text)["amplitudes"]])


DEMO_POLY_TEXT = "0.725: 1\n2.451: k1\n2.716: k2\n1.321: k0*k2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "encode", "-m", "3", "-t", "4")
        assert code == 0
        assert abs(dumped_amplitudes(out)[4]) ** 2 > 1 - 1e-12

    def test_svg_output_file(self, tmp_path, capsys):
        path = tmp_path / "chart.svg"
        code, _, _ = run(
            capsys, "encode", "-m", "3", "-t", "4", "--out", "svg", "-o", str(path)
        )
        assert code == 0
        svg = path.read_text()
        assert svg.count('class="bar"') == 8
        # single full-height bar at outcome 4
        import re

        heights = [float(h) for h in re.findall(r'class="bar"[^>]*height="([0-9.]+)"', svg)]
        assert heights[4] == max(heights) > 0
        assert sum(1 for h in heights if h > 1e-6) == 1

    def test_phase_correct_red_blue(self, capsys):
        code, out, _ = run(
            capsys, "encode", "-m", "3", "-t", "2.7", "--phase-correct", "--out", "svg"
        )
        assert code == 0
        import re

        hues = [float(h) for h in re.findall(r'class="bar"[^>]*fill="hsl\(([0-9.]+),', out)]
        assert hues
        for hue in hues:
            d0 = min(hue % 360, 360 - hue % 360)
            d180 = abs(hue - 180.0)
            assert d0 < 1.0 or d180 < 1.0

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run(capsys, "encode", "-m", "3", "-t", "9")
        assert code == 3
        assert "domain" in err

    def test_negative_round_off_encodes_zero(self, capsys):
        code, out, _ = run(capsys, "encode", "-m", "3", "-t=-1e-17")
        assert code == 0
        assert out == run(capsys, "encode", "-m", "3", "-t", "0")[1]

    @pytest.mark.parametrize("value", ["-1e-17", "-2.5E+0", "-.35e1", "-3"])
    def test_negative_value_as_its_own_argument(self, capsys, value):
        joined = run(capsys, "encode", "-m", "3", f"-t={value}", "--domain", "twos")
        separate = run(capsys, "encode", "-m", "3", "-t", value, "--domain", "twos")
        assert separate == joined
        assert separate[0] == 0

    @pytest.mark.parametrize("value, shown", [("-inf", "-inf"), ("-Infinity", "-inf"), ("-NaN", "nan")])
    def test_negative_non_finite_value_is_a_domain_error(self, capsys, value, shown):
        joined = run(capsys, "encode", "-m", "3", f"-t={value}")
        separate = run(capsys, "encode", "-m", "3", "-t", value)
        assert separate == joined
        assert separate == (3, "", f"error: value {shown} outside unsigned domain [0, 8)\n")

    def test_twos_complement_flag(self, capsys):
        code, out, _ = run(capsys, "encode", "-m", "3", "-t", "-4", "--domain", "twos")
        assert code == 0
        assert abs(dumped_amplitudes(out)[4]) ** 2 > 1 - 1e-12


class TestInterpolate:
    def test_nu2_point(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--source", "nu2", "-m", "6", "-t", "44.8")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert abs(values["quantum"] - 0.1336) < 5e-4
        assert abs(values["classical"] - values["quantum"]) < 1e-9

    def test_lambda_point(self, capsys):
        code, out, _ = run(capsys, "interpolate", "--source", "lambda", "-m", "6", "-t", "44.8")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert abs(values["classical"] - 0.1546) < 5e-4

    def test_integer_sweep_matches_amplitudes(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "interpolate",
            "--source",
            "nu2",
            "-m",
            "3",
            "--t-start",
            "0",
            "--t-stop",
            "8",
            "--t-steps",
            "8",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        from qinterp import nu2_amplitudes

        amps = nu2_amplitudes(3)
        lines = csv_path.read_text().strip().splitlines()[1:]
        assert len(lines) == 8
        for k, line in enumerate(lines):
            fields = line.split(",")
            assert float(fields[0]) == float(k)
            assert abs(float(fields[1]) - amps[k]) < 1e-9

    def test_negative_sweep_bounds_as_their_own_arguments(self, capsys):
        common = ["interpolate", "--source", "nu2", "-m", "3", "--t-steps", "4", "--domain", "twos"]
        joined = run(capsys, *common, "--t-start=-1e-17", "--t-stop=-2.5e0")
        separate = run(capsys, *common, "--t-start", "-1e-17", "--t-stop", "-2.5e0")
        assert separate == joined
        assert separate[0] == 0 and separate[1].count("\n") == 5

    def test_sweep_leaving_domain_writes_no_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "interpolate", "--source", "nu2", "-m", "3",
            "--t-start", "4", "--t-stop", "12", "--t-steps", "8", "--csv", str(csv_path),
        )  # fmt: skip
        assert code == 3
        assert err.startswith("error:")
        assert not csv_path.exists()

    def test_sweep_step_count_over_the_cap_exits_3(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "interpolate", "--source", "nu2", "-m", "3", "--t-stop", "8",
            "--t-steps", "10000000000", "--csv", str(csv_path),
        )  # fmt: skip
        assert code == 3
        assert err.startswith("error:") and "cap" in err
        assert not csv_path.exists()

    def test_sweep_rows_match_one_point_sweeps(self, tmp_path, capsys):
        # 100 points run as blocks of 64, 32 and 4; each row must equal the
        # one-point sweep at its t, which reads that point on its own
        t_start, t_stop, steps = -30.7, 29.9, 100
        common = ["interpolate", "--source", "nu2", "-m", "6", "--domain", "twos"]

        def sweep_rows(start, count):
            csv_path = tmp_path / "sweep.csv"
            code, _, _ = run(
                capsys, *common, f"--t-start={start!r}", f"--t-stop={t_stop!r}",
                "--t-steps", str(count), "--csv", str(csv_path),
            )  # fmt: skip
            assert code == 0
            return [line.split(",") for line in csv_path.read_text().splitlines()[1:]]

        rows = sweep_rows(t_start, steps)
        assert len(rows) == steps
        prep = prepare_nu2(6)
        for i, row in enumerate(rows):
            t = t_start + i * (t_stop - t_start) / steps
            (single,) = sweep_rows(t, 1)
            assert (row[0], row[2], row[3]) == (single[0], single[2], single[3])
            expected = quantum_interpolate(prep, t, EncodingDomain.TWOS_COMPLEMENT)
            assert abs(float(row[1]) - float(format_value(expected.quantum_value))) <= 1e-12

    def test_table_source(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        values = np.arange(8, dtype=float)
        table.write_text("# samples\n" + " ".join(str(v) for v in values) + "\n")
        code, out, _ = run(
            capsys, "interpolate", "--source", str(table), "-m", "3", "-t", "3.0"
        )
        assert code == 0
        values_out = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert abs(values_out["quantum"] - 3.0 / np.linalg.norm(values)) < 1e-9

    def test_tiny_table_reads_as_its_unit_vector(self, tmp_path, capsys):
        # the squares of 1e-170 underflow to 0, yet the table has a unit vector
        readings = []
        for value in ("1e-170", "1"):
            table = tmp_path / "table.txt"
            table.write_text(" ".join([value] * 8) + "\n")
            code, out, err = run(capsys, "interpolate", "--source", str(table), "-m", "3", "-t", "2.5")
            assert code == 0, err
            readings.append({line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()})
        for name in ("quantum", "classical"):
            assert abs(readings[0][name] - readings[1][name]) <= 1e-12

    @pytest.mark.parametrize("table", ["1e-320 0", "1e200 0"], ids=["subnormal-norm", "overflowing-squares"])
    def test_table_out_of_float_range_reads_as_its_unit_vector(self, tmp_path, capsys, table):
        # 1e-320 has a norm without a finite inverse, 1e200 squares that overflow; both read as "1 0"
        outputs = []
        for text in (table, "1 0"):
            path = tmp_path / "table.txt"
            path.write_text(text + "\n")
            outputs.append(run(capsys, "interpolate", "--source", str(path), "-m", "1", "-t", "0.3"))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_sweep_past_the_float_range_exits_3(self, capsys):
        # points from 2 * 1e308 / 4 on overflow to inf; the first point outside is refused, with no warning
        code, out, err = run(
            capsys, "interpolate", "--source", "nu2", "-m", "6", "--t-start", "0", "--t-stop", "1e308", "--t-steps", "4"
        )
        assert (code, out) == (3, "")
        assert err == "error: value 2.5e+307 outside unsigned domain [0, 64)\n"

    # each 1e308 is finite, but the table's norm is past the float range
    @pytest.mark.parametrize("value, norm", [("1e308", "inf"), ("0", "0.0")], ids=["huge", "zero"])
    def test_table_without_a_unit_vector(self, tmp_path, capsys, value, norm):
        table = tmp_path / "table.txt"
        table.write_text(" ".join([value] * 8) + "\n")
        code, out, err = run(capsys, "interpolate", "--source", str(table), "-m", "3", "-t", "2.5")
        assert code == 3
        assert out == ""
        assert err == f"error: table norm {norm} is not positive and finite\n"

    def test_table_length_mismatch(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("1 2 3\n")
        code, _, err = run(capsys, "interpolate", "--source", str(table), "-m", "3", "-t", "1")
        assert code == 2
        assert "expected 8" in err

    def test_missing_t_and_sweep(self, capsys):
        code, _, _ = run(capsys, "interpolate", "--source", "nu2", "-m", "3")
        assert code == 2

    @pytest.mark.parametrize(
        "sweep",
        [["--t-stop", "5", "--t-steps", "4"], ["--t-start", "0"], ["--t-stop", "5"], ["--t-steps", "4"],
         ["--csv", "-"]],
        ids=["sweep", "t-start", "t-stop", "t-steps", "csv"],
    )  # fmt: skip
    def test_point_with_sweep_options_exits_2(self, capsys, sweep):
        code, out, err = run(capsys, "interpolate", "--source", "nu2", "-m", "3", "-t", "2", *sweep)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ") and err.endswith("not both\n")

    def test_sweep_starts_at_zero_by_default(self, capsys):
        common = ["interpolate", "--source", "nu2", "-m", "3", "--t-stop", "5", "--t-steps", "4"]
        assert run(capsys, *common) == run(capsys, *common, "--t-start", "0")

    @pytest.mark.parametrize("steps", [[], ["--t-steps", "0"]], ids=["no-steps", "zero-steps"])
    def test_sweep_needs_a_step(self, capsys, steps):
        code, out, err = run(capsys, "interpolate", "--source", "nu2", "-m", "3", "--t-stop", "5", *steps)
        assert (code, out, err) == (2, "", "error: sweep needs at least one step\n")


class TestDict:
    def test_svg_chart(self, tmp_path, capsys):
        poly = tmp_path / "linear.poly"
        poly.write_text("1.2: 1\n0.4: k0\n0.8: k1\n")
        code, out, _ = run(
            capsys, "dict", str(poly), "-n", "2", "-m", "3", "--out", "svg"
        )
        assert code == 0
        assert out.count('class="bar"') == 32
        assert "0:0" in out and "3:7" in out  # labels by key:value pair

    def test_prime_real_hues(self, tmp_path, capsys):
        poly = tmp_path / "linear.poly"
        poly.write_text("1.2: 1\n0.4: k0\n0.8: k1\n")
        code, out, _ = run(
            capsys, "dict", str(poly), "-n", "2", "-m", "3", "--prime", "--out", "svg"
        )
        assert code == 0
        import re

        bars = re.findall(r'class="bar"[^>]*height="([0-9.]+)" fill="hsl\(([0-9.]+),', out)
        assert len(bars) == 32
        visible = [(float(h), float(hue)) for h, hue in bars if float(h) > 1e-3]
        assert visible  # hue is only meaningful where a bar has height
        for _, hue in visible:
            d0 = min(hue % 360, 360 - hue % 360)
            assert d0 < 1.0 or abs(hue - 180.0) < 1.0

    def test_constant_integer_poly_bar_count(self, tmp_path, capsys):
        poly = tmp_path / "const.poly"
        poly.write_text("4: 1\n")
        code, out, _ = run(capsys, "dict", str(poly), "-n", "2", "-m", "3", "--out", "json")
        assert code == 0
        nonzero = np.flatnonzero(np.abs(dumped_amplitudes(out)) ** 2 > 1e-12)
        assert len(nonzero) == 4  # one pair per key

    def test_range_error_names_key(self, tmp_path, capsys):
        poly = tmp_path / "big.poly"
        poly.write_text("6.5: 1\n2.0: k0\n")
        code, _, err = run(capsys, "dict", str(poly), "-n", "2", "-m", "3")
        assert code == 3
        assert "key 1" in err

    def test_poly_parse_error(self, tmp_path, capsys):
        poly = tmp_path / "bad.poly"
        poly.write_text("wat\n")
        code, _, _ = run(capsys, "dict", str(poly), "-n", "2", "-m", "3")
        assert code == 2

    def test_width_over_cap_is_one_error_line(self, tmp_path, capsys):
        poly = tmp_path / "linear.poly"
        poly.write_text("1.2: 1\n0.4: k0\n")
        code, out, err = run(capsys, "dict", str(poly), "-n", "40", "-m", "3")
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: qubit count 43 outside supported range 1..24"]


class TestSum:
    def test_reference_config(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text(
            "n = 3\nm = 4\nweights = sin2\nhash = identity\n"
            "poly = 0.725: 1; 2.451: k1; 2.716: k2; 1.321: k0*k2\n"
        )
        code, out, _ = run(capsys, "sum", str(config))
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert abs(values["amplitude"] - 0.0879) < 1e-3
        assert abs(values["sum"] - 15.1555) < 0.2
        assert abs(values["classical"] - 15.9130) < 1e-3
        assert abs(values["abs-error"] - abs(values["sum"] - values["classical"])) < 1e-6

    @pytest.mark.parametrize(
        "weights, unscaled",
        [("1e200 0 0 0", "1 0 0 0"), ("1e-320 1e-320 1e-320 1e-320", "1 1 1 1")],
        ids=["overflowing-squares", "subnormal-norm"],
    )
    def test_weights_out_of_float_range_keep_the_amplitude(self, tmp_path, capsys, weights, unscaled):
        amplitudes = []
        for text in (weights, unscaled):
            config = tmp_path / "sum.cfg"
            config.write_text(f"n = 2\nm = 3\nweights = {text}\npoly = 1: 1; 2: k0; 3: k1\n")
            code, out, err = run(capsys, "sum", str(config))
            assert (code, err) == (0, "")
            amplitudes.append(out.splitlines()[0])
        assert amplitudes[0] == amplitudes[1]

    def test_scaled_config(self, tmp_path, capsys):
        poly_file = tmp_path / "p.poly"
        poly_file.write_text(DEMO_POLY_TEXT)
        config = tmp_path / "sum.cfg"
        config.write_text(
            f"n = 3\nm = 10\nscale = 64\nweights = sin2\nhash = identity\npoly_file = {poly_file.name}\n"
        )
        code, out, _ = run(capsys, "sum", str(config))
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert abs(values["sum"] - 15.9186) < 5e-2

    def test_zero_weights(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 2\nm = 3\nweights = 0 0 0 0\nhash = identity\npoly = 1.0: 1\n")
        code, out, _ = run(capsys, "sum", str(config))
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
        assert values["sum"] == 0.0

    def test_zero_weights_print_four_zeros(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 2\nm = 3\nweights = 0 0 0 0\npoly = 1: 1; 2: k0; 3: k1\n")
        code, out, err = run(capsys, "sum", str(config))
        assert (code, err) == (0, "")
        assert out == "amplitude   0\nsum         0\nclassical   0\nabs-error   0\n"

    def test_zero_weights_still_refuse_an_aliasing_polynomial(self, tmp_path, capsys):
        results = []
        for weights in ("0 0 0 0", "0 0 0 1"):
            config = tmp_path / "sum.cfg"
            config.write_text(f"n = 2\nm = 2\nweights = {weights}\npoly = 3: 1; 2: k0\n")
            results.append(run(capsys, "sum", str(config)))
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (3, "")
        assert err == (
            "error: value 5.0 at key 1 would alias in a 2-qubit register: "
            "value 5.0 outside unsigned domain [0, 4)\n"
        )

    def test_tiny_weights_read_as_their_unit_vector(self, tmp_path, capsys):
        # the squares of 1e-170 underflow to 0, yet the weights have a unit vector
        amplitudes = []
        for weights in ("1e-170 1e-170 1e-170 1e-170", "1 1 1 1"):
            config = tmp_path / "sum.cfg"
            config.write_text(f"n = 2\nm = 3\npoly = 1.5: 1; 2.0: k0\nweights = {weights}\nhash = identity\n")
            code, out, err = run(capsys, "sum", str(config))
            assert code == 0, err
            values = {line.split()[0]: float(line.split()[1]) for line in out.strip().splitlines()}
            amplitudes.append(values["amplitude"])
        assert amplitudes[0] == amplitudes[1]

    def test_config_validation(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 3\nweights = sin2\n")  # missing m and poly
        code, _, err = run(capsys, "sum", str(config))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "sum", "/nonexistent/config.cfg")
        assert code == 2


class TestMalformedInput:
    """Bad input exits 2 (usage) or 3 (capacity) with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "command, register, width",
        [
            (["encode", "-m", "0", "-t", "1"], "value", 0),
            (["encode", "-m", "-2", "-t", "1", "--phase-correct"], "value", -2),
            (["interpolate", "--source", "nu2", "-m", "0", "-t", "0"], "value", 0),
            (["interpolate", "--source", "lambda", "-m", "0", "--t-stop", "1", "--t-steps", "4"], "value", 0),
            (["dict", "POLY", "-n", "0", "-m", "3"], "key", 0),
            (["dict", "POLY", "-n", "2", "-m", "0"], "value", 0),
            (["sum", "n = 0\nm = 3\npoly = 1: 1\n"], "key", 0),
            (["sum", "n = 2\nm = 0\npoly = 1: 1\n"], "value", 0),
        ],
        ids=["encode", "encode-negative", "interpolate", "sweep", "dict-no-keys", "dict-no-values",
             "sum-no-keys", "sum-no-values"],
    )  # fmt: skip
    def test_register_without_qubits_is_one_refusal(self, tmp_path, capsys, command, register, width):
        poly = tmp_path / "const.poly"
        poly.write_text("1: 1\n")
        if command[0] == "sum":
            config = tmp_path / "sum.cfg"
            config.write_text(command[1])
            command = ["sum", str(config)]
        command = [str(poly) if arg == "POLY" else arg for arg in command]
        code, out, err = run(capsys, *command)
        assert (code, out) == (3, "")
        assert err == f"error: {register} register width {width}: a register needs at least one qubit\n"

    def sum_error(self, tmp_path, capsys, extra):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 2\nm = 2\npoly = 1.0: 1; 0.5: k0\n" + extra)
        code, out, err = run(capsys, "sum", str(config))
        assert out == ""
        assert err.startswith("error: ")
        return code, err

    @pytest.mark.parametrize(
        "extra, lineno, key",
        [("wieghts = 1 0 0 0\n", 4, "wieghts"), ("# comment\n\nN = 2\n", 6, "N"), ("= 3\n", 4, "")],
        ids=["misspelled", "case", "empty"],
    )
    def test_unknown_config_key(self, tmp_path, capsys, extra, lineno, key):
        code, err = self.sum_error(tmp_path, capsys, extra)
        assert code == 2
        assert err == f"error: config line {lineno}: unknown key {key!r}\n"

    @pytest.mark.parametrize("extra, key", [("n = 2\n", "n"), ("weights = sin2\nweights = 1 0 0 0\n", "weights")])
    def test_repeated_config_key(self, tmp_path, capsys, extra, key):
        code, err = self.sum_error(tmp_path, capsys, extra)
        assert code == 2
        assert err == f"error: config line {3 + extra.count(chr(10))}: key {key!r} is already set\n"

    def test_non_integer_scale(self, tmp_path, capsys):
        code, err = self.sum_error(tmp_path, capsys, "scale = abc\n")
        assert code == 2
        assert "scale" in err

    def test_non_positive_scale(self, tmp_path, capsys):
        code, err = self.sum_error(tmp_path, capsys, "scale = 0\n")
        assert code == 2
        assert "scale" in err

    # a finite scale whose product overflows: an inf coefficient, inf - inf in
    # the value table, and two finite coefficients whose sum overflows
    @pytest.mark.parametrize(
        "poly, key, value", [("3: 1; 1: k0", 0, "inf"), ("-3: 1; 3: k0", 0, "-inf"), ("1.5: 1; 1.5: k0", 1, "inf")]
    )
    def test_overflowing_scaled_values(self, tmp_path, capsys, poly, key, value):
        config = tmp_path / "sum.cfg"
        config.write_text(f"n = 1\nm = 3\nscale = {2**1023}\npoly = {poly}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "sum", str(config))
        assert code == 3
        assert out == ""
        assert err == f"error: value {value} at key {key} is not finite\n"

    def test_scale_beyond_float_range(self, tmp_path, capsys):
        # the coefficients are scaled as floats, so 2^1024 cannot scale them
        code, err = self.sum_error(tmp_path, capsys, f"scale = {2**1024}\n")
        assert code == 2
        assert err == "error: bad scale: int too large to convert to float\n"

    def test_unknown_domain(self, tmp_path, capsys):
        code, err = self.sum_error(tmp_path, capsys, "domain = bogus\n")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("key", ["weights", "hash"])
    def test_non_numeric_vector_token(self, tmp_path, capsys, key):
        code, err = self.sum_error(tmp_path, capsys, f"{key} = 1 x 1 1\n")
        assert code == 2
        assert "'x'" in err

    @pytest.mark.parametrize("key", ["weights", "hash"])
    def test_non_finite_vector_value(self, tmp_path, capsys, key):
        code, err = self.sum_error(tmp_path, capsys, f"{key} = 1 nan 1 1\n")
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("key, vector", [("weights", "weight"), ("hash", "hash")])
    def test_overflowing_vector_norm(self, tmp_path, capsys, key, vector):
        # every entry is finite but the norm, 2e308, is past the float range; the error names the vector
        code, err = self.sum_error(tmp_path, capsys, f"{key} = 1e308 1e308 1e308 1e308\n")
        assert code == 3
        assert err == f"error: {vector} vector norm inf is not positive and finite\n"

    def test_zero_hash(self, tmp_path, capsys):
        code, err = self.sum_error(tmp_path, capsys, "hash = 0 0 0 0\n")
        assert code == 3
        assert err == "error: hash vector norm 0.0 is not positive and finite\n"

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--t-start", "0", "--t-stop", "inf", "--t-steps", "4"],
            ["--t-start", "1e308", "--t-stop", "-1e308", "--t-steps", "4"],
            ["--t-start", "-inf", "--t-stop", "2", "--t-steps", "4"],
        ],
        ids=["stop", "difference", "negative-start"],
    )
    def test_sweep_bounds_not_finite(self, capsys, bounds):
        code, out, err = run(capsys, "interpolate", "--source", "nu2", "-m", "3", *bounds)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "t_start" in err and "t_stop" in err and "nan" not in err

    @pytest.mark.parametrize(
        "value, shown",
        [
            ("inf", "inf"), ("1e400", "inf"), ("-1e400", "-inf"),
            ("-inf", "-inf"), ("-INFINITY", "-inf"), ("-nan", "nan"),
        ],
    )  # fmt: skip
    def test_point_not_finite(self, capsys, value, shown):
        # a single point is checked against the domain, not as a sweep of no width
        code, out, err = run(capsys, "interpolate", "--source", "nu2", "-m", "3", "-t", value)
        assert code == 3
        assert out == ""
        assert err == f"error: value {shown} outside unsigned domain [0, 8)\n"

    def test_non_finite_poly_coefficient(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 2\nm = 2\npoly = nan: 1\n")
        code, _, err = run(capsys, "sum", str(config))
        assert code == 2
        assert "not finite" in err

    @pytest.mark.parametrize("command", ["dict", "sum"])
    @pytest.mark.parametrize(
        "index", ["2", "1000000000", "99999999999999999999", "9" * 5000, "0" * 5000 + "7"],
        ids=["next", "1e9", "1e20", "5000-digits", "leading-zeros"],
    )
    def test_variable_index_past_the_count_is_one_refusal(self, tmp_path, capsys, command, index):
        if command == "dict":
            poly = tmp_path / "big.poly"
            poly.write_text(f"1: k{index}\n")
            code, out, err = run(capsys, "dict", str(poly), "-n", "2", "-m", "3")
        else:
            config = tmp_path / "sum.cfg"
            config.write_text(f"n = 2\nm = 3\npoly = 1: k{index}\n")
            code, out, err = run(capsys, "sum", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: line 1: term uses variable k{index.lstrip('0')}, but only 2 variables are declared\n"

    def test_key_width_over_cap_rejected_before_allocation(self, tmp_path, capsys):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 40\nm = 2\npoly = 1.0: 1\n")
        code, _, err = run(capsys, "sum", str(config))
        assert code == 3
        assert "qubit count 40" in err

    @pytest.mark.parametrize("source", ["nu2", "lambda"])
    def test_interpolate_width_over_cap(self, capsys, source):
        code, _, err = run(capsys, "interpolate", "--source", source, "-m", "40", "-t", "1")
        assert code == 3
        assert "qubit count 40" in err

    def test_non_finite_table_value(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("1 2 inf 4\n")
        code, _, err = run(capsys, "interpolate", "--source", str(table), "-m", "2", "-t", "1")
        assert code == 2
        assert "finite" in err

    def test_non_numeric_table_value(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("1 2 three 4\n")
        code, _, err = run(capsys, "interpolate", "--source", str(table), "-m", "2", "-t", "1")
        assert code == 2
        assert "'three'" in err

    @pytest.mark.parametrize(
        "reader", ["sum config", "poly_file", "dict poly file", "interpolate table"]
    )
    def test_input_file_not_utf8(self, tmp_path, capsys, reader):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1.0: 1\n\xff\xfe: k0\n")
        config = tmp_path / "sum.cfg"
        if reader == "sum config":
            bad.write_bytes(b"n = 1\nm = 2\npoly = 1.0: 1 # \xe9\n")
            argv = ["sum", str(bad)]
        elif reader == "poly_file":
            config.write_text("n = 1\nm = 2\npoly_file = bad.txt\n")
            argv = ["sum", str(config)]
        elif reader == "dict poly file":
            argv = ["dict", str(bad), "-n", "1", "-m", "2"]
        else:
            bad.write_bytes(b"1 2 3 \xff\n")
            argv = ["interpolate", "--source", str(bad), "-m", "2", "-t", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bad}: not UTF-8 text") and err.count("\n") == 1

    @pytest.mark.parametrize("reader", ["sum config", "poly_file", "dict poly file", "interpolate table"])
    def test_input_file_with_byte_order_mark(self, tmp_path, capsys, reader):
        # a leading UTF-8 byte-order mark is read past: the output is that of the file without it
        text = {
            "sum config": "n = 1\nm = 2\npoly = 0.5: 1\n",
            "poly_file": "0.5: 1\n1: k0\n",
            "dict poly file": "0.5: 1\n1: k0\n",
            "interpolate table": "1 2 3 4\n",
        }[reader]
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for path in (plain, marked):
            if reader == "sum config":
                argv = ["sum", str(path)]
            elif reader == "poly_file":
                config = tmp_path / "sum.cfg"
                config.write_text(f"n = 1\nm = 2\npoly_file = {path.name}\n")
                argv = ["sum", str(config)]
            elif reader == "dict poly file":
                argv = ["dict", str(path), "-n", "1", "-m", "2"]
            else:
                argv = ["interpolate", "--source", str(path), "-m", "2", "-t", "1.5"]
            outputs.append(run(capsys, *argv))
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[1] == outputs[0]

    def test_output_path_is_directory(self, tmp_path, capsys):
        code, out, err = run(capsys, "encode", "-m", "3", "-t", "4", "-o", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestExitCodes:
    @pytest.mark.parametrize("error", QInterpError.__subclasses__(), ids=lambda cls: cls.__name__)
    def test_parse_errors_exit_2_and_the_rest_exit_3(self, monkeypatch, capsys, error):
        def fail(args):
            raise error("bad input")

        monkeypatch.setattr(cli, "_cmd_encode", fail)
        code, out, err = run(capsys, "encode", "-m", "3", "-t", "1")
        assert code == (2 if error is ParseError else 3)
        assert out == ""
        assert err == "error: bad input\n"


class TestRepro:
    def test_full_run_passes(self, capsys):
        code, out, _ = run(capsys, "repro")
        assert code == 0
        assert "0 failed" in out
        assert "REF" in out  # reference-only rows present, never asserted

    def test_filter(self, capsys):
        code, out, _ = run(capsys, "repro", "--filter", "encode-*")
        assert code == 0
        body = [line for line in out.splitlines() if line and not line.startswith(("case", "-"))]
        assert all(line.lstrip().startswith(("encode-", "4 passed")) for line in body)

    def test_empty_filter_distinct_exit(self, capsys):
        code, out, _ = run(capsys, "repro", "--filter", "zzz*")
        assert code == 2
        assert "no reference cases" in out

    def test_deterministic_report(self, capsys):
        code1, out1, _ = run(capsys, "repro", "--filter", "interp-*")
        code2, out2, _ = run(capsys, "repro", "--filter", "interp-*")
        assert (code1, out1) == (code2, out2)


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once_and_reused(self, capsys):
        first = cli._parser()
        for argv in (["frobnicate"], ["repro", "--filter", "zzz*"], ["encode", "-m", "3", "-t", "1"]):
            main(argv)
        assert cli._parser() is first
        assert cli._parser.cache_info().misses == 1


def mostly(usual, odd):
    """Draws from ``odd`` about one time in eight and from ``usual`` otherwise.

    The odd branch sits on a middle integer, since hypothesis favours the ends of a range.
    """
    return st.integers(0, 7).flatmap(lambda i: odd if i == 5 else usual)


WIDTHS = mostly(st.sampled_from(["1", "2", "3", "4"]), st.sampled_from(["-1", "0", "25", "40"]))  # none valid is wide
NUMBERS = mostly(
    st.sampled_from(["0", "1", "2.5", "-2", "7", "-1e-17", "1e-300"]),
    st.sampled_from(["inf", "-inf", "nan", "-INFINITY", "1e400", "-1e400", "x", ""]),
)
DOMAINS = st.sampled_from(["unsigned", "twos", "twos_complement"])
MONOMIALS = mostly(
    st.sampled_from(["1", "k0", "k1", "k0*k1", "k01", "k3*k0"]), st.sampled_from(["k99999999999999999999", "q0", ""])
)
BOM = "\ufeff"


@st.composite
def polynomial_text(draw, separator="\n"):
    terms = draw(st.lists(st.tuples(NUMBERS, MONOMIALS), min_size=1, max_size=3))
    return separator.join(f"{c}: {monomial}" for c, monomial in terms)


@st.composite
def vector_text(draw, builtins):
    """A builtin name, or a list of tokens whose length may match a register of 1 to 4 qubits."""
    if draw(st.booleans()):
        return draw(st.sampled_from(builtins))
    return " ".join(draw(st.lists(NUMBERS, min_size=draw(st.sampled_from([1, 2, 4, 8, 16])), max_size=16)))


@st.composite
def config_text(draw):
    """Sum config text: n, m and a polynomial most often, then other, unknown and repeated keys in any order."""
    values = {
        "n": WIDTHS,
        "m": WIDTHS,
        "poly": polynomial_text("; "),
        "poly_file": st.just("sum.poly"),
        "scale": st.sampled_from(["1", "2", "0", "-3", "1.5", "abc", "9" * 400]),
        "domain": st.sampled_from(["unsigned", "twos", "twos_complement", "signed"]),
        "weights": vector_text(["uniform", "sin2"]),
        "hash": vector_text(["identity", "uniform"]),
        "wieghts": vector_text(["uniform"]),
        "N": WIDTHS,
    }
    required = ("n", "m", draw(st.sampled_from(["poly", "poly_file"])))
    keys = [key for key in required if draw(mostly(st.just(True), st.just(False)))]
    others = mostly(st.sampled_from(["scale", "domain", "weights", "hash"]), st.sampled_from(sorted(values)))
    keys += draw(st.lists(others, max_size=2))
    lines = [f"{key} = {draw(values[key])}" for key in draw(st.permutations(keys))]
    return (BOM if draw(st.booleans()) else "") + "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar")


class TestGrammar:
    """Any argv of the grammar's tokens exits 0, 2 or 3, and each refusal is one ``error:`` line.

    An exit 2 may instead be argparse's own usage message.  Widths come from
    a set in which no valid register is wide, so each example takes milliseconds.
    """

    def check(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3), (argv, code, err)
        if code == 3 or (code == 2 and not err.startswith("usage:")):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, code, err)

    def write(self, directory, name, text):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    @settings(max_examples=150)
    @given(m=WIDTHS, t=NUMBERS, domain=DOMAINS, flags=st.sets(st.sampled_from(["--phase-correct", "svg"])))
    def test_encode(self, m, t, domain, flags):
        argv = ["encode", "-m", m, "-t", t, "--domain", domain]
        argv += ["--phase-correct"] * ("--phase-correct" in flags) + ["--out", "svg"] * ("svg" in flags)
        self.check(argv)

    @settings(max_examples=150)
    @given(
        m=WIDTHS, source=st.sampled_from(["nu2", "lambda", "table"]), table=st.lists(NUMBERS, max_size=16),
        form=mostly(st.sampled_from(["point", "sweep"]), st.sampled_from(["both", "neither"])), t=NUMBERS,
        domain=DOMAINS, start=st.none() | NUMBERS, stop=mostly(NUMBERS, st.none()),
        steps=mostly(st.sampled_from(["1", "4", "16"]), st.sampled_from([None, "-1", "0", "2.5", "10000000000"])),
        csv=st.booleans(),
    )  # fmt: skip
    def test_interpolate(self, grammar_dir, m, source, table, form, t, domain, start, stop, steps, csv):
        if source == "table":
            source = self.write(grammar_dir, "table.txt", " ".join(table) + "\n")
        argv = ["interpolate", "--source", source, "-m", m, "--domain", domain]
        if form in ("point", "both"):
            argv += ["-t", t]
        if form in ("sweep", "both"):
            for option, value in [("--t-start", start), ("--t-stop", stop), ("--t-steps", steps)]:
                argv += [] if value is None else [option, value]
            argv += ["--csv", "-"] * csv
        self.check(argv)

    @settings(max_examples=150)
    @given(
        n=WIDTHS, m=WIDTHS, poly=polynomial_text(), bom=st.booleans(), domain=DOMAINS,
        flags=st.sets(st.sampled_from(["--prime", "svg"])),
    )  # fmt: skip
    def test_dict(self, grammar_dir, n, m, poly, bom, domain, flags):
        path = self.write(grammar_dir, "dict.poly", (BOM if bom else "") + poly + "\n")
        argv = ["dict", path, "-n", n, "-m", m, "--domain", domain]
        argv += ["--prime"] * ("--prime" in flags) + ["--out", "svg"] * ("svg" in flags)
        self.check(argv)

    @settings(max_examples=150)
    @given(text=config_text(), poly=polynomial_text())
    def test_sum(self, grammar_dir, text, poly):
        self.write(grammar_dir, "sum.poly", poly + "\n")
        self.check(["sum", self.write(grammar_dir, "sum.cfg", text)])
