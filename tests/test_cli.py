import warnings

import numpy as np
import pytest

from qinterp import EncodingDomain, ParseError, QInterpError, cli, prepare_nu2, quantum_interpolate
from qinterp.cli import main
from qinterp.stateio import format_value, state_from_json

DEMO_POLY_TEXT = "0.725: 1\n2.451: k1\n2.716: k2\n1.321: k0*k2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_json_to_stdout(self, capsys):
        code, out, _ = run(capsys, "encode", "-m", "3", "-t", "4")
        assert code == 0
        state, _ = state_from_json(out)
        assert state.probability(4) > 1 - 1e-12

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
        state, _ = state_from_json(out)
        assert state.probability(4) > 1 - 1e-12


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

    @pytest.mark.parametrize("value, norm", [("1e200", "inf"), ("0", "0.0")], ids=["huge", "zero"])
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
        state, layout = state_from_json(out)
        nonzero = np.flatnonzero(state.probabilities() > 1e-12)
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

    def sum_error(self, tmp_path, capsys, extra):
        config = tmp_path / "sum.cfg"
        config.write_text("n = 2\nm = 2\npoly = 1.0: 1; 0.5: k0\n" + extra)
        code, out, err = run(capsys, "sum", str(config))
        assert out == ""
        assert err.startswith("error: ")
        return code, err

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
        # every entry is finite but the squares overflow; the error names the vector
        code, err = self.sum_error(tmp_path, capsys, f"{key} = 1e200 1e200 1e200 1e200\n")
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
