from collections import Counter

import pytest

from qinterp import repro
from qinterp.repro import build_cases, format_report, run_cases, write_artifacts


@pytest.fixture
def readouts(monkeypatch):
    """Counts the readouts that repro's cases run, by function name."""
    calls = Counter()
    for name in ("quantum_interpolate", "generalized_inner_product"):
        original = getattr(repro, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(repro, name, counted)
    return calls


class TestCases:
    def test_all_asserted_cases_pass(self):
        results = run_cases()
        failures = [r for r in results if r.status == "FAIL"]
        assert not failures, f"failing reference cases: {[r.case.case_id for r in failures]}"

    def test_reference_only_rows_never_asserted(self):
        for case in build_cases():
            if case.case_id.startswith("ref-"):
                assert not case.asserted
                assert case.tolerance is None

    def test_hardware_rows_present(self):
        ids = {case.case_id for case in build_cases()}
        assert {
            "ref-hardware-7q-average",
            "ref-hardware-7q-best",
            "ref-hardware-16q-average",
            "ref-hardware-16q-best",
        } <= ids

    def test_filter(self):
        results = run_cases("weighted-*")
        assert results
        assert all(r.case.case_id.startswith("weighted-") for r in results)
        assert run_cases("no-such-case") == []

    def test_shared_readouts_run_once_per_run(self, readouts):
        run_cases()
        assert readouts == {"quantum_interpolate": 2, "generalized_inner_product": 1}
        run_cases()
        assert readouts == {"quantum_interpolate": 4, "generalized_inner_product": 2}

    def test_filter_runs_only_the_readouts_it_selects(self, readouts):
        run_cases("interp-nu2*")
        assert readouts == {"quantum_interpolate": 1}
        run_cases("encode-*")
        assert readouts == {"quantum_interpolate": 1}

    def test_report_is_deterministic(self):
        assert format_report(run_cases()) == format_report(run_cases())

    def test_case_ids_unique_and_ordered_report(self):
        cases = build_cases()
        ids = [c.case_id for c in cases]
        assert len(ids) == len(set(ids))
        report_lines = format_report(run_cases()).splitlines()
        listed = [line.split()[0] for line in report_lines[2:-2] if line and line[0] != " " and not line.startswith("-")]
        assert listed == sorted(listed)


class TestArtifacts:
    def test_write_artifacts(self, tmp_path):
        written = write_artifacts(tmp_path)
        names = {path.name for path in written}
        assert {
            "encode_int.svg",
            "encode_frac_real.svg",
            "dict_linear.svg",
            "dict_linear_real.svg",
            "dict_weighted_keys.svg",
            "value_weight_profile.svg",
            "sweep_nu2.csv",
            "sweep_lambda.csv",
            "recon_sin.csv",
            "recon_exp.csv",
        } <= names
        for path in written:
            assert path.stat().st_size > 0

    def test_sweep_quantum_tracks_classical(self, tmp_path):
        write_artifacts(tmp_path)
        lines = (tmp_path / "sweep_nu2.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            fields = line.split(",")
            assert abs(float(fields[1]) - float(fields[2])) < 1e-9
