"""Tests of the benchmark harness itself (not of qinterp).

Run from the repository root with ``python3 perfbench/selftest.py``.  The file
name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

import run  # sets the thread-pool variables before numpy loads

sys.path.insert(0, str(run.SRC))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _folder():
    run.WORK.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.WORK)


def _round0(name: str, seed: int, folder: str):
    spec = workloads.make_workloads()[name]
    ctx = workloads.Context(seed, Path(folder))
    return spec, ctx, spec.make_round(ctx, 0)


def _snapshot(ops, folder: str) -> list:
    """What the program receives: arguments and file contents, paths made relative."""
    def rel(value):
        return value.replace(folder, "<work>") if isinstance(value, str) else value

    files = sorted(
        (str(p.relative_to(folder)), p.read_bytes()) for p in Path(folder).rglob("*") if p.is_file()
    )
    return [[rel(v) for v in op.inputs] for op in ops], files


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ["root", -1, 0, 100, 0],
            ["a", 0, 10, 30, 0],
            ["b", 0, 20, 40, 0],  # overlaps a: the union 10..40 counts once
            ["c", 1, 12, 18, 0],  # grandchild: only a loses it
            ["d", 0, 90, 130, 0],  # runs past the parent's end: clipped at 100
        ]
        self.assertEqual(tracing.self_times(spans), [100 - 30 - 10, 20 - 6, 20, 6, 40])

    def test_summary_adds_self_time_per_label(self):
        t = tracing.Tracer()
        t.spans = [["x", -1, 0, 1_000_000_000, 7], ["x", 0, 0, 250_000_000, 3]]
        row = tracing.summarize(t)["x"]
        self.assertEqual(row["calls"], 2)
        self.assertAlmostEqual(row["self_s"], 1.0)
        self.assertEqual(row["work"], 10)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        cases = {20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0, 100: 90.0, 200: 95.0, 1000: 99.0, 10_000: 99.9}
        for samples, expected in cases.items():
            self.assertEqual(run.tail_percentile(samples), expected, samples)

    def test_too_few_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            run.tail_percentile(19)

    def test_every_workload_guarantees_a_tail(self):
        for name in run.WORKLOADS:
            with _folder() as folder:
                spec, _, ops = _round0(name, 1, folder)
            self.assertGreaterEqual(run.tail_percentile(len(ops) * spec.min_rounds), 75.0, name)


class SpeedNormalisation(unittest.TestCase):
    def test_meter_samples_during_the_call_and_leaves_the_sampling_out(self):
        import signal

        import speed

        def busy(seconds: float):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        start = time.perf_counter()
        with speed.Meter() as meter:
            inner = time.perf_counter()
            busy(0.45)
            inner = time.perf_counter() - inner
        outer = time.perf_counter() - start
        self.assertGreaterEqual(len(meter.factors), 2 + 3)  # two probes and the samples
        self.assertLess(meter.latency_s, inner)  # the busy loop waits out the sampling
        self.assertLess(meter.latency_s, outer)
        self.assertAlmostEqual(meter.factor, sum(meter.factors) / len(meter.factors))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_every_probed_op_gets_one_factor(self):
        with _folder() as folder:
            _, _, ops = _round0("encode-wide", 2, folder)
            client = run.Client(probe=True)
            client.execute(ops[0])
            client.execute(ops[1])
        self.assertEqual(client.failures, [])
        self.assertEqual(len(client.factors), 2)
        self.assertEqual(len(client.samples), 2)
        for factor in client.factors:
            self.assertTrue(0.05 < factor < 20, factor)

    def test_probe_does_not_call_the_program(self):
        import speed

        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            tracer.active = True
            speed.probe()
        finally:
            tracer.active = False
            tracer.restore()
        self.assertEqual(tracer.spans, [])
        self.assertEqual(dict(tracer.counts), {})


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            with _folder() as a, _folder() as b, _folder() as c:
                first = _snapshot(_round0(name, 7, a)[2], a)
                again = _snapshot(_round0(name, 7, b)[2], b)
                other = _snapshot(_round0(name, 8, c)[2], c)
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_round_composition_does_not_depend_on_the_seed(self):
        for name in ("readout-sweep", "sum-grid", "encode-wide"):
            with _folder() as a, _folder() as b:
                kinds_a = sorted(op.kind.split("-")[0] for op in _round0(name, 1, a)[2])
                kinds_b = sorted(op.kind.split("-")[0] for op in _round0(name, 2, b)[2])
            self.assertEqual(kinds_a, kinds_b, name)


def _tampered(op, expect):
    """A wrong oracle value of the same shape."""
    if op.kind == "repro":
        name = sorted(expect)[0]
        return {**expect, name: expect[name] + b" "}
    if op.kind.startswith("m"):
        ts, values = expect
        return ts, [v + 1e-6 for v in values]
    return expect + 1e-6


class WrongOracle(unittest.TestCase):
    def test_every_op_kind_fails_against_a_wrong_oracle(self):
        picks = {
            "readout-sweep": ("m6-nu2", "m6-lambda", "m6-table"),
            "sum-grid": ("n3m4-dense", "n3m4-sparse", "n8m4-dense"),
            "encode-wide": ("q16-real", "q16-raw"),
            "repro": ("repro",),
        }
        with _folder() as folder:
            for name, kinds in picks.items():
                spec, ctx, ops = _round0(name, 3, folder)
                if name == "repro":
                    warmup = spec.make_warmup(ctx)
                    self.assertIsNone(warmup.check(warmup.call(), None))
                for kind in kinds:
                    op = next(op for op in ops if op.kind == kind)
                    client = run.Client()
                    client.execute(op)
                    self.assertEqual(client.failures, [], kind)
                    op.expect = _tampered(op, op.oracle())
                    client.execute(op)
                    self.assertEqual(len(client.failures), 1, kind)


class Tracing(unittest.TestCase):
    def _traced_round(self, name: str, seed: int, folder: str) -> tuple[dict, list]:
        _, _, ops = _round0(name, seed, folder)
        tracer = tracing.Tracer()
        client = run.Client()
        for op in ops:
            try:
                tracing.install(tracer)
                patched = tracer.patched
                client.execute(op, tracer)
            finally:
                tracer.restore()
        self.assertEqual(client.failures, [])
        return tracing.layer_metrics(tracer), patched

    def test_counts_repeat_and_every_name_is_restored(self):
        with _folder() as a, _folder() as b:
            first, patched = self._traced_round("sum-grid", 4, a)
            second, _ = self._traced_round("sum-grid", 4, b)
        counts = [k for k in first if k.endswith((".calls", ".created", ".ops", ".bytes"))]
        self.assertGreater(first["dictionary.dictionary_circuit.ops"], 0)
        self.assertGreater(first["sim.PhaseLadder-ctrl.calls"], 0)
        self.assertEqual({k: first[k] for k in counts}, {k: second[k] for k in counts})
        self.assertGreater(len(patched), 40)
        for owner, attr, original in patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self.assertIs(current, original, f"{owner}.{attr}")

    def test_spans_record_nothing_while_inactive(self):
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            workloads.encoding.encode_value(3, 1.5)
        finally:
            tracer.restore()
        self.assertEqual(tracer.spans, [])
        self.assertEqual(dict(tracer.counts), {})


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(declared, run.END_TO_END)
        layer = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(layer, run.per_layer_names())
        self.assertEqual([m["unit"] for m in spec["per_layer"]], [run.unit_of(n) for n in layer])


if __name__ == "__main__":
    unittest.main()
