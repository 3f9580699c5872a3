"""Spans around the calls into qinterp's modules, for the traced run only.

:func:`install` patches qinterp's public names where their callers look them
up: a module-level function is replaced in every module that imported it, and
each ``Operation`` subclass's ``apply`` is replaced on the class.
:meth:`Tracer.restore` puts every original back, so untraced runs measure
unpatched code.  Spans stay in memory as ``[label, parent, start_ns, end_ns,
work]`` and are written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SIM_KINDS = (
    "HadamardLayer",
    "PhaseLadder",
    "PhaseLadder-ctrl",
    "ControlledPhase",
    "DiagonalPhase",
    "QftGate",
    "StatePrep",
)

ROOT_SPAN = "bench.op"  # the benchmark's span around each op


class Tracer:
    """Records nested spans and plain counters while ``active`` is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, label: str) -> list:
        record = [label, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list):
        record[3] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        record = self._open(label)
        try:
            yield record
        finally:
            self._close(record)

    def timed(self, fn, label, work=None):
        """Wrap ``fn`` in a span; ``label`` may be a function of the call's args."""
        label_of = label if callable(label) else (lambda args: label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = self._open(label_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[4] = work(args, result)
            return result

        return traced

    def counted(self, fn, name, amount=None):
        """Wrap ``fn`` to bump counters only: for calls too many and too small to span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.counts[f"{name}.calls"] += 1
                if amount is not None:
                    self.counts[f"{name}.bytes"] += amount(args)
            return result

        return counting

    def patch(self, owner, attr: str, wrap):
        """Replace ``owner.attr`` with ``wrap(original)``; undone by :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._saved)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record[1] >= 0:
            children[record[1]].append((record[2], record[3]))
    result = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result.append(end - start - covered)
    return result


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per label: ``calls``, ``self_s`` and summed ``work``."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": 0})
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table[record[0]]
        row["calls"] += 1
        row["self_s"] += own / 1e9
        row["work"] += record[4]
    return dict(table)


def write_spans(tracer: Tracer, path: Path):
    """One JSON array per line: id, parent id, label, start ns, end ns, self ns, work."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        out.write(json.dumps(["id", "parent", "label", "start_ns", "end_ns", "self_ns", "work"]) + "\n")
        for index, (record, own) in enumerate(zip(tracer.spans, self_times(tracer.spans))):
            label, parent, start, end, work = record
            out.write(json.dumps([index, parent, label, start, end, own, work]) + "\n")


def _state_bytes(args, result) -> int:
    # computed, not measured: one complex128 read and one write per amplitude
    return 32 * args[1].dim


def _text_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def _op_count(args, result) -> int:
    return len(result.ops)


def _ladder_label(args) -> str:
    return "sim.PhaseLadder-ctrl" if args[0].controls else "sim.PhaseLadder"


def install(tracer: Tracer):
    """Patch every traced name of qinterp.  Call ``tracer.restore()`` afterwards."""
    from qinterp import cli, dictionary, encoding, kernels, patterns, repro, sim, stateio, svgchart

    def timed(label, work=None):
        return lambda fn: tracer.timed(fn, label, work)

    for kind in ("HadamardLayer", "ControlledPhase", "DiagonalPhase", "QftGate", "StatePrep"):
        tracer.patch(getattr(sim, kind), "apply", timed(f"sim.{kind}", _state_bytes))
    tracer.patch(sim.PhaseLadder, "apply", timed(_ladder_label, _state_bytes))
    tracer.patch(sim.Circuit, "apply", timed("sim.Circuit.apply"))
    tracer.patch(
        sim.StateVector,
        "__post_init__",
        lambda fn: tracer.counted(fn, "sim.StateVector", lambda args: args[0].amplitudes.nbytes),
    )
    tracer.patch(
        dictionary.BinaryPolynomial, "evaluate", lambda fn: tracer.counted(fn, "dictionary.evaluate")
    )

    # (label, work, [(module whose globals the caller reads, name), ...])
    sites = [
        ("cli.main", None, [(cli, "main")]),
        ("encoding.build", None, [
            (encoding, "value_encoding_circuit"), (encoding, "phase_correction_circuit"),
            (encoding, "real_encoding_circuit"), (patterns, "real_encoding_circuit"),
        ]),
        ("encoding.encode", None, [
            (encoding, "encode_value"), (encoding, "encode_value_real"),
            (cli, "encode_value"), (cli, "encode_value_real"),
            (repro, "encode_value"), (repro, "encode_value_real"),
        ]),
        ("kernels.fejer_kernel_row", None, [(kernels, "fejer_kernel_row"), (patterns, "fejer_kernel_row")]),
        ("kernels.classical_interpolate", None, [
            (kernels, "classical_interpolate"), (repro, "classical_interpolate"),
        ]),
        ("dictionary.validate_values", None, [(dictionary, "validate_values")]),
        ("dictionary.dictionary_circuit", _op_count, [
            (dictionary, "dictionary_circuit"), (patterns, "dictionary_circuit"),
        ]),
        ("dictionary.parse_polynomial", None, [(dictionary, "parse_polynomial"), (cli, "parse_polynomial")]),
        ("patterns.quantum_interpolate", None, [
            (cli, "quantum_interpolate"), (repro, "quantum_interpolate"),
        ]),
        ("patterns.prepare", None, [
            (patterns, "prepare_amplitudes"), (cli, "prepare_amplitudes"),
            (cli, "prepare_nu2"), (cli, "prepare_lambda"),
            (repro, "prepare_nu2"), (repro, "prepare_lambda"),
        ]),
        ("patterns.generalized_inner_product", None, [
            (patterns, "generalized_inner_product"), (cli, "generalized_inner_product"),
            (repro, "generalized_inner_product"),
        ]),
        ("patterns.direct_sum", None, [
            (cli, "direct_weighted_sum"), (cli, "direct_weighted_identity_sum"),
            (repro, "direct_weighted_identity_sum"),
        ]),
        ("repro.run_cases", None, [(repro, "run_cases")]),
        ("repro.write_artifacts", None, [(repro, "write_artifacts")]),
        ("svgchart.render_state_svg", _text_bytes, [(svgchart, "render_state_svg"), (cli, "render_state_svg")]),
        ("stateio.sweep_to_csv", _text_bytes, [(stateio, "sweep_to_csv"), (cli, "sweep_to_csv")]),
        ("stateio.table_to_csv", _text_bytes, [(stateio, "table_to_csv")]),
    ]  # fmt: skip
    for label, work, lookups in sites:
        for module, name in lookups:
            tracer.patch(module, name, timed(label, work))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the traced pass, by metric name."""
    table = summarize(tracer)

    def row(label):
        return table.get(label, {"calls": 0, "self_s": 0.0, "work": 0})

    metrics: dict[str, float] = {}
    for kind in SIM_KINDS:
        stats = row(f"sim.{kind}")
        metrics[f"sim.{kind}.calls"] = stats["calls"]
        metrics[f"sim.{kind}.self_s"] = stats["self_s"]
        metrics[f"sim.{kind}.bytes"] = stats["work"]
    metrics["sim.StateVector.created"] = tracer.counts["sim.StateVector.calls"]
    metrics["sim.StateVector.bytes"] = tracer.counts["sim.StateVector.bytes"]
    for label, stats in (
        ("sim.Circuit.apply", ("calls", "self_s")),
        ("encoding.build", ("calls", "self_s")),
        ("kernels.fejer_kernel_row", ("calls",)),
        ("patterns.quantum_interpolate", ("self_s",)),
        ("patterns.prepare", ("self_s",)),
    ):
        for stat in stats:
            metrics[f"{label}.{stat}"] = row(label)[stat]
    metrics["dictionary.evaluate.calls"] = tracer.counts["dictionary.evaluate.calls"]
    for label in ("dictionary.validate_values", "dictionary.dictionary_circuit"):
        metrics[f"{label}.self_s"] = row(label)["self_s"]
    metrics["dictionary.dictionary_circuit.ops"] = row("dictionary.dictionary_circuit")["work"]
    for label in (
        "dictionary.parse_polynomial",
        "patterns.generalized_inner_product",
        "patterns.direct_sum",
        "cli.main",
        "repro.run_cases",
        "repro.write_artifacts",
    ):
        metrics[f"{label}.self_s"] = row(label)["self_s"]
    svg = row("svgchart.render_state_svg")
    metrics["svgchart.render_state_svg.calls"] = svg["calls"]
    metrics["svgchart.render_state_svg.self_s"] = svg["self_s"]
    metrics["svgchart.render_state_svg.bytes"] = svg["work"]
    metrics["stateio.sweep_to_csv.self_s"] = row("stateio.sweep_to_csv")["self_s"]
    metrics["stateio.table_to_csv.self_s"] = row("stateio.table_to_csv")["self_s"]
    metrics["stateio.csv.bytes"] = row("stateio.sweep_to_csv")["work"] + row("stateio.table_to_csv")["work"]
    classical = row("kernels.classical_interpolate")
    metrics["kernels.classical_interpolate.calls"] = classical["calls"]
    metrics["kernels.classical_interpolate.self_s"] = classical["self_s"]
    metrics["bench.other_s"] = row(ROOT_SPAN)["self_s"]
    return metrics
