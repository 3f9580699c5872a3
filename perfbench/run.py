"""Benchmark of qinterp's user-facing paths: one closed-loop client, seeded inputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sum-grid --seed 1 --seconds 28 --trace 0

With ``--trace 0`` it runs the workload's rounds of ops until the measuring
phase would pass ``--seconds`` of wall time (at least ``min_rounds`` rounds),
checks every op against its oracle and reports the end-to-end metrics, each
op's latency normalised to the nominal core speed of ``speed.py``.  With ``--trace 1`` it
runs round 0 once untraced and once traced, and reports the per-layer
metrics, the tracing overhead and the layer table.  The last line of standard
output is one JSON object; the exit code is 0 only when every op passed.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

WORKLOADS = ("readout-sweep", "sum-grid", "encode-wide", "repro")
SETUP_SAMPLES = 7  # this process plus six fresh processes, taken between rounds
WALL_LIMIT_S = 140.0  # stop starting rounds so the run ends well inside 180 s
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    for p in PERCENTILE_LADDER:
        if samples * round(1000 - 10 * p) >= 10_000:
            return p
    raise ValueError(f"{samples} samples leave fewer than ten beyond the median")


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def per_layer_names() -> list[str]:
    import layers

    return [*tracing.layer_metrics(tracing.Tracer()), "trace.overhead_frac", *layers.metric_names()]


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pools": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup(workload: str, seed: int):
    """Import qinterp, generate round 0 and run one warm-up op; return the pieces.

    The set-up time is normalised by the compact speed probes of a
    ``speed.Meter`` around the part after the imports (the probe needs numpy,
    whose import is part of the set-up).
    """
    start = time.perf_counter()
    import speed  # imports numpy
    import workloads  # imports qinterp

    imports_s = time.perf_counter() - start
    with speed.Meter() as meter:
        spec = workloads.make_workloads()[workload]
        ctx = workloads.Context(seed, WORK / f"{workload}-s{seed}-p{os.getpid()}")
        round0 = spec.make_round(ctx, 0)
        warmup = spec.make_warmup(ctx)
        output = warmup.call()
    elapsed = (imports_s + meter.latency_s) * meter.factor
    return elapsed, spec, ctx, round0, warmup, output


def probe_setup(args) -> float:
    """Normalised set-up time of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )  # fmt: skip
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Client:
    """The closed-loop client: runs one op at a time and keeps the record.

    With ``probe`` set, the core speed is probed right before and right after
    each op and sampled while it runs (``speed.Meter``); ``factors`` holds
    each op's mean speed factor, and its latency leaves out the sampling.
    """

    def __init__(self, probe: bool = False):
        self.probe = probe
        if probe:
            import speed  # imports numpy, after the thread-pool variables are set

            self.speed = speed
        self.latencies: list[float] = []
        self.factors: list[float] = []
        self.samples: list[int] = []  # speed samples per op, the two probes included
        self.kinds: list[str] = []
        self.failures: list[str] = []

    def execute(self, op, tracer=None) -> float:
        """Run one op; its oracle is computed first and released after the check."""
        if op.expect is None:
            op.expect = op.oracle()
        reason = None
        meter = self.speed.Meter(op.mixed_probe) if self.probe else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with meter:
                if tracer is None:
                    output = op.call()
                else:
                    tracer.active = True
                    with tracer.span(tracing.ROOT_SPAN):
                        output = op.call()
        except Exception as exc:  # a failed op is recorded, the run goes on
            reason = f"raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.active = False
        latency = time.perf_counter() - start
        if self.probe:
            latency = meter.latency_s
            self.factors.append(meter.factor)
            self.samples.append(len(meter.factors))
        if reason is None:
            try:
                reason = op.check(output, op.expect)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        op.expect = None
        if op.cleanup is not None:
            op.cleanup()
        self.latencies.append(latency)
        self.kinds.append(op.kind)
        if reason is not None:
            self.failures.append(f"{op.kind}: {reason}")
            print(f"FAILED {op.kind}: {reason}", file=sys.stderr)
        return latency


def measure(client: Client, spec, ctx, round0, seconds: float, started: float,
            between_rounds) -> int:
    """Run whole rounds until the next one would end past ``seconds`` of wall time."""
    begun = time.monotonic()
    rounds = 0
    while rounds < spec.min_rounds or (time.monotonic() - begun) * (rounds + 1) / rounds <= seconds:
        if time.monotonic() - started > WALL_LIMIT_S:
            print(f"stopped after {rounds} rounds at the wall-time limit", file=sys.stderr)
            break
        ops = round0 if rounds == 0 else spec.make_round(ctx, rounds)
        for op in ops:
            client.execute(op)
        ctx.drop_round(rounds)
        rounds += 1
        between_rounds()
    return rounds


def end_to_end(client: Client, spec, rounds: int, setups: list[float]) -> tuple[dict, dict]:
    import numpy as np

    wall = np.asarray(client.latencies)
    normalised = wall * np.asarray(client.factors)
    round_size = len(wall) // rounds
    passed = 1.0 - len(client.failures) / len(wall)
    tail_p = tail_percentile(round_size * spec.min_rounds)

    def statistics_of(latencies) -> dict:
        return {
            "ops_per_s": len(latencies) * passed / float(np.sum(latencies)),
            "op_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
            "op_tail_ms": float(np.percentile(latencies, tail_p)) * 1e3,
        }

    values = {
        **statistics_of(normalised),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    details = {
        "ops": len(wall),
        "rounds": rounds,
        "tail_percentile": tail_p,
        "setup_samples_s": setups,
        "busy_s": float(wall.sum()),
        "wall_clock": statistics_of(wall),
        "speed_factor": {
            "median": float(np.median(client.factors)),
            "min": float(np.min(client.factors)),
            "max": float(np.max(client.factors)),
        },
        "fail_frac": len(client.failures) / len(wall),
        "op_log": [
            {"kind": k, "wall_ms": x * 1e3, "speed_factor": f, "speed_samples": n}
            for k, x, f, n in zip(client.kinds, client.latencies, client.factors, client.samples)
        ],
    }
    return values, details


def traced_run(client: Client, spec, ctx, round0, seed: int) -> tuple[dict, dict]:
    import layers

    # Each op runs once untraced and once traced, which goes first alternating
    # from op to op, so both passes see the same machine conditions.
    untraced = traced = 0.0
    tracer = tracing.Tracer()
    for i, op in enumerate(round0):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_turn:
                untraced += client.execute(op)
                continue
            try:
                tracing.install(tracer)
                traced += client.execute(op, tracer)
            finally:
                tracer.restore()
    ctx.drop_round(0)
    values = tracing.layer_metrics(tracer)
    values["trace.overhead_frac"] = 1.0 - untraced / traced
    values.update(layers.layer_table(seed))
    spans_file = RESULTS / f"spans-{spec.name}-seed{seed}.jsonl"
    tracing.write_spans(tracer, spans_file)
    details = {
        "ops_per_pass": len(round0),
        "untraced_s": untraced,
        "traced_s": traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "bytes_note": "sim.<kind>.bytes is computed as 32 B x state dim per call, not measured",
    }
    return values, details


def report(args, env, values: dict, details: dict, client: Client, names: list[str]) -> int:
    metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in names}
    correct = not client.failures
    record = {"environment": env, "details": details, "metrics": metrics, "failures": client.failures}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    attempted = len(client.latencies)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {env['commit']}")
    print(f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  threads 1")
    for name in names:
        print(f"  {name:42} {values[name]:.6g} {unit_of(name)}")
    print(f"  {'fail_frac':42} {len(client.failures) / attempted:.6g} ({len(client.failures)} of {attempted} ops)")
    if args.trace == 0:
        factor = details["speed_factor"]
        print(
            f"  op_tail_ms is p{details['tail_percentile']:g} of {attempted} ops in {details['rounds']} rounds; "
            f"latencies at nominal core speed (probe factor median {factor['median']:.3f}, "
            f"range {factor['min']:.3f}-{factor['max']:.3f})"
        )
        clock = details["wall_clock"]
        print("  wall clock: " + "  ".join(f"{k} {v:.6g}" for k, v in clock.items()))
    print(f"  results written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(client.failures), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed &= (1 << 64) - 1  # numpy seeds must be non-negative
    started = time.monotonic()

    if not (SRC / "qinterp" / "__init__.py").is_file():
        print(f"error: no qinterp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, spec, ctx, round0, warmup, output = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        client = Client(probe=not args.trace)
        warmup.expect = warmup.oracle()
        reason = warmup.check(output, warmup.expect)
        if reason is not None:
            print(f"error: warm-up op failed: {reason}", file=sys.stderr)
            return 1
        env = environment(args)
        if args.trace:
            values, details = traced_run(client, spec, ctx, round0, args.seed)
            names = per_layer_names()
        else:
            # Fresh set-ups run one after each round, spread over the run.
            setups = [setup_s]

            def probe():
                if len(setups) < SETUP_SAMPLES:
                    setups.append(probe_setup(args))

            rounds = measure(client, spec, ctx, round0, args.seconds, started, probe)
            while len(setups) < SETUP_SAMPLES:
                setups.append(probe_setup(args))
            values, details = end_to_end(client, spec, rounds, setups)
            names = list(END_TO_END)
        return report(args, env, values, details, client, names)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
