"""Each simulator operation timed alone, next to numpy floors on the same buffer.

For a random ``q``-qubit state the seven operation kinds run once each per
repetition, and beside them three floors that bound what any rewrite of those
kinds can reach on this buffer: ``fft`` (``np.fft.fft`` along the register
axis), ``scale`` (one in-place complex multiply by a full-length diagonal) and
``copy`` (one full-state copy into a preallocated buffer).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from qinterp import sim

from tracer import SIM_KINDS

WIDTHS = (16, 20)
FLOORS = ("fft", "scale", "copy")
MAX_REPS = 5
TARGET_S = 0.3


def _ops(q: int, rng: np.random.Generator) -> dict[str, sim.Operation]:
    whole = sim.Register(0, q)
    target = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
    return {
        "HadamardLayer": sim.HadamardLayer(whole),
        "PhaseLadder": sim.PhaseLadder(whole, 0.3),
        "PhaseLadder-ctrl": sim.PhaseLadder(sim.Register(0, q - 2), 0.3, (q - 2, q - 1)),
        "ControlledPhase": sim.ControlledPhase((0, q - 1), math.pi / 4),
        "DiagonalPhase": sim.DiagonalPhase(whole, rng.uniform(0, 2 * math.pi, size=1 << q)),
        "QftGate": sim.QftGate(whole, inverse=True),
        "StatePrep": sim.StatePrep(whole, target / np.linalg.norm(target)),
    }


def _median_ms(fn) -> float:
    """Median of up to MAX_REPS calls, stopping once TARGET_S has been spent."""
    samples = []
    while len(samples) < MAX_REPS and sum(samples) < TARGET_S:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def layer_table(seed: int) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for q in WIDTHS:
        rng = np.random.default_rng((seed, q))
        amps = rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)
        state = sim.StateVector(q, amps / np.linalg.norm(amps))
        for kind, op in _ops(q, rng).items():
            metrics[f"layer.{kind}.q{q}_ms"] = _median_ms(lambda: op.apply(state))
        buffer = state.amplitudes.copy()
        diagonal = np.exp(1j * rng.uniform(0, 2 * math.pi, size=1 << q))
        view = state.amplitudes.reshape(-1, 1 << q, 1)
        floors = {
            "fft": lambda: np.fft.fft(view, axis=1),
            "scale": lambda: np.multiply(buffer, diagonal, out=buffer),
            "copy": lambda: np.copyto(buffer, state.amplitudes),
        }
        for name in FLOORS:
            metrics[f"floor.{name}.q{q}_ms"] = _median_ms(floors[name])
    return metrics


def metric_names() -> list[str]:
    return [f"layer.{k}.q{q}_ms" for q in WIDTHS for k in SIM_KINDS] + [
        f"floor.{f}.q{q}_ms" for q in WIDTHS for f in FLOORS
    ]
