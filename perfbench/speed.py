"""Core speed probe: fixed kernels of the benchmark's own, timed next to each op.

The measuring VM shares its physical cores with other tenants.  Their load
slows the core by up to about 2x, in phases that last from a second to many
minutes, so two runs of the same code can differ by that much even when each
keeps only its fastest ops.  A probe is a fixed kernel that does the kinds of
work qinterp's ops do, timed right before and right after every op; the op's
latency is then scaled to what it would have been on a core running the
probe at its nominal speed.  None of the probe calls qinterp, so a change to
the program does not change the probe.

There are two probe mixes:

- ``compact``: an interpreter loop with dict updates, frozen-dataclass and
  string-formatting work, many numpy calls on 16-element arrays (dispatch
  cost) and elementwise complex numpy on a 4096-amplitude buffer.  Sweeps of
  small registers, small encodes, repro and set-up are Python- and
  cache-bound like this.
- ``mixed``: ``compact`` plus two copies of an 8 MiB buffer.  Ops that pass
  over states beyond the 2 MiB L2 slow less than the compact mix when the
  core is shared; on the development VM the slowdown of sum-grid cells and
  encodes whose state has 18 qubits or more tracked this mix more closely.

``speed_factor`` is ``nominal / probe_s``: 1.0 on a core as quiet as the one
the constants were taken on, below 1.0 on a slowed core.

An op can last longer than a phase of the host's load, so :class:`Meter`
also samples the speed while the op runs: a timer signal interrupts it every
``SAMPLE_INTERVAL_S`` to run one kernel, and the time spent in those samples
is taken out of the op's latency.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np

# Probe times on a quiet core of the 2-vCPU Xeon VM (Python 3.11.7, numpy
# 2.4.6) the benchmark was written on.  They only set the scale of the
# normalised figures: any fixed values would do.
NOMINAL_S = {False: 3.0e-3, True: 4.5e-3}  # keyed by ``mixed``
REPEATS = 2  # a probe is the fastest of this many kernel runs
SAMPLE_INTERVAL_S = 0.1  # wall time between two speed samples inside an op

_SMALL = 1 << 12
_rng = np.random.default_rng(12345)
_small = (_rng.normal(size=_SMALL) + 1j * _rng.normal(size=_SMALL)) / 64
_small_idx = np.arange(_SMALL)
_tiny = _rng.normal(size=16) + 0j
_tiny_idx = np.arange(16)
_stream: list[np.ndarray] = []  # two 8 MiB buffers, allocated on first use


@dataclass(frozen=True)
class _Record:
    key: int
    value: float
    pair: tuple


def _interpreter(n: int) -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(n):
        total += abs(i * 7 - total) % 13
        table[i & 63] = total
    return total + len(table)


def _records(n: int) -> int:
    rows = []
    for i in range(n):
        record = _Record(i, i * 0.5, (i, i + 1))
        rows.append(f"{record.key},{record.value!r},{record.pair[0]:.9g}")
    return len(",".join(rows))


def _dispatch(n: int) -> complex:
    amps = _tiny
    for r in range(n):
        mask = (_tiny_idx >> (r & 3)) & 1 == 1
        amps = amps * np.where(mask, np.exp(1j * r), 1.0)
        np.arange(16)
    return complex(amps[0])


def _elementwise(rounds: int) -> complex:
    amps = _small.copy()
    for r in range(rounds):
        mask = (_small_idx >> (r % 8)) & 1 == 1
        amps *= np.where(mask, np.exp(0.1j * (r + 1)), 1.0)
        amps = amps.reshape(2, -1)[::-1].reshape(-1)
    return complex(amps[1])


def _copies(n: int) -> None:
    if not _stream:
        _stream.extend([np.ones(1 << 20), np.zeros(1 << 20)])
    for _ in range(n):
        np.copyto(_stream[1], _stream[0])


def kernel(mixed: bool) -> None:
    _interpreter(4000)
    _records(400)
    _dispatch(80)
    _elementwise(25)
    if mixed:
        _copies(2)


def probe(mixed: bool = False) -> float:
    """Seconds of one kernel run: the fastest of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel(mixed)
        best = min(best, time.perf_counter() - start)
    return best


def speed_factor(probe_s: float, mixed: bool = False) -> float:
    return NOMINAL_S[mixed] / probe_s


class Meter:
    """Times one call and the core speed around and during it.

    ``latency_s`` is the call's wall time less the time spent sampling, and
    ``factor`` the mean speed factor of the probes before and after the call
    and the samples taken while it ran.
    """

    def __init__(self, mixed: bool = False):
        self.mixed = mixed
        self.factors: list[float] = []
        self.latency_s = 0.0
        self.factor = 1.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel(self.mixed)
        elapsed = time.perf_counter() - start
        self.factors.append(speed_factor(elapsed, self.mixed))
        self._paused += time.perf_counter() - start

    def __enter__(self):
        self.factors = [speed_factor(probe(self.mixed), self.mixed)]
        self._paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.latency_s = time.perf_counter() - self._start - self._paused
        signal.signal(signal.SIGALRM, self._previous)
        self.factors.append(speed_factor(probe(self.mixed), self.mixed))
        self.factor = sum(self.factors) / len(self.factors)
        return False
