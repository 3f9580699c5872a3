"""Built-in reference cases and the regression runner behind ``qinterp repro``.

Each case recomputes one reference number and compares it against the
expected value at a fixed tolerance.  Cases tagged ``reported`` carry values
published for this method; ``derived`` cases are frozen outputs of the
classical oracles in this repository.  Informational rows (hardware
measurements, an ambiguous scaled-integer variant) are printed for reference
and never asserted.
"""

from __future__ import annotations

import fnmatch
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import dictionary, patterns, stateio, svgchart
from .dictionary import BinaryPolynomial
from .encoding import encode_value, encode_value_real
from .kernels import EncodingDomain, SampledSignal, classical_interpolate
from .patterns import (
    direct_weighted_identity_sum,
    generalized_inner_product,
    kernel_double_sum,
    lambda_function,
    lambda_norm,
    nu2_function,
    prepare_lambda,
    prepare_nu2,
    quantum_interpolate,
    quantum_interpolate_sweep,
    weighted_sum,
)
from .sim import Circuit, HadamardLayer, RegisterLayout, StatePrep

# Three-variable demo polynomial of the reference weighted-sum cases.
# Variable bit assignment chosen so the published sums reproduce exactly.
DEMO_POLY = BinaryPolynomial(3, {0b000: 0.725, 0b010: 2.451, 0b100: 2.716, 0b101: 1.321})

# Same polynomial with coefficients scaled by 100 and rounded up to integers;
# the constant rounds ambiguously (72.5), the reference value matches 73.
DEMO_POLY_INT100 = BinaryPolynomial(3, {0b000: 73, 0b010: 245, 0b100: 272, 0b101: 132})


def _demo_weights() -> np.ndarray:
    return np.sin(np.arange(8) * np.pi / 8) ** 2


@dataclass(frozen=True)
class ReproCase:
    """One reference computation: recompute, compare, report."""

    case_id: str
    description: str
    run: Callable[[], float]
    expected: float
    tolerance: float | None
    provenance: str
    asserted: bool = True
    note: str = ""


@dataclass(frozen=True)
class ReproResult:
    case: ReproCase
    actual: float

    @property
    def delta(self) -> float:
        return abs(self.actual - self.case.expected)

    @property
    def status(self) -> str:
        if not self.case.asserted:
            return "REF"
        return "PASS" if self.delta <= (self.case.tolerance or 0.0) else "FAIL"


def _interp_nu2() -> patterns.InterpolationResult:
    return quantum_interpolate(prepare_nu2(6), 44.8)


def _interp_lambda() -> patterns.InterpolationResult:
    return quantum_interpolate(prepare_lambda(6), 44.8)


def _demo_unit_vectors() -> tuple[np.ndarray, np.ndarray]:
    """The demo weights and the m=4 identity hash, each scaled to a unit vector."""
    w = _demo_weights()
    h = np.arange(16, dtype=np.float64)
    return w * (1.0 / float(np.linalg.norm(w))), h * (1.0 / float(np.linalg.norm(h)))


def _weighted_amplitude() -> float:
    a, b = _demo_unit_vectors()
    return generalized_inner_product(a, DEMO_POLY, b)


def _weighted_amplitude_oracle_gap(quantum: float) -> float:
    a, b = _demo_unit_vectors()
    return abs(quantum - kernel_double_sum(a, DEMO_POLY, b))


def _recon_sin_worst() -> float:
    xs = np.arange(8) * (2.0 * math.pi / 8)
    signal = SampledSignal(np.sin(xs), 2.0 * math.pi)
    grid = (np.arange(97) + 0.3) * (2.0 * math.pi / 98)
    recon = classical_interpolate(signal, grid)
    return max(abs(r - math.sin(t)) for t, r in zip(grid, recon))


def build_cases() -> list[ReproCase]:
    """The reference cases.  Readouts shared by several cases run once per list, on first use."""
    interp_nu2 = functools.cache(_interp_nu2)
    interp_lambda = functools.cache(_interp_lambda)
    weighted_amplitude = functools.cache(_weighted_amplitude)
    cases = [
        ReproCase(
            "encode-integer",
            "m=3, t=4: single certain outcome",
            lambda: encode_value(3, 4).probability(4),
            1.0,
            1e-12,
            "reported",
        ),
        ReproCase(
            "encode-negative",
            "m=3, t=-4 two's complement lands on outcome 4",
            lambda: encode_value(3, -4, EncodingDomain.TWOS_COMPLEMENT).probability(4),
            1.0,
            1e-12,
            "reported",
        ),
        ReproCase(
            "encode-half-split",
            "m=3, t=4.5: outcomes 4 and 5 equally likely",
            lambda: abs(encode_value(3, 4.5).probability(4) - encode_value(3, 4.5).probability(5)),
            0.0,
            1e-12,
            "reported",
        ),
        ReproCase(
            "encode-mass-2p7",
            "m=3, t=2.7: probability mass on the two nearest integers",
            lambda: encode_value(3, 2.7).probability(2) + encode_value(3, 2.7).probability(3),
            0.8790570616660788,
            1e-9,
            "derived",
        ),
        ReproCase(
            "interp-nu2",
            "squared-sine state, m=6, t=44.8: readout amplitude",
            lambda: interp_nu2().quantum_value,
            0.1336,
            5e-4,
            "reported",
        ),
        ReproCase(
            "interp-nu2-vs-classical",
            "same readout against the kernel-sum oracle",
            lambda: interp_nu2().deviation,
            0.0,
            1e-9,
            "derived",
        ),
        ReproCase(
            "interp-lambda-classical",
            "identity state, m=6, t=44.8: kernel-sum value",
            lambda: interp_lambda().classical_value,
            0.1546,
            5e-4,
            "reported",
        ),
        ReproCase(
            "interp-lambda-vs-classical",
            "exact-loader readout equals the kernel sum",
            lambda: interp_lambda().deviation,
            0.0,
            1e-9,
            "derived",
        ),
        ReproCase(
            "interp-lambda-heuristic-gap",
            "exact-loader readout near the published heuristic-loader 0.1533",
            lambda: interp_lambda().quantum_value,
            0.1533,
            2e-3,
            "reported",
            note="tolerance widened: the published run used a heuristic state loader",
        ),
        ReproCase(
            "lambda-normalization",
            "normalization factor sqrt(sum k^2) for m=6",
            lambda: lambda_norm(6),
            292.137,
            1e-3,
            "reported",
        ),
        ReproCase(
            "weighted-amplitude-m4",
            "n=3, m=4 weighted inner product: all-zeros amplitude",
            weighted_amplitude,
            0.0879,
            1e-3,
            "reported",
        ),
        ReproCase(
            "weighted-amplitude-oracle",
            "same amplitude against the kernel double-sum oracle",
            lambda: _weighted_amplitude_oracle_gap(weighted_amplitude()),
            0.0,
            1e-9,
            "derived",
        ),
        ReproCase(
            "weighted-sum-m4",
            "n=3, m=4 rescaled weighted sum",
            lambda: weighted_sum(_demo_weights(), DEMO_POLY, np.arange(16.0))[1],
            15.1555,
            0.2,
            "reported",
        ),
        ReproCase(
            "weighted-sum-direct",
            "classical direct weighted sum of the demo polynomial",
            lambda: direct_weighted_identity_sum(_demo_weights(), DEMO_POLY),
            15.9130,
            1e-3,
            "reported",
        ),
        ReproCase(
            "weighted-sum-m10-scale64",
            "m=10 value register, coefficients scaled by 64",
            lambda: weighted_sum(_demo_weights(), DEMO_POLY.scaled(64), np.arange(1024.0))[1] / 64,
            15.9186,
            5e-2,
            "reported",
        ),
        ReproCase(
            "recon-sin-8-samples",
            "sine from 8 samples: worst reconstruction error on a grid",
            _recon_sin_worst,
            0.0,
            1e-9,
            "derived",
        ),
        ReproCase(
            "ref-denormalized-readout",
            "m=6, t=44.8 readout rescaled by the normalization factor",
            lambda: interp_lambda().quantum_value * lambda_norm(6),
            44.79,
            None,
            "reported",
            asserted=False,
            note="reference only: published value stems from the heuristic loader (0.1533)",
        ),
        ReproCase(
            "ref-integer-scaled-sum",
            "integer coefficients x100 in a 10-qubit register, sum / 100",
            lambda: weighted_sum(_demo_weights(), DEMO_POLY_INT100, np.arange(1024.0))[1] / 100.0,
            15.94,
            None,
            "reported",
            asserted=False,
            note="reference only: the x100 coefficient rounding is ambiguous (constant 72 vs 73)",
        ),
        ReproCase(
            "ref-hardware-7q-average",
            "published 7-qubit hardware average for the m=6 squared-sine readout",
            lambda: interp_nu2().quantum_value,
            0.1369,
            None,
            "reported",
            asserted=False,
            note="reference only: hardware noise is out of scope for this simulator",
        ),
        ReproCase(
            "ref-hardware-7q-best",
            "published 7-qubit hardware best run",
            lambda: interp_nu2().quantum_value,
            0.1342,
            None,
            "reported",
            asserted=False,
            note="reference only: hardware noise is out of scope for this simulator",
        ),
        ReproCase(
            "ref-hardware-16q-average",
            "published 16-qubit hardware average for the m=6 identity readout",
            lambda: interp_lambda().quantum_value,
            0.1347,
            None,
            "reported",
            asserted=False,
            note="reference only: hardware noise is out of scope for this simulator",
        ),
        ReproCase(
            "ref-hardware-16q-best",
            "published 16-qubit hardware best run",
            lambda: interp_lambda().quantum_value,
            0.1541,
            None,
            "reported",
            asserted=False,
            note="reference only: hardware noise is out of scope for this simulator",
        ),
    ]
    return cases


def run_cases(filter_glob: str | None = None) -> list[ReproResult]:
    cases = build_cases()
    if filter_glob:
        cases = [c for c in cases if fnmatch.fnmatch(c.case_id, filter_glob)]
    results = [ReproResult(case, float(case.run())) for case in cases]
    results.sort(key=lambda r: r.case.case_id)
    return results


def format_report(results: list[ReproResult]) -> str:
    header = f"{'case':34} {'expected':>14} {'actual':>14} {'|delta|':>12} {'tol':>9} {'status':>6}"
    lines = [header, "-" * len(header)]
    for r in results:
        tol = f"{r.case.tolerance:.1e}" if r.case.tolerance is not None else "-"
        lines.append(
            f"{r.case.case_id:34} {r.case.expected:>14.9g} {r.actual:>14.9g} "
            f"{r.delta:>12.3e} {tol:>9} {r.status:>6}"
        )
        if r.case.note:
            lines.append(f"{'':34}   {r.case.note}")
    counts = {"PASS": 0, "FAIL": 0, "REF": 0}
    for r in results:
        counts[r.status] += 1
    lines.append("-" * len(header))
    lines.append(f"{counts['PASS']} passed, {counts['FAIL']} failed, {counts['REF']} reference-only")
    return "\n".join(lines) + "\n"


def _reconstruction_table(fn, num_samples: int, period: float, grid: int) -> list[np.ndarray]:
    """Columns t, exact, reconstructed and abs_error of a reconstruction on ``grid`` points."""
    xs = np.arange(num_samples) * (period / num_samples)
    signal = SampledSignal(fn(xs), period)
    ts = np.arange(grid) * period / grid
    recon = classical_interpolate(signal, ts)
    exact = fn(ts)
    return [ts, exact, recon, np.abs(recon - exact)]


def write_artifacts(directory: str | Path) -> list[Path]:
    """Regenerate the chart and sweep files for all showcase states."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, text: str):
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)

    for tag, t in (("int", 4.0), ("frac", 2.7), ("half", 4.5)):
        emit(f"encode_{tag}.svg", svgchart.render_state_svg(encode_value(3, t)))
        emit(f"encode_{tag}_real.svg", svgchart.render_state_svg(encode_value_real(3, t)))

    linear_poly = BinaryPolynomial(2, {0: 1.2, 1: 0.4, 2: 0.8})
    layout = RegisterLayout(2, 3)
    for name, corrected in (("dict_linear.svg", False), ("dict_linear_real.svg", True)):
        circuit = dictionary.dictionary_circuit(layout, linear_poly, phase_corrected=corrected)
        emit(name, svgchart.render_state_svg(circuit.state(), layout))

    demo_layout = RegisterLayout(3, 4)
    keys, values = demo_layout.key_register, demo_layout.value_register
    encoder = dictionary.dictionary_circuit(
        demo_layout, DEMO_POLY, phase_corrected=True, prepare_keys=False
    )
    weighted_keys = Circuit(7, (StatePrep(keys, patterns.nu2_amplitudes(3)), *encoder.ops))
    value_profile = Circuit(7, (HadamardLayer(keys), StatePrep(values, patterns.lambda_amplitudes(4))))
    for name, circuit in (
        ("dict_weighted_keys.svg", weighted_keys),
        ("value_weight_profile.svg", value_profile),
    ):
        emit(name, svgchart.render_state_svg(circuit.state(), demo_layout))

    for name, prep, exact_fn in (
        ("sweep_nu2.csv", prepare_nu2, nu2_function),
        ("sweep_lambda.csv", prepare_lambda, lambda_function),
    ):  # readout at every quarter step of the 6-qubit unsigned domain
        sweep = quantum_interpolate_sweep(prep(6), 0.0, 64.0, 256, exact_fn=exact_fn(6))
        emit(name, stateio.sweep_to_csv(sweep))

    header = ["t", "exact", "reconstructed", "abs_error"]
    for name, fn, samples, period in (
        ("recon_sin.csv", np.sin, 8, 2 * math.pi),
        ("recon_sin2.csv", lambda x: np.sin(x) ** 2, 8, 2 * math.pi),
        ("recon_linear.csv", lambda x: x, 32, 1.0),
        ("recon_exp.csv", np.exp, 32, 1.0),
    ):
        emit(name, stateio.table_to_csv(header, _reconstruction_table(fn, samples, period, 256)))
    return written
