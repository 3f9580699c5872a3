"""Interpolated readout patterns.

Two readout schemes built on the encoders:

* scalar interpolation -- overlap of a function state with the real-amplitude
  kernel state, read as the all-zeros amplitude after undoing the function
  preparation; a sweep reads a power-of-two block of points from one
  phase-corrected dictionary whose keys index the points;
* generalized inner products -- a weighted key register, the phase-corrected
  dictionary, and an undone value-register weight state; the all-zeros
  amplitude equals a kernel-weighted double sum, which rescales to weighted
  sums of hashed function values.

Every quantum number here has a classical companion computed directly from
the kernel: the readouts' from its trigonometric sum
(:func:`~qinterp.kernels.kernel_sums`), the double sum's from its rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dictionary import BinaryPolynomial, _power_of_two_width, dictionary_circuit
from .encoding import real_encoding_circuit
from .errors import CapacityError, DomainError, NormalizationError, ValueRangeError
from .kernels import (
    INTEGER_TOLERANCE,
    EncodingDomain,
    domain_bounds,
    fejer_kernel_row,
    kernel_sums,
    normalize_to_domain,
)
from .sim import MAX_QUBITS, Circuit, HadamardLayer, Register, RegisterLayout, StatePrep

IMAG_WARNING_THRESHOLD = 1e-8

# Most points one sweep reads.  A point is a few float64 entries of the sweep's
# columns, and in the CLI its CSV fields as Python floats and text: about 300
# bytes at peak in a CLI sweep, so the cap keeps a sweep near 80 MB.  Larger
# counts are refused before any point is built.
MAX_SWEEP_STEPS = 1 << 18


@dataclass(frozen=True)
class InterpolationResult:
    """Quantum readout next to its classical companions.

    ``imag_residual`` is the magnitude of the readout amplitude's imaginary
    part, on the scale of ``quantum_value``; phase correction makes it zero
    up to round-off.
    """

    quantum_value: float
    classical_value: float
    exact_value: float | None = None
    imag_residual: float = 0.0

    @property
    def deviation(self) -> float:
        return abs(self.quantum_value - self.classical_value)


@dataclass(frozen=True, eq=False)
class Sweep:
    """The readouts of a sweep, one array entry per point.

    ``t`` holds the points, and ``quantum``, ``classical`` and
    ``imag_residual`` what :class:`InterpolationResult` holds for each;
    ``exact`` is None when the sweep had no exact function.
    """

    t: np.ndarray
    quantum: np.ndarray
    classical: np.ndarray
    exact: np.ndarray | None
    imag_residual: np.ndarray


def _warn_imag_residual(residual: float, label: str, stacklevel: int = 3):
    if residual > IMAG_WARNING_THRESHOLD:
        warnings.warn(
            f"{label} has imaginary part {residual:.3e}; phase correction may be broken",
            stacklevel=stacklevel,
        )


def prepare_amplitudes(target) -> Circuit:
    """Exact loader for an arbitrary unit vector of power-of-two length."""
    amps = np.asarray(target, dtype=np.complex128)
    width = _power_of_two_width(amps.size, "target")
    return Circuit(width, (StatePrep(Register(0, width), amps),))


def nu2_amplitudes(width: int) -> np.ndarray:
    """Squared-sine profile ``sqrt(8 / 3M) sin^2(k pi / M)``, normalized.

    The closed-form constant is exact for M >= 4; for M = 2 the profile is
    normalized explicitly.
    """
    modulus = 1 << width
    profile = np.sqrt(8.0 / (3.0 * modulus)) * np.sin(np.arange(modulus) * np.pi / modulus) ** 2
    return profile / np.linalg.norm(profile)


def lambda_amplitudes(width: int) -> np.ndarray:
    """Normalized identity profile ``k / sqrt(sum j^2)``."""
    modulus = 1 << width
    ks = np.arange(modulus, dtype=np.float64)
    return ks / np.linalg.norm(ks)


def nu2_function(width: int) -> Callable[[float], float]:
    """The squared-sine function ``sqrt(8 / 3M) sin^2(t pi / M)`` that :func:`nu2_amplitudes` samples."""
    modulus = 1 << width
    return lambda t: math.sqrt(8.0 / (3.0 * modulus)) * math.sin(t * math.pi / modulus) ** 2


def lambda_norm(width: int) -> float:
    """``sqrt(sum k^2)`` over ``k < M``, from the exact integer sum."""
    modulus = 1 << width
    return math.sqrt((modulus - 1) * modulus * (2 * modulus - 1) // 6)


def lambda_function(width: int) -> Callable[[float], float]:
    """The identity function ``t / sqrt(sum k^2)`` that :func:`lambda_amplitudes` samples."""
    norm = lambda_norm(width)
    return lambda t: t / norm


def prepare_nu2(width: int) -> Circuit:
    """Loader for the squared-sine (normal-approximation) state."""
    return prepare_amplitudes(nu2_amplitudes(width))


def prepare_lambda(width: int) -> Circuit:
    """Loader for the normalized identity-function state."""
    return prepare_amplitudes(lambda_amplitudes(width))


def _block_readout(
    function_prep: Circuit, t0: float, step: float, key_width: int, domain: EncodingDomain
) -> np.ndarray:
    """Readout amplitudes of the ``2**key_width`` points ``t0 + b * step``.

    Either way the block is one circuit: the encoder's gates, then the
    adjoint of the function preparation.  A block of one point encodes
    ``t0`` alone and returns the all-zeros entry of the circuit's
    :meth:`~qinterp.sim.Circuit.state`, copied so that the state is not
    kept.  A wider block runs the phase-corrected dictionary of the linear
    polynomial ``t0 + sum_j 2^j step b_j`` on a key register indexing the
    points and reads key ``b``'s all-zeros value amplitude by
    :meth:`~qinterp.sim.Circuit.readout` with the keys kept, rescaled by
    ``sqrt(2**key_width)`` because the keys start in equal superposition.
    """
    width = function_prep.num_qubits
    unprepare = function_prep.adjoint().ops
    if key_width == 0:
        encoder = real_encoding_circuit(width, t0, domain)
        return Circuit(width, encoder.ops + unprepare).state().amplitudes[:1].copy()
    layout = RegisterLayout(key_width, width)
    terms = {0: t0, **{1 << j: (1 << j) * step for j in range(key_width)}}
    encoder = dictionary_circuit(layout, BinaryPolynomial(key_width, terms), domain, phase_corrected=True)
    amplitudes = Circuit(layout.num_qubits, encoder.ops + unprepare).readout(layout, keep_keys=True)
    return math.sqrt(1 << key_width) * amplitudes


def quantum_interpolate_sweep(
    function_prep: Circuit,
    t_start: float,
    t_stop: float,
    steps: int,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
    exact_fn: Callable[[float], float] | None = None,
) -> Sweep:
    """Interpolate the encoded function at ``t_i = t_start + i (t_stop - t_start) / steps``.

    Returns the :class:`Sweep` of the points ``i`` in ``0..steps-1``;
    ``steps`` must be at least 1 and at most ``MAX_SWEEP_STEPS``, and
    ``t_start``, ``t_stop`` and their difference finite (else
    :class:`DomainError`).  The points are checked against the domain as one
    array before any circuit is built; the first point outside it raises the
    error :func:`normalize_to_domain` gives for it.  The points are read in
    power-of-two blocks, taken by the binary decomposition of the remaining
    count: a block of ``2**k`` points is one phase-corrected dictionary
    circuit whose key register is the step index, with ``k`` capped only so
    that key and value registers together stay within ``MAX_QUBITS``.  A
    wider block's readout streams the controlled ladders' phase table, so it
    never builds its full state.  The classical column is the kernel-weighted
    sum of the function samples, read once from the preparation itself:
    :func:`~qinterp.kernels.kernel_sums` takes one FFT of the samples, then
    two ramps of about ``sqrt(M)`` entries per point.  ``exact_fn`` is called
    once per point, with the point as a float.
    """
    if steps < 1:
        raise DomainError("a sweep needs at least one step")
    if steps > MAX_SWEEP_STEPS:
        raise CapacityError(f"a sweep of {steps} steps exceeds the cap of {MAX_SWEEP_STEPS}")
    span = t_stop - t_start
    if not math.isfinite(span):  # also inf or nan when a bound is
        raise DomainError(f"sweep t_start = {t_start} to t_stop = {t_stop} has no finite width")
    with np.errstate(over="ignore"):  # a point past the float range reads inf, which the domain check refuses
        ts = t_start + np.arange(steps) * span / steps
    return _read_points(function_prep, ts, span / steps, domain, exact_fn)


def _read_points(
    function_prep: Circuit,
    ts: np.ndarray,
    step: float,
    domain: EncodingDomain,
    exact_fn: Callable[[float], float] | None,
) -> Sweep:
    """The :class:`Sweep` of the points ``ts``, which lie ``step`` apart.

    The quantum column comes from the block circuits, the classical one from
    :func:`~qinterp.kernels.kernel_sums` over all the points at once.
    """
    width = function_prep.num_qubits
    modulus = 1 << width
    points = ts.tolist()
    lo, hi = domain_bounds(domain, modulus)
    for i in np.flatnonzero(~((lo <= ts) & (ts < hi))):
        # raises for a point outside the domain; one within round-off below 0 passes
        normalize_to_domain(points[i], domain, modulus)

    samples = function_prep.state().amplitudes
    if np.max(np.abs(samples.imag)) > IMAG_WARNING_THRESHOLD:
        warnings.warn("function preparation yields non-real amplitudes", stacklevel=3)

    blocks = []
    start = 0
    while start < len(points):
        key_width = max(0, min((len(points) - start).bit_length() - 1, MAX_QUBITS - width))
        try:
            block = _block_readout(function_prep, points[start], step, key_width, domain)
        except ValueRangeError:
            # Round-off in the block polynomial moved a point that lies within
            # a few ulps of the domain edge across it: read this point alone.
            key_width = 0
            block = _block_readout(function_prep, points[start], step, key_width, domain)
        blocks.append(block)
        start += 1 << key_width
    readout = np.concatenate(blocks)
    classical = kernel_sums(samples.real, ts)
    exact = None if exact_fn is None else np.array([float(exact_fn(t)) for t in points])
    sweep = Sweep(ts, readout.real.copy(), classical, exact, np.abs(readout.imag))
    _warn_imag_residual(float(sweep.imag_residual.max()), "interpolation amplitude", stacklevel=4)
    return sweep


def quantum_interpolate(
    function_prep: Circuit,
    t: float,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
    exact_fn: Callable[[float], float] | None = None,
) -> InterpolationResult:
    """Interpolate the encoded function at ``t`` via a state overlap.

    The quantum value is the real part of the all-zeros amplitude after
    encoding ``t`` and undoing the function preparation; the classical value
    is the kernel-weighted sum of the function samples read from the
    preparation itself.  This is a sweep of the one point ``t``, read into
    an :class:`InterpolationResult`; ``t`` is checked against the domain as
    a sweep's points are.
    """
    # t + 0.0, as a one-step sweep's point formula gives it: -0.0 reads as 0.0
    sweep = _read_points(function_prep, np.array([t + 0.0]), 0.0, domain, exact_fn)
    return InterpolationResult(
        float(sweep.quantum[0]),
        float(sweep.classical[0]),
        None if sweep.exact is None else float(sweep.exact[0]),
        float(sweep.imag_residual[0]),
    )


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm of ``vector``; where its squares overflow it reads inf, without a warning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(vector))


def _unit_vector(vector, what: str) -> np.ndarray:
    """``vector`` as float64, checked to be a unit vector of power-of-two length >= 2."""
    amps = np.asarray(vector, dtype=np.float64)
    _power_of_two_width(amps.size, what)
    norm = _norm(amps)
    if not abs(norm - 1.0) <= 1e-12:  # written so that a NaN norm fails too
        raise NormalizationError(f"{what} norm {norm} is not 1")
    return amps


def generalized_inner_product(
    key_amplitudes,
    poly: BinaryPolynomial,
    value_amplitudes,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
) -> float:
    """All-zeros amplitude of the weighted, phase-corrected dictionary pipeline.

    Takes what its oracle :func:`kernel_double_sum` takes: real unit vectors
    ``a`` over the keys and ``b`` over the values, each of power-of-two
    length >= 2 (else :class:`DomainError`) and of norm 1 to within 1e-12
    (else :class:`NormalizationError`).  One circuit on the all-zeros state:
    load ``a``, apply the phase-corrected dictionary, then Hadamards on the
    keys and the inverse loader of ``b``, read by
    :meth:`~qinterp.sim.Circuit.readout`.  The result equals
    ``(1/sqrt(N)) sum_k a_k sum_v b_v c(v)`` with ``c`` the kernel row of ``f(k)``.
    """
    a = _unit_vector(key_amplitudes, "key state")
    b = _unit_vector(value_amplitudes, "value state")
    layout = RegisterLayout(a.size.bit_length() - 1, b.size.bit_length() - 1)
    keys, values = layout.key_register, layout.value_register
    dictionary = dictionary_circuit(layout, poly, domain, phase_corrected=True, prepare_keys=False)
    ops = (
        StatePrep(keys, a),
        *dictionary.ops,
        HadamardLayer(keys),
        StatePrep(values, b).adjoint(),
    )
    amplitude = Circuit(layout.num_qubits, ops).readout(layout)
    _warn_imag_residual(abs(amplitude.imag), "inner-product amplitude")
    return amplitude.real


def kernel_double_sum(
    key_amplitudes,
    poly: BinaryPolynomial,
    value_amplitudes,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
) -> float:
    """Classical oracle for :func:`generalized_inner_product`.

    Direct evaluation of ``(1/sqrt(N)) sum_k a_k sum_v b_v c_{M,f(k)}(v)``
    with the kernel row computed per key; no simulation involved.  It
    evaluates the polynomial key by key through ``BinaryPolynomial.evaluate``
    on purpose: the circuit and ``values_table`` use the subset-sum
    transform, and the oracle must stay separate code from both.  For the
    same reason, and for memory, it builds one kernel row per key rather
    than one N x M matrix: at the 24-qubit cap, (n, m) = (10, 14), that
    matrix alone would take 128 MB.  Like the dictionary, it takes integer
    values in ``[0, M)`` as they are in either domain, with the lower bound
    on the rounded value.
    """
    a = np.asarray(key_amplitudes, dtype=np.float64)
    b = np.asarray(value_amplitudes, dtype=np.float64)
    modulus = b.size
    total = 0.0
    for k in range(a.size):
        value = poly.evaluate(k)
        if abs(value - round(value)) < INTEGER_TOLERANCE and round(value) >= 0 and value < modulus:
            target = value
        else:
            target = normalize_to_domain(value, domain, modulus)
        total += a[k] * float(np.dot(b, fejer_kernel_row(modulus, target)))
    return total / math.sqrt(a.size)


def _inverse_norm(vector: np.ndarray, what: str) -> tuple[float, float]:
    """``(s, scale)``: ``vector / s * scale`` is ``vector`` normalized, and ``s / scale`` is its norm.

    ``s`` is 1 and ``scale`` the inverse of the plain norm, so the vector
    keeps its bits, unless that norm or its inverse is 0 or inf; then ``s``
    is ``max|entry|``, so a vector whose squares underflow or overflow, or
    whose norm has no finite inverse, normalizes too.  A norm that is not
    positive and finite, an overflowing one included, raises
    :class:`NormalizationError` naming ``what``.
    """
    s, norm = 1.0, _norm(vector)
    if not 0 < norm < math.inf or 1.0 / norm == math.inf:
        s = float(np.max(np.abs(vector), initial=0.0))
        if 0 < s < math.inf:
            norm = _norm(vector / s)
    if not 0 < s * norm < math.inf:
        raise NormalizationError(f"{what} norm {s * norm} is not positive and finite")
    return s, 1.0 / norm


def weighted_sum(
    weights,
    poly: BinaryPolynomial,
    hash_values,
    domain: EncodingDomain = EncodingDomain.UNSIGNED,
) -> tuple[float, float]:
    """Weighted sum of hashed function values, ``sum_k w_k h(f(k))``, read from one amplitude.

    Loads the unit vectors ``w / |w|`` and ``h / |h|`` into
    :func:`generalized_inner_product` and rescales its amplitude by
    ``sqrt(N) |w| |h|``.  Returns ``(amplitude, sum)``.  A norm that is not
    positive and finite, an overflowing one included, raises
    :class:`NormalizationError` naming the vector.  To buy precision from a
    wider value register with the identity hash, pass ``poly.scaled(s)`` and
    divide the sum by ``s``; the identity hash is linear, so this holds.
    """
    w = np.asarray(weights, dtype=np.float64)
    h = np.asarray(hash_values, dtype=np.float64)
    s_w, scale_w = _inverse_norm(w, "weight vector")
    s_h, scale_h = _inverse_norm(h, "hash vector")
    amplitude = generalized_inner_product(w / s_w * scale_w, poly, h / s_h * scale_h, domain)
    return amplitude, math.sqrt(w.size) / (scale_w * scale_h) * amplitude * s_w * s_h


def direct_weighted_sum(weights, poly: BinaryPolynomial, hash_values) -> float:
    """Straight classical evaluation of ``sum_k w_k h(f(k))``.

    Hash values are looked up at the rounded function value; intended for
    integer-valued or near-integer polynomials where the hash table is
    meaningful pointwise.
    """
    w = np.asarray(weights, dtype=np.float64)
    h = np.asarray(hash_values, dtype=np.float64)
    index = np.round(poly.values_table()).astype(np.int64) % h.size
    return float(np.dot(w, h[index]))


def direct_weighted_identity_sum(weights, poly: BinaryPolynomial) -> float:
    """Classical ``sum_k w_k f(k)`` for the identity hash (any real values)."""
    w = np.asarray(weights, dtype=np.float64)
    return float(np.dot(w, poly.values_table()))

