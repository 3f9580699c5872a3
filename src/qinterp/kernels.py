"""Classical reference computations.

The quantum side's numbers are checked against the functions here: the
discrete interpolation kernel that shows up as state amplitudes, as rows
(:func:`fejer_kernel_row`) and as kernel-weighted sums of samples in
trigonometric form (:func:`kernel_sums`, the readouts' classical column),
and the Nyquist-Shannon reconstruction of a sampled signal.  The kernel
double sum of :mod:`qinterp.patterns` is built from the rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

INTEGER_TOLERANCE = 1e-12
SAMPLE_TOLERANCE = 1e-12

# Most kernel entries one chunk of classical_interpolate holds (512 KiB of
# float64 per temporary); a reconstruction table of 256 points from 32 samples
# is one chunk.
KERNEL_CHUNK = 1 << 16

# Most ramp entries one chunk of kernel_sums holds (256 KiB of complex128 per
# ramp), so a long sweep's classical column stays small: a 256-point column
# at m = 12 is one chunk, and one at m = 24 takes four points a chunk.
SWEEP_KERNEL_CHUNK = 1 << 14


class EncodingDomain(enum.Enum):
    """Value domain of an M-outcome register: [0, M) or [-M/2, M/2)."""

    UNSIGNED = "unsigned"
    TWOS_COMPLEMENT = "twos_complement"


def domain_bounds(domain: EncodingDomain, modulus: int) -> tuple[int, int]:
    """The half-open range ``[lo, hi)`` of values the domain accepts."""
    if domain is EncodingDomain.UNSIGNED:
        return 0, modulus
    return -modulus // 2, modulus // 2


def normalize_to_domain(t: float, domain: EncodingDomain, modulus: int) -> float:
    """Map ``t`` into [0, M), rejecting values outside the declared domain.

    Unsigned values pass through, and a value less than ``INTEGER_TOLERANCE``
    below 0 counts as 0, as in :func:`qinterp.dictionary.validate_values`;
    two's-complement values in [-M/2, 0) map to ``t + M``.
    """
    lo, hi = domain_bounds(domain, modulus)
    if domain is EncodingDomain.UNSIGNED and -INTEGER_TOLERANCE < t < 0:
        return 0.0
    if not lo <= t < hi:
        name = "unsigned" if domain is EncodingDomain.UNSIGNED else "two's-complement"
        raise DomainError(f"value {t} outside {name} domain [{lo}, {hi})")
    return float(t) if t >= 0 else float(t + modulus)


def _split_targets(targets, modulus: int):
    """The targets as floats and ``t mod M = n + f``, ``n`` the nearest integer; a non-finite target is a DomainError."""
    t = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(t).all():
        raise DomainError(f"target {t.flat[np.argmin(np.isfinite(t))]} is not finite")
    flat = t.reshape(-1) % modulus
    nearest = np.round(flat)
    return t, flat, nearest, flat - nearest


def _quotient_rows(modulus: int, t: np.ndarray, nearest: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """Kernel rows of the non-integer targets ``t = n + f`` (``nearest`` and ``fraction``).

    The numerator ``(-1)^(n - k) sin(pi f)`` takes one ``sin`` per target:
    ``(-1)^n`` is applied per target, ``(-1)^k`` to the odd columns.
    """
    numerator = np.sin(np.pi * fraction) / modulus
    numerator[nearest % 2 == 1] *= -1.0
    # equal to np.pi * d / M bit for bit, scaling by the power of two M being exact
    quotient = (t[:, None] - np.arange(modulus)) * (np.pi / modulus)
    np.sin(quotient, out=quotient)
    np.divide(numerator[:, None], quotient, out=quotient)
    quotient[:, 1::2] *= -1.0
    return quotient


def fejer_kernel_row(modulus: int, target) -> np.ndarray:
    """All M kernel coefficients for one target value, or one row per target.

    Entry ``k`` of the row for ``t`` is ``sin(pi (t - k)) / (M sin(pi (t - k) / M))``.
    A scalar target gives a length-M row; an array of P targets gives a
    (P, M) matrix whose rows equal the scalar calls bit for bit.  Targets
    within ``INTEGER_TOLERANCE`` of an integer give Kronecker rows without
    evaluating the quotient, which is 0/0 there.  The numerator is taken
    with its argument reduced: with ``n`` the integer nearest ``t`` and
    ``f = t - n``, which is exact, ``sin(pi (t - k)) = (-1)^(n - k) sin(pi f)``.
    So a row costs one ``sin`` for its numerator and one per entry for the
    denominator, and the numerator's error does not grow with ``|t - k|``.
    A target that is not finite is a :class:`DomainError`.
    """
    t, flat, nearest, fraction = _split_targets(target, modulus)
    integer = np.abs(fraction) < INTEGER_TOLERANCE
    off = np.flatnonzero(~integer)
    quotients = _quotient_rows(modulus, flat[off], nearest[off], fraction[off]) if off.size else 0.0
    # allocated after the quotients, whose temporaries are freed by then, to keep the peak low
    rows = np.zeros((flat.size, modulus))
    rows[off] = quotients
    hits = np.flatnonzero(integer)
    rows[hits, nearest[hits].astype(np.int64) % modulus] = 1.0
    return rows.reshape(t.shape + (modulus,))


def _phases(turns: np.ndarray, scale: int, fraction=0.0) -> np.ndarray:
    """``exp(i pi (turns + fraction) / scale)``, the integers ``turns`` first reduced into ``[-scale, scale)``.

    ``scale`` is a power of two, so the reduction is a mask of the two's
    complement bits; cosine and sine are taken as two real arrays.
    """
    angle = (np.pi / scale) * (((turns + scale) & (2 * scale - 1)) - scale + fraction)
    phases = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=phases.real)
    np.sin(angle, out=phases.imag)
    return phases


def _ramp(count: int, scale: int, whole: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """``exp(i pi c (n + f) / scale)`` for ``c = 1 - count, 3 - count, ..., count - 1``, one row per target ``n + f``."""
    c = np.arange(1 - count, count, 2)
    return _phases(c * whole[:, None], scale, c * fraction[:, None])


def kernel_sums(samples, targets) -> np.ndarray:
    """``sum_k s_k K(t - k)`` for each target ``t``, with ``K`` the kernel of :func:`fejer_kernel_row`.

    The kernel is the trigonometric sum ``K(d) = (1/M) sum_j e^{i pi (2j - M + 1) d / M}``,
    so the sums at every target take one FFT of the M samples,
    ``g = ifft(s_v e^{-i pi (M - 1) v / M})``, and then per target
    ``Re sum_j conj(g_j) e^{i pi (2j - M + 1) t / M}``.  With ``j = a L + b``
    and ``L = 2^floor(m/2)``, that phase is a ramp over ``a`` times one over
    ``b``, each at most ``sqrt(2M)`` long, so a target costs two ramps and
    M multiply-adds.  A target is read as the float ``t mod M``, as by
    :func:`fejer_kernel_row` and the encoder, and split as ``t = n + f``
    with ``n`` the nearest integer: every ``n`` part of a phase is reduced
    in integers, and ``|f| <= 1/2``, so no angle is rounded at the scale of
    M and a target next to the wrap (``t -> M``) reads as accurately as any
    other.  Targets within ``INTEGER_TOLERANCE`` of an integer return
    ``s[n % M]``, as the kernel's Kronecker rows do, and a target that is
    not finite is a :class:`DomainError`.  Returns a float array of the
    targets' shape.  The targets are read in chunks of at most
    ``SWEEP_KERNEL_CHUNK`` ramp entries, and ``np.vecdot`` reduces each
    target's rows on their own, so a target's sum has the same bits in any
    chunk; a matrix product's bits may depend on the batch size.
    """
    s = np.asarray(samples, dtype=np.float64)
    modulus = s.size
    t, _, nearest, fraction = _split_targets(targets, modulus)
    whole = nearest.astype(np.int64)
    values = s[whole % modulus]
    off = np.flatnonzero(np.abs(fraction) >= INTEGER_TOLERANCE)
    if off.size:
        low = 1 << ((modulus.bit_length() - 1) // 2)
        high = modulus // low
        spectrum = _phases((1 - modulus) * np.arange(modulus), modulus)
        spectrum *= s
        np.fft.ifft(spectrum, out=spectrum)
        spectrum = spectrum.reshape(high, low)
        rows = max(1, SWEEP_KERNEL_CHUNK // high)
        for i in range(0, off.size, rows):
            chunk = off[i : i + rows]
            n, f = whole[chunk], fraction[chunk]
            inner = np.vecdot(_ramp(low, modulus, n, f)[:, None, :], spectrum)
            values[chunk] = np.vecdot(_ramp(high, high, n, f), inner).real
    return values.reshape(t.shape)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniform samples ``x_k = f(k T / N)`` of a function on ``[0, T)``."""

    samples: np.ndarray
    interval_length: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 1:
            raise DomainError("signal needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise DomainError("signal samples must be finite")
        if not 0 < self.interval_length < np.inf:
            raise DomainError("interval length must be positive and finite")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)

    def sample_points(self) -> np.ndarray:
        return np.arange(self.num_samples) * (self.interval_length / self.num_samples)


def _interpolate_rows(signal: SampledSignal, ts: np.ndarray) -> np.ndarray:
    """Reconstructed values at the in-range points ``ts``, one kernel row each."""
    n = signal.num_samples
    period = signal.interval_length
    d = ts[:, None] - signal.sample_points()
    near = np.abs(d) < SAMPLE_TOLERANCE
    hit = near.any(axis=1)
    values = np.empty(ts.size)
    values[hit] = signal.samples[np.argmax(near[hit], axis=1)]
    if not hit.all():
        d = d[~hit]
        kernel = np.sin(np.pi * d * n / period) / (n * np.tan(np.pi * d / period))
        # vecdot reduces each row as np.dot does; a matrix product may not
        values[~hit] = np.vecdot(kernel, signal.samples)
    return values


def classical_interpolate(signal: SampledSignal, t):
    """Reconstruct the signal's value at ``t`` from its uniform samples.

    Uses the periodic interpolation kernel for an even number of samples,

        f(t) = (1/N) sum_k x_k sin(pi (t - t_k) N / T) / tan(pi (t - t_k) / T),

    which reproduces band-limited signals (band limit L, N >= 2L + 1 samples)
    exactly and returns the stored sample when ``t`` hits a sample point.
    A scalar ``t`` gives a float; an array gives an array of the same shape,
    each entry equal to the scalar call, and every entry must lie in
    ``[0, T)``.  Points are taken in chunks of at most ``KERNEL_CHUNK``
    kernel entries, so the kernel matrix never outgrows that whatever the
    number of points.
    """
    ts = np.asarray(t, dtype=np.float64)
    flat = ts.reshape(-1)
    outside = ~((flat >= 0) & (flat < signal.interval_length))
    if outside.any():
        bad = t if ts.ndim == 0 else flat[np.argmax(outside)]
        raise DomainError(f"t={bad} outside sampling interval [0, {signal.interval_length})")
    rows = max(1, KERNEL_CHUNK // signal.num_samples)
    values = np.concatenate(
        [_interpolate_rows(signal, flat[i : i + rows]) for i in range(0, max(flat.size, 1), rows)]
    )
    return float(values[0]) if ts.ndim == 0 else values.reshape(ts.shape)
