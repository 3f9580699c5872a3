"""Classical reference computations.

Everything the quantum side produces is checked against the functions here:
the discrete interpolation kernel that shows up as state amplitudes, the
Nyquist-Shannon reconstruction of a sampled signal, and the DFT together
with Fourier-coefficient extraction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndersampledError

INTEGER_TOLERANCE = 1e-12
SAMPLE_TOLERANCE = 1e-12


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


def fejer_kernel(modulus: int, target: float, k: int) -> float:
    """Interpolation coefficient ``c`` of outcome ``k`` for encoded value ``target``.

    For non-integer targets this is ``sin(pi (t - k)) / (M sin(pi (t - k) / M))``;
    integer targets collapse to a Kronecker delta.  The target is reduced
    mod M first, so two's-complement inputs can be passed directly.
    """
    if not 0 <= k < modulus:
        raise DomainError(f"outcome {k} outside [0, {modulus})")
    return float(fejer_kernel_row(modulus, target)[k])


def fejer_kernel_row(modulus: int, target: float) -> np.ndarray:
    """All M kernel coefficients for one target value."""
    t = float(target) % modulus
    if abs(t - round(t)) < INTEGER_TOLERANCE:
        row = np.zeros(modulus)
        row[int(round(t)) % modulus] = 1.0
        return row
    k = np.arange(modulus)
    return np.sin(np.pi * (t - k)) / (modulus * np.sin(np.pi * (t - k) / modulus))


@dataclass(frozen=True)
class FejerKernelSpec:
    """Kernel parameters: modulus ``M = 2**m``, target value, and its domain."""

    modulus: int
    target: float
    domain: EncodingDomain = EncodingDomain.UNSIGNED

    @property
    def normalized_target(self) -> float:
        return normalize_to_domain(self.target, self.domain, self.modulus)

    def __call__(self, k: int) -> float:
        return fejer_kernel(self.modulus, self.normalized_target, k)

    def row(self) -> np.ndarray:
        return fejer_kernel_row(self.modulus, self.normalized_target)


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
        if not self.interval_length > 0:
            raise DomainError("interval length must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def num_samples(self) -> int:
        return int(self.samples.size)

    def sample_points(self) -> np.ndarray:
        return np.arange(self.num_samples) * (self.interval_length / self.num_samples)


def classical_interpolate(signal: SampledSignal, t: float) -> float:
    """Reconstruct the signal's value at ``t`` from its uniform samples.

    Uses the periodic interpolation kernel for an even number of samples,

        f(t) = (1/N) sum_k x_k sin(pi (t - t_k) N / T) / tan(pi (t - t_k) / T),

    which reproduces band-limited signals (band limit L, N >= 2L + 1 samples)
    exactly and returns the stored sample when ``t`` hits a sample point.
    """
    if not 0 <= t < signal.interval_length:
        raise DomainError(f"t={t} outside sampling interval [0, {signal.interval_length})")
    n = signal.num_samples
    period = signal.interval_length
    d = t - signal.sample_points()
    near = np.abs(d) < SAMPLE_TOLERANCE
    if near.any():
        return float(signal.samples[int(np.argmax(near))])
    kernel = np.sin(np.pi * d * n / period) / (n * np.tan(np.pi * d / period))
    return float(np.dot(signal.samples, kernel))


def dft(samples) -> np.ndarray:
    """Unitary DFT: ``y_j = (1/sqrt(N)) sum_k x_k e^{-2 pi i jk / N}``."""
    x = np.asarray(samples, dtype=np.complex128)
    if x.size == 0:
        raise DomainError("cannot transform an empty vector")
    return np.fft.fft(x) / math.sqrt(x.size)


def dft_matrix(n: int) -> np.ndarray:
    """Explicit unitary DFT matrix; the target the gate-level transform must match."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / math.sqrt(n)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Coefficients ``z_l`` for ``l`` in [-L, L] of a sampled signal."""

    coefficients: np.ndarray
    band_limit: int

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (2 * self.band_limit + 1,):
            raise DomainError("coefficient vector must have length 2L + 1")
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, l: int) -> complex:
        if not -self.band_limit <= l <= self.band_limit:
            raise DomainError(f"frequency {l} outside band limit {self.band_limit}")
        return complex(self.coefficients[l + self.band_limit])

    def evaluate(self, t: float, interval_length: float) -> complex:
        """Trigonometric-polynomial value ``sum_l z_l e^{2 pi i l t / T}``."""
        ls = np.arange(-self.band_limit, self.band_limit + 1)
        return complex(np.sum(self.coefficients * np.exp(2j * np.pi * ls * t / interval_length)))


def fourier_coefficients(signal: SampledSignal, band_limit: int) -> FourierSpectrum:
    """Extract ``z_l = y_{l mod N} / sqrt(N)`` from the signal's DFT.

    DFT bins above N/2 are read as negative frequencies, which is what makes
    the identity hold in standard DFT output order.
    """
    if band_limit < 0:
        raise DomainError("band limit must be non-negative")
    n = signal.num_samples
    if n < 2 * band_limit + 1:
        raise UndersampledError(
            f"{n} samples cannot resolve band limit {band_limit} (need >= {2 * band_limit + 1})"
        )
    y = dft(signal.samples)
    coeffs = np.array([y[l % n] for l in range(-band_limit, band_limit + 1)])
    return FourierSpectrum(coeffs / math.sqrt(n), band_limit)
