"""Classical oracles kept outside the package.

``kernel_row`` and ``interpolate`` are the oracles of ``qinterp.kernels`` in
their one-target-at-a-time form.  Each repeats, call for call, the scalar
arithmetic the array forms must reproduce bit for bit: the same reductions,
the same snap tests, and the same ``np.dot`` per row.  ``kernel_sum_40``
is the kernel sum in 40-digit arithmetic, for where double-precision rows
lose digits.  ``dft_matrix`` is the target of the gate-level Fourier
transform, built from its own exponentials rather than from an FFT.
"""

import math

import mpmath
import numpy as np

from qinterp import DomainError
from qinterp.kernels import INTEGER_TOLERANCE, SAMPLE_TOLERANCE


def kernel_row(modulus, target):
    """All M kernel coefficients for one target value, the numerator reduced to ``sin(pi f)``."""
    t = float(target) % modulus
    if abs(t - round(t)) < INTEGER_TOLERANCE:
        row = np.zeros(modulus)
        row[int(round(t)) % modulus] = 1.0
        return row
    n = round(t)
    k = np.arange(modulus)
    sign = np.where((n - k) % 2 == 1, -1.0, 1.0)
    return sign * np.sin(np.pi * (t - n)) / (modulus * np.sin(np.pi * (t - k) / modulus))


def kernel_sum_40(samples, target):
    """``sum_k s_k K(t - k)`` at the float ``t mod M``, each term in 40-digit arithmetic.

    The point is the one the package reads: the double ``t % M``, snapped to
    its integer within ``INTEGER_TOLERANCE`` as ``kernel_row`` does.  From
    there on nothing is rounded to a double until the returned float.
    """
    modulus = len(samples)
    t = float(target) % modulus
    if abs(t - round(t)) < INTEGER_TOLERANCE:
        return float(samples[round(t) % modulus])
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        total = mpmath.mpf(0)
        for k, s in enumerate(samples):
            d = t - k
            total += mpmath.mpf(float(s)) * mpmath.sinpi(d) / (modulus * mpmath.sinpi(d / modulus))
        return float(total)


def interpolate(signal, t):
    """The signal's reconstructed value at one ``t``."""
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


def dft_matrix(n):
    """Explicit unitary DFT matrix ``exp(-2 pi i jk / n) / sqrt(n)``."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(-2j * np.pi * j * k / n) / math.sqrt(n)
