"""The classical oracles in their one-target-at-a-time form, as references for the array forms.

Each function repeats, call for call, the scalar arithmetic the array forms
in ``qinterp.kernels`` must reproduce bit for bit: the same reductions, the
same snap tests, and the same ``np.dot`` per row.
"""

import numpy as np

from qinterp import DomainError
from qinterp.kernels import INTEGER_TOLERANCE, SAMPLE_TOLERANCE


def kernel_row(modulus, target):
    """All M kernel coefficients for one target value."""
    t = float(target) % modulus
    if abs(t - round(t)) < INTEGER_TOLERANCE:
        row = np.zeros(modulus)
        row[int(round(t)) % modulus] = 1.0
        return row
    k = np.arange(modulus)
    return np.sin(np.pi * (t - k)) / (modulus * np.sin(np.pi * (t - k) / modulus))


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
