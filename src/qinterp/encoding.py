"""Amplitude encoding of real numbers.

A value ``t`` in the register domain is written into an m-qubit register in
three steps: an equal superposition, a phase ladder with angle
``2 pi t / M``, and the inverse Fourier transform.  The resulting amplitudes
follow the interpolation kernel of :mod:`qinterp.kernels` up to a residual
phase ``exp(i pi (M-1)(t - k) / M)``; the correction operator removes that
phase (including the global part) so the amplitudes become literally real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kernels import EncodingDomain, normalize_to_domain
from .sim import (
    Circuit,
    ControlledPhase,
    HadamardLayer,
    PhaseLadder,
    QftGate,
    Register,
    StateVector,
    zero_state,
)


@dataclass(frozen=True)
class ValueEncoding:
    """Parameters of one scalar encoding: register width, target, domain."""

    width: int
    target: float
    domain: EncodingDomain = EncodingDomain.UNSIGNED

    def __post_init__(self):
        if self.width < 1:
            raise DomainError("value register needs at least one qubit")
        normalize_to_domain(self.target, self.domain, self.modulus)  # validates membership

    @property
    def modulus(self) -> int:
        return 1 << self.width

    @property
    def normalized_target(self) -> float:
        return normalize_to_domain(self.target, self.domain, self.modulus)

    @property
    def theta(self) -> float:
        """Ladder angle ``2 pi t / M`` for the normalized target."""
        return 2.0 * math.pi * self.normalized_target / self.modulus


def encode_geometric(width: int, theta: float) -> StateVector:
    """Equal-magnitude state with phases ``e^{i k theta}``."""
    register = Register(0, width)
    state = zero_state(width)
    state = HadamardLayer(register).apply(state)
    return PhaseLadder(register, theta).apply(state)


def value_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """Hadamard layer, phase ladder, inverse Fourier transform."""
    enc = ValueEncoding(width, t, domain)
    register = Register(0, width)
    return Circuit(
        width,
        (
            HadamardLayer(register),
            PhaseLadder(register, enc.theta),
            QftGate(register, inverse=True),
        ),
    )


def encode_value(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t``: kernel-shaped magnitudes, residual phases still present."""
    return value_encoding_circuit(width, t, domain).apply(zero_state(width))


def phase_correction_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The correction operator: removes ``e^{i pi (M-1)(t - k)/M}`` exactly.

    Split into a k-dependent phase ladder and an explicit global phase, so the
    corrected amplitudes are real numbers rather than real up to a common
    phase.
    """
    enc = ValueEncoding(width, t, domain)
    m_minus_1 = enc.modulus - 1
    register = Register(0, width)
    return Circuit(
        width,
        (
            PhaseLadder(register, math.pi * m_minus_1 / enc.modulus),
            ControlledPhase((), -math.pi * m_minus_1 * enc.normalized_target / enc.modulus),
        ),
    )


def apply_phase_correction(
    state: StateVector, width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED
) -> StateVector:
    """Correct the residual phases of an encoded state; magnitudes unchanged."""
    return phase_correction_circuit(width, t, domain).apply(state)


def real_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The full encoder: value encoding followed by phase correction.

    Applied to the zero state it produces the real-amplitude kernel state.
    """
    return value_encoding_circuit(width, t, domain).then(phase_correction_circuit(width, t, domain))


def encode_value_real(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t`` with real amplitudes equal to the kernel coefficients."""
    return real_encoding_circuit(width, t, domain).apply(zero_state(width))

