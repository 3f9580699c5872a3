"""Amplitude encoding of real numbers.

A value ``t`` in the register domain is written into an m-qubit register in
three steps: an equal superposition, a phase ladder with angle
``2 pi t / M``, and the inverse Fourier transform.  The resulting amplitudes
follow the interpolation kernel of :mod:`qinterp.kernels` up to a residual
phase ``exp(i pi (M-1)(t - k) / M)``; the correction operator removes that
phase (including the global part) so the amplitudes become literally real.

:func:`encoder_ops` and :func:`correction_ops` build that gate list for a
sum of controlled terms, so the scalar encoders here and the key-value
dictionary of :mod:`qinterp.dictionary` share one builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .kernels import INTEGER_TOLERANCE, EncodingDomain, normalize_to_domain
from .sim import (
    Circuit,
    ControlledPhase,
    HadamardLayer,
    Operation,
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
        """The target mapped into [0, M).

        Within ``INTEGER_TOLERANCE`` of an integer it is that integer mod M,
        as in the kernel row and the dictionary's wrap compensation, so
        round-off never flips the sign of the encoded amplitudes.
        """
        t = normalize_to_domain(self.target, self.domain, self.modulus)
        nearest = round(t)
        return float(nearest % self.modulus) if abs(t - nearest) < INTEGER_TOLERANCE else t

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


def encoder_ops(register: Register, terms) -> list[Operation]:
    """The encoder's gate list: Hadamard layer, one phase ladder per term, inverse QFT.

    A term ``(controls, value)`` adds the ladder angle ``2 pi value / M``
    where every control qubit is set; the values of the terms whose controls
    a basis state satisfies add up to the value encoded there.  A scalar is
    one uncontrolled term, a dictionary one term per monomial.
    """
    modulus = register.size
    return [
        HadamardLayer(register),
        *(PhaseLadder(register, 2.0 * math.pi * value / modulus, controls) for controls, value in terms),
        QftGate(register, inverse=True),
    ]


def correction_ops(register: Register, terms) -> list[Operation]:
    """The phase correction of :func:`encoder_ops` for the same terms.

    Removes ``e^{i pi (M-1)(t - k)/M}`` exactly: a k-dependent ladder, then
    one phase ``-pi (M-1) value / M`` per term under its controls, so the
    corrected amplitudes are real numbers rather than real up to a common
    phase.
    """
    modulus = register.size
    m_minus_1 = modulus - 1
    return [
        PhaseLadder(register, math.pi * m_minus_1 / modulus),
        *(ControlledPhase(controls, -math.pi * m_minus_1 * value / modulus) for controls, value in terms),
    ]


def _scalar(width: int, t: float, domain: EncodingDomain) -> tuple[Register, tuple]:
    """The register and the single uncontrolled term that encode ``t``."""
    target = ValueEncoding(width, t, domain).normalized_target
    return Register(0, width), (((), target),)


def value_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """Hadamard layer, phase ladder, inverse Fourier transform."""
    return Circuit(width, tuple(encoder_ops(*_scalar(width, t, domain))))


def encode_value(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t``: kernel-shaped magnitudes, residual phases still present."""
    return value_encoding_circuit(width, t, domain).apply(zero_state(width))


def phase_correction_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The correction operator of :func:`correction_ops` for the scalar ``t``."""
    return Circuit(width, tuple(correction_ops(*_scalar(width, t, domain))))


def real_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The full encoder: value encoding followed by phase correction.

    Applied to the zero state it produces the real-amplitude kernel state.
    """
    register, terms = _scalar(width, t, domain)
    return Circuit(width, tuple(encoder_ops(register, terms) + correction_ops(register, terms)))


def encode_value_real(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t`` with real amplitudes equal to the kernel coefficients."""
    return real_encoding_circuit(width, t, domain).apply(zero_state(width))
