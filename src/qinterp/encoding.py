"""Amplitude encoding of real numbers.

A value ``t`` in the register domain is written into an m-qubit register in
three steps: an equal superposition, a phase ladder with angle
``2 pi t / M``, and the inverse Fourier transform.  The resulting amplitudes
follow the interpolation kernel of :mod:`qinterp.kernels` up to a residual
phase ``exp(i pi (M-1)(t - k) / M)``; the correction operator removes that
phase (including the global part) so the amplitudes become literally real.

:func:`encoder_ops` builds the encoder for a sum of controlled terms and
:func:`correction_ops` the correction for a scalar or for a table of
per-key values, so the scalar encoders here and the key-value dictionary
of :mod:`qinterp.dictionary` share one builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import INTEGER_TOLERANCE, EncodingDomain, normalize_to_domain
from .sim import (
    Circuit,
    ControlledPhase,
    DiagonalPhase,
    HadamardLayer,
    Operation,
    PhaseLadder,
    QftGate,
    Register,
    StateVector,
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
        as in the kernel row and the dictionary's correction table, so
        round-off never flips the sign of the encoded amplitudes.
        """
        t = normalize_to_domain(self.target, self.domain, self.modulus)
        nearest = round(t)
        return float(nearest % self.modulus) if abs(t - nearest) < INTEGER_TOLERANCE else t

    @property
    def theta(self) -> float:
        """Ladder angle ``2 pi t / M`` for the normalized target."""
        return 2.0 * math.pi * self.normalized_target / self.modulus


def encoder_ops(register: Register, constant: float | None, masks=(), values=()) -> list[Operation]:
    """The encoder's gate list: Hadamard layer, the terms' phase ladders, inverse QFT.

    A term adds the ladder angle ``2 pi value / M`` where every one of its
    control qubits is set; the values of the terms whose controls a basis
    state satisfies add up to the value encoded there.  The term without
    controls, ``constant`` (a scalar, or a polynomial's constant term; None
    for none), is its own uncontrolled ladder, first.  Term j of the others
    has the value ``values[j]`` and the control mask ``masks[j]`` over the
    state's qubits, and together they make one controlled ladder holding one
    term per monomial.
    """
    modulus = register.size
    ladders = [] if constant is None else [PhaseLadder(register, 2.0 * math.pi * constant / modulus)]
    if len(masks):
        thetas = 2.0 * math.pi * np.asarray(values, dtype=np.float64) / modulus
        ladders.append(PhaseLadder(register, thetas, masks))
    return [HadamardLayer(register), *ladders, QftGate(register, inverse=True)]


def correction_ops(register: Register, value, keys: Register | None = None) -> list[Operation]:
    """The phase correction of :func:`encoder_ops`.

    Removes ``e^{i pi (M-1)(t - k)/M}`` exactly: a k-dependent ladder, then
    the phase ``-pi (M-1) t / M``, so the corrected amplitudes are real
    numbers rather than real up to a common phase.  For a scalar ``value``
    that phase is global; with ``keys``, ``value`` is the table of each
    key's value in [0, M) and the phase is one :class:`DiagonalPhase` on the
    key register.
    """
    modulus = register.size
    m_minus_1 = modulus - 1
    phase = -math.pi * m_minus_1 * value / modulus
    return [
        PhaseLadder(register, math.pi * m_minus_1 / modulus),
        ControlledPhase((), phase) if keys is None else DiagonalPhase(keys, phase),
    ]


def _scalar_ops(width: int, t: float, domain: EncodingDomain) -> tuple[list[Operation], list[Operation]]:
    """The encoder and correction gate lists of ``t``: one uncontrolled term."""
    register, target = Register(0, width), ValueEncoding(width, t, domain).normalized_target
    return encoder_ops(register, target), correction_ops(register, target)


def value_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """Hadamard layer, phase ladder, inverse Fourier transform."""
    return Circuit(width, tuple(_scalar_ops(width, t, domain)[0]))


def encode_value(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t``: kernel-shaped magnitudes, residual phases still present."""
    return value_encoding_circuit(width, t, domain).state()


def phase_correction_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The correction operator of :func:`correction_ops` for the scalar ``t``."""
    return Circuit(width, tuple(_scalar_ops(width, t, domain)[1]))


def real_encoding_circuit(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> Circuit:
    """The full encoder: value encoding followed by phase correction.

    Applied to the zero state it produces the real-amplitude kernel state.
    """
    encoder, correction = _scalar_ops(width, t, domain)
    return Circuit(width, tuple(encoder + correction))


def encode_value_real(width: int, t: float, domain: EncodingDomain = EncodingDomain.UNSIGNED) -> StateVector:
    """Encode ``t`` with real amplitudes equal to the kernel coefficients."""
    return real_encoding_circuit(width, t, domain).state()
