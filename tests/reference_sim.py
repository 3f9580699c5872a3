"""An independent whole-circuit reference: each op's 2^n matrix from its docstring's definition.

It reads the op dataclasses' fields, dispatches on the class name, and
imports nothing from ``qinterp``, so a check against it never compares the
simulator with itself.  Qubit ``q`` is bit ``q`` of the basis index.  Every
matrix is built as a whole ``2^n x 2^n`` array, which keeps it to a few
qubits; that is all the property tests need.

- ``HadamardLayer``: ``(-1)^popcount(j & k) / sqrt(W)`` between register
  indices ``j`` and ``k``, identity on the other qubits.
- ``PhaseLadder``: ``exp(i theta k)`` on register index ``k`` where every
  control qubit is set; a many-term ladder is the product of its terms, a
  term's controls the set bits of its mask.
- ``ControlledPhase``: ``exp(i angle)`` where every control qubit is set.
- ``DiagonalPhase``: ``exp(i phases[k])`` on register index ``k``.
- ``QftGate``: ``exp(-+2 pi i j k / W) / sqrt(W)``, minus for ``inverse``.
- ``StatePrep``: ``e^{i alpha} (I - 2 v v^dagger / v^dagger v)`` with
  ``alpha`` the angle of ``target[0]`` and ``v = e_0 - e^{-i alpha} target``,
  the Householder reflection that maps ``e_0`` to ``e^{-i alpha} target``;
  ``dagger`` is its adjoint, ``e^{-i alpha}`` times the same reflection.
"""

from __future__ import annotations

import cmath

import numpy as np


def _local_matrix(register, local: np.ndarray, num_qubits: int) -> np.ndarray:
    """``local`` on the register's qubits, identity on the rest, over the whole basis."""
    index = np.arange(1 << num_qubits)
    mask = ((1 << register.width) - 1) << register.offset
    r = (index & mask) >> register.offset
    same_rest = (index & ~mask)[:, None] == (index & ~mask)[None, :]
    return np.where(same_rest, local[r[:, None], r[None, :]], 0.0)


def _fires(controls, num_qubits: int) -> np.ndarray:
    """Per basis index: is every control qubit set."""
    index = np.arange(1 << num_qubits)
    return np.all([(index >> q & 1) == 1 for q in controls], axis=0) if controls else np.ones(index.size, bool)


def _mask_qubits(mask) -> tuple[int, ...]:
    return tuple(q for q in range(64) if int(mask) >> q & 1)


def _register_index(register, num_qubits: int) -> np.ndarray:
    return np.arange(1 << num_qubits) >> register.offset & ((1 << register.width) - 1)


def _hadamard(op, n):
    j = np.arange(1 << op.register.width)
    signs = 1.0 - 2.0 * (np.bitwise_count(np.bitwise_and.outer(j, j)) & 1)
    return _local_matrix(op.register, signs / np.sqrt(j.size), n)


def _ladder(op, n):
    k = _register_index(op.register, n)
    if np.ndim(op.theta) == 0:
        terms = [(op.theta, tuple(op.controls))]
    else:
        terms = [(theta, _mask_qubits(mask)) for theta, mask in zip(op.theta, op.controls)]
    phase = np.zeros(1 << n)
    for theta, controls in terms:
        phase += np.where(_fires(controls, n), theta * k, 0.0)
    return np.diag(np.exp(1j * phase))


def _controlled_phase(op, n):
    return np.diag(np.where(_fires(op.controls, n), cmath.exp(1j * op.angle), 1.0))


def _diagonal(op, n):
    return np.diag(np.exp(1j * np.asarray(op.phases)[_register_index(op.register, n)]))


def _qft(op, n):
    j = np.arange(1 << op.register.width)
    sign = -1.0 if op.inverse else 1.0
    return _local_matrix(op.register, np.exp(sign * 2j * np.pi * np.outer(j, j) / j.size) / np.sqrt(j.size), n)


def _state_prep(op, n):
    target = np.asarray(op.target, dtype=complex)
    alpha = cmath.phase(target[0]) if abs(target[0]) > 0 else 0.0
    v = -target * cmath.exp(-1j * alpha)
    v[0] += 1.0
    vv = np.vdot(v, v).real
    reflection = np.eye(target.size) - (2.0 / vv) * np.outer(v, v.conj()) if vv > 1e-24 else np.eye(target.size)
    return _local_matrix(op.register, cmath.exp(1j * (-alpha if op.dagger else alpha)) * reflection, n)


_MATRICES = {
    "HadamardLayer": _hadamard,
    "PhaseLadder": _ladder,
    "ControlledPhase": _controlled_phase,
    "DiagonalPhase": _diagonal,
    "QftGate": _qft,
    "StatePrep": _state_prep,
}


def op_matrix(op, num_qubits: int) -> np.ndarray:
    """The ``2^n x 2^n`` unitary of one op."""
    return _MATRICES[type(op).__name__](op, num_qubits)


def circuit_matrix(ops, num_qubits: int) -> np.ndarray:
    """The unitary of the gate list, first op applied first."""
    matrix = np.eye(1 << num_qubits, dtype=complex)
    for op in ops:
        matrix = op_matrix(op, num_qubits) @ matrix
    return matrix


def readout(matrix: np.ndarray, value_width: int, keep_keys: bool = False):
    """``<0|U|0>``, or with ``keep_keys`` the amplitudes of every key at value 0 in ``U|0>``."""
    return matrix[:: 1 << value_width, 0] if keep_keys else complex(matrix[0, 0])
