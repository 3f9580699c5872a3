"""Dense complex statevector simulator.

The gate set is deliberately small: Hadamard layers, phase ladders,
multi-controlled diagonal phases, the (inverse) quantum Fourier transform,
and an exact amplitude loader.  Every operation is a value-like description
with ``apply`` and ``adjoint``; a :class:`Circuit` is a plain sequence of
them.  States are immutable; applying an operation returns a new
:class:`StateVector`.

Each operation is one numpy transform of the amplitude buffer.  The Fourier
transform is one unitary FFT along the register axis.  A Hadamard layer is one
matrix product per block of up to four qubits.  Controlled operations act on a
view with one length-2 axis per qubit, each control axis sliced to its set
half, so no index array is built.  :meth:`Circuit.apply` fuses each run of
adjacent diagonal operations into one multiplication by a phase table.

Qubit convention: qubit 0 is the least significant bit of the basis index.
A :class:`RegisterLayout` places the value register on the low-order qubits,
so the value amplitudes of key ``k`` form the contiguous slice
``[k * M, (k + 1) * M)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, LayoutError, NormalizationError

MAX_QUBITS = 24


@dataclass(frozen=True)
class Register:
    """A contiguous block of qubits: ``offset`` is the least significant one."""

    offset: int
    width: int

    def __post_init__(self):
        if self.offset < 0 or self.width < 1:
            raise LayoutError(f"invalid register (offset={self.offset}, width={self.width})")

    @property
    def size(self) -> int:
        return 1 << self.width

    def qubits(self) -> range:
        return range(self.offset, self.offset + self.width)


@dataclass(frozen=True)
class RegisterLayout:
    """Partition of a state's qubits into a key and a value register."""

    key_width: int
    value_width: int

    def __post_init__(self):
        if self.key_width < 1 or self.value_width < 1:
            raise LayoutError("key and value registers need at least one qubit each")

    @property
    def num_qubits(self) -> int:
        return self.key_width + self.value_width

    @property
    def num_keys(self) -> int:
        return 1 << self.key_width

    @property
    def num_values(self) -> int:
        return 1 << self.value_width

    @property
    def value_register(self) -> Register:
        return Register(0, self.value_width)

    @property
    def key_register(self) -> Register:
        return Register(self.value_width, self.key_width)

    def split_index(self, index: int) -> tuple[int, int]:
        """Decompose a combined basis index into ``(key, value)``."""
        return index >> self.value_width, index & (self.num_values - 1)

    def combined_index(self, key: int, value: int) -> int:
        return (key << self.value_width) | value


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable dense state: ``amplitudes[k]`` is the coefficient of basis ``k``."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_qubits,):
            raise LayoutError(
                f"amplitude vector of length {amps.shape} does not match {self.num_qubits} qubits"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def amplitude(self, index: int) -> complex:
        if not 0 <= index < self.dim:
            raise IndexError(f"basis index {index} out of range for {self.num_qubits} qubits")
        return complex(self.amplitudes[index])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability(self, index: int) -> float:
        return abs(self.amplitude(index)) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def check_capacity(num_qubits: int):
    """Raise :class:`CapacityError` unless a state of this width is supported."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(f"qubit count {num_qubits} outside supported range 1..{MAX_QUBITS}")


def zero_state(num_qubits: int) -> StateVector:
    """The all-zeros computational basis state."""
    check_capacity(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(num_qubits, amps)


def _require_register(state: StateVector, register: Register):
    if register.offset + register.width > state.num_qubits:
        raise LayoutError(
            f"register {register} does not fit a {state.num_qubits}-qubit state"
        )


def _require_controls(state: StateVector, controls: tuple[int, ...], register: Register | None):
    for q in controls:
        if not 0 <= q < state.num_qubits:
            raise LayoutError(f"control qubit {q} out of range")
        if register is not None and q in register.qubits():
            raise LayoutError(f"control qubit {q} overlaps the target register")


def _qubit_view(amps: np.ndarray, num_qubits: int, controls: tuple[int, ...]) -> np.ndarray:
    """View with one length-2 axis per qubit, each control axis sliced to its set half.

    Qubit ``q`` sits on axis ``num_qubits - 1 - q``, so writing through the view
    touches exactly the amplitudes whose control bits are all set.
    """
    index = [slice(None)] * num_qubits
    for q in controls:
        index[num_qubits - 1 - q] = slice(1, 2)
    return amps.reshape((2,) * num_qubits)[tuple(index)]


def _register_view(amps: np.ndarray, register: Register) -> np.ndarray:
    """Reshape to (high bits, register, low bits); middle axis is the register index."""
    post = 1 << register.offset
    return amps.reshape(-1, register.size, post)


def subset_sums(values, inverse: bool = False) -> np.ndarray:
    """Zeta transform over the subsets of the index bits: ``out[k] = sum_{J subset of k} values[J]``.

    One pass per index bit, O(n 2^n) for a table of length 2^n.  ``inverse``
    gives the Moebius transform, its exact inverse.
    """
    out = np.array(values, dtype=np.float64)
    bit = 1
    while bit < out.size:
        pairs = out.reshape(-1, 2, bit)
        if inverse:
            pairs[:, 1] -= pairs[:, 0]
        else:
            pairs[:, 1] += pairs[:, 0]
        bit <<= 1
    return out


def _phase_ramps(offset: np.ndarray, slope: np.ndarray, width: int) -> np.ndarray:
    """``exp(i (offset + slope * r))`` for ``r`` in ``[0, 2**width)`` on axis 1.

    ``offset`` and ``slope`` have shape (H, L); the (H, 2**width, L) table is
    built by doubling over the bits of ``r``, with ``width + 1`` exponentials
    per (H, L) entry instead of one per table entry.
    """
    table = np.empty((offset.shape[0], 1 << width, offset.shape[1]), dtype=np.complex128)
    table[:, 0, :] = np.exp(1j * offset)
    filled = 1
    while filled < table.shape[1]:
        step = np.exp(1j * filled * slope)[:, None, :]
        np.multiply(table[:, :filled], step, out=table[:, filled : 2 * filled])
        filled <<= 1
    return table


_HADAMARD_BLOCK = 4  # register qubits per matrix product of a Hadamard layer
_HADAMARD_CHUNK = 1 << 15  # float64 entries per in-place product, about half an L2 cache


def _hadamard_matrix(width: int) -> np.ndarray:
    """Unitary ``H^{(x) width}``: a +-1 Sylvester matrix scaled once, by ``2^(-width/2)``."""
    signs = np.ones((1, 1))
    for _ in range(width):
        signs = np.block([[signs, signs], [signs, -signs]])
    return signs * 2.0 ** (-width / 2)


_HADAMARD_MATRICES = tuple(_hadamard_matrix(b) for b in range(_HADAMARD_BLOCK + 1))


def _chunks(view: np.ndarray):
    """Slices of a (X, B, Q) view of about ``_HADAMARD_CHUNK`` entries each."""
    rows, size, cols = view.shape
    if size * cols <= _HADAMARD_CHUNK:
        step = _HADAMARD_CHUNK // (size * cols)
        return [view[i : i + step] for i in range(0, rows, step)]
    step = _HADAMARD_CHUNK // size
    return [view[i, :, j : j + step] for i in range(rows) for j in range(0, cols, step)]


class Operation:
    """Common interface of the gate set; subclasses are value-like descriptions."""

    def apply(self, state: StateVector) -> StateVector:
        raise NotImplementedError

    def adjoint(self) -> "Operation":
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class HadamardLayer(Operation):
    """H on every qubit of the register; self-inverse.

    Applied in place as one real matrix product per block of up to four
    qubits, in cache-sized chunks.
    """

    register: Register

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        amps = state.amplitudes.copy()
        # The matrices are real, so they act on a float64 view that interleaves
        # real and imaginary parts: the low axis of qubit q's view is 2 << q long.
        floats = amps.view(np.float64)
        top = self.register.offset + self.register.width
        for q in range(self.register.offset, top, _HADAMARD_BLOCK):
            width = min(_HADAMARD_BLOCK, top - q)
            matrix = _HADAMARD_MATRICES[width]
            for part in _chunks(floats.reshape(-1, 1 << width, 2 << q)):
                part[...] = matrix @ part
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "HadamardLayer":
        return self


@dataclass(frozen=True, eq=False)
class PhaseLadder(Operation):
    """Multiply basis ``|k>`` of the register by ``exp(i k theta)``.

    Equivalent to one phase gate P(2^j * theta) per register qubit j.  With
    ``controls`` the phase fires only where every control bit is set; control
    qubits must lie outside the target register.
    """

    register: Register
    theta: float
    controls: tuple[int, ...] = ()

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        _require_controls(state, self.controls, self.register)
        reg = self.register
        ramp = _phase_ramps(np.zeros((1, 1)), np.full((1, 1), self.theta), reg.width)
        amps = state.amplitudes.copy()
        view = _qubit_view(amps, state.num_qubits, self.controls)
        view *= ramp.reshape((2,) * reg.width + (1,) * reg.offset)
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "PhaseLadder":
        return PhaseLadder(self.register, -self.theta, self.controls)


@dataclass(frozen=True, eq=False)
class ControlledPhase(Operation):
    """Multiply by ``exp(i angle)`` where all control bits are set.

    With no controls this is a global phase.  Two controls and the symmetric
    angle give the controlled-phase gate used inside the Fourier transform.
    """

    controls: tuple[int, ...]
    angle: float

    def apply(self, state: StateVector) -> StateVector:
        _require_controls(state, self.controls, None)
        amps = state.amplitudes.copy()
        view = _qubit_view(amps, state.num_qubits, self.controls)
        view *= np.exp(1j * self.angle)
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "ControlledPhase":
        return ControlledPhase(self.controls, -self.angle)


@dataclass(frozen=True, eq=False)
class DiagonalPhase(Operation):
    """Multiply basis ``|k>`` of the register by ``exp(i phases[k])``."""

    register: Register
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        if phases.shape != (self.register.size,):
            raise LayoutError("phase table length must equal the register size")
        object.__setattr__(self, "phases", phases)

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        amps = state.amplitudes.copy()
        _register_view(amps, self.register)[:] *= np.exp(1j * self.phases)[None, :, None]
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "DiagonalPhase":
        return DiagonalPhase(self.register, -self.phases)


@dataclass(frozen=True, eq=False)
class QftGate(Operation):
    """Quantum Fourier transform on one register, as one unitary FFT.

    The inverse direction realizes ``y_j = (1/sqrt(W)) sum_k x_k e^{-2 pi i jk / W}``
    on the register axis, i.e. the unitary DFT computed by ``np.fft.fft`` with
    ``norm="ortho"``; the forward direction is its adjoint (positive sign,
    ``np.fft.ifft``).
    """

    register: Register
    inverse: bool = False

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        transform = np.fft.fft if self.inverse else np.fft.ifft
        out = transform(_register_view(state.amplitudes, self.register), axis=1, norm="ortho")
        return StateVector(state.num_qubits, out.reshape(-1))

    def adjoint(self) -> "QftGate":
        return QftGate(self.register, not self.inverse)


@dataclass(frozen=True, eq=False)
class StatePrep(Operation):
    """Exact loader: a unitary mapping the register's ``|0>`` to ``target``.

    Realized as a Householder reflection combined with a global phase, so the
    adjoint is available in closed form and round trips are exact to float
    precision.
    """

    register: Register
    target: np.ndarray
    dagger: bool = False

    def __post_init__(self):
        target = np.asarray(self.target, dtype=np.complex128)
        if target.shape != (self.register.size,):
            raise LayoutError("target length must equal the register size")
        norm = np.linalg.norm(target)
        if not abs(norm - 1.0) <= 1e-9:  # written so that a NaN norm fails too
            raise NormalizationError(f"target vector norm {norm} is not 1")
        object.__setattr__(self, "target", target)

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        first = self.target[0]
        alpha = float(np.angle(first)) if abs(first) > 0 else 0.0
        aligned = self.target * np.exp(-1j * alpha)  # real, non-negative first entry
        v = -aligned
        v[0] += 1.0
        vv = float(np.real(np.vdot(v, v)))
        amps = state.amplitudes.copy()
        view = _register_view(amps, self.register)
        if vv > 1e-24:
            proj = np.einsum("w,awb->ab", v.conj(), view)
            view -= (2.0 / vv) * v[None, :, None] * proj[:, None, :]
        amps *= np.exp(1j * (-alpha if self.dagger else alpha))
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "StatePrep":
        return StatePrep(self.register, self.target, not self.dagger)


def _outside_bit(qubit: int, register: Register) -> int:
    """Position of ``qubit`` in the index over the qubits outside ``register``."""
    return qubit if qubit < register.offset else qubit - register.width


def _outside_mask(qubits, register: Register) -> int:
    mask = 0
    for q in qubits:
        mask |= 1 << _outside_bit(q, register)
    return mask


@dataclass(frozen=True, eq=False)
class _PhaseTable(Operation):
    """Phase ``offset[c] + slope[c] * r``, fused from a run of diagonal operations.

    ``r`` is the index of ``register`` and ``c`` the index over the other
    qubits, least significant first, so the table shares the amplitude order.
    """

    register: Register
    offset: np.ndarray
    slope: np.ndarray

    @classmethod
    def fuse(cls, run, register: Register, num_qubits: int) -> "_PhaseTable":
        """Each ladder adds its theta to ``slope`` and each controlled phase its
        angle to ``offset``, at its control mask; one zeta transform then sums
        them over every ``c``.  Diagonal tables on outside qubits add last."""
        offset = np.zeros(1 << (num_qubits - register.width))
        slope = np.zeros_like(offset)
        tables = []
        for op in run:
            if isinstance(op, PhaseLadder):
                slope[_outside_mask(op.controls, register)] += op.theta
            elif isinstance(op, ControlledPhase):
                offset[_outside_mask(op.controls, register)] += op.angle
            else:
                tables.append(op)
        offset = subset_sums(offset)
        for op in tables:
            low = _outside_bit(op.register.offset, register)
            _register_view(offset, Register(low, op.register.width))[...] += op.phases[None, :, None]
        return cls(register, offset, subset_sums(slope))

    def apply(self, state: StateVector) -> StateVector:
        reg = self.register
        shape = (1 << (state.num_qubits - reg.offset - reg.width), 1 << reg.offset)
        table = _phase_ramps(self.offset.reshape(shape), self.slope.reshape(shape), reg.width)
        amps = table.reshape(-1)
        amps *= state.amplitudes
        return StateVector(state.num_qubits, amps)


def _fits(op: Operation, register: Register, num_qubits: int) -> bool:
    """Whether ``op`` is valid on the state and of the :class:`_PhaseTable` form over ``register``."""
    if isinstance(op, PhaseLadder) and op.register == register:
        qubits = op.controls
    elif isinstance(op, ControlledPhase):
        qubits = op.controls
    elif isinstance(op, DiagonalPhase):
        qubits = op.register.qubits()
    else:
        return False
    lo, hi = register.offset, register.offset + register.width
    return all(0 <= q < num_qubits and not lo <= q < hi for q in qubits)


def _fuse_diagonals(ops, num_qubits: int) -> list[Operation]:
    """The gate list with each run of two or more fusable diagonal ops as one :class:`_PhaseTable`.

    A run's register is that of the first ladder up to the next non-diagonal
    op; the run ends at the first op the form cannot express.  Diagonal ops
    commute, so fusing keeps the circuit's action.
    """
    fused = []
    i = 0
    while i < len(ops):
        end = i
        while end < len(ops) and isinstance(ops[end], (PhaseLadder, ControlledPhase, DiagonalPhase)):
            end += 1
        register = next(
            (
                op.register
                for op in ops[i:end]
                if isinstance(op, PhaseLadder) and op.register.offset + op.register.width <= num_qubits
            ),
            None,
        )
        stop = i
        while register is not None and stop < end and _fits(ops[stop], register, num_qubits):
            stop += 1
        if stop - i >= 2:
            fused.append(_PhaseTable.fuse(ops[i:stop], register, num_qubits))
            i = stop
        else:
            fused.append(ops[i])
            i += 1
    return fused


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate sequence over a fixed number of qubits."""

    num_qubits: int
    ops: tuple[Operation, ...]

    def apply(self, state: StateVector) -> StateVector:
        """Apply the ops in order, each run of diagonal ops fused into one phase table."""
        if state.num_qubits != self.num_qubits:
            raise LayoutError(
                f"{self.num_qubits}-qubit circuit applied to {state.num_qubits}-qubit state"
            )
        for op in _fuse_diagonals(self.ops, self.num_qubits):
            state = op.apply(state)
        return state

    def adjoint(self) -> "Circuit":
        return Circuit(self.num_qubits, tuple(op.adjoint() for op in reversed(self.ops)))

