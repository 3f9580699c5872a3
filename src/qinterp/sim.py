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
:meth:`Circuit.readout` reads amplitudes of ``U|0...0>`` with the operations
that act inside one register run on that register's factor or on its bra,
so only the operations that span registers touch the full buffer.

Qubit convention: qubit 0 is the least significant bit of the basis index.
A :class:`RegisterLayout` places the value register on the low-order qubits,
so the value amplitudes of key ``k`` form the contiguous slice
``[k * M, (k + 1) * M)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

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


def _outside_bit(qubit: int, register: Register | None) -> int:
    """Position of ``qubit`` in the index over the qubits outside ``register``."""
    if register is None or qubit < register.offset:
        return qubit
    return qubit - register.width


def _outside_mask(qubits, register: Register | None) -> int:
    """Bitmask of ``qubits`` in the index over the qubits outside ``register``."""
    mask = 0
    for q in qubits:
        mask |= 1 << q
    if register is not None:
        below = (1 << register.offset) - 1
        mask = mask & below | mask >> register.width & ~below
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

    def apply(self, state: StateVector) -> StateVector:
        reg = self.register
        shape = (1 << (state.num_qubits - reg.offset - reg.width), 1 << reg.offset)
        table = _phase_ramps(self.offset.reshape(shape), self.slope.reshape(shape), reg.width)
        amps = table.reshape(-1)
        amps *= state.amplitudes
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "_PhaseTable":
        return _PhaseTable(self.register, -self.offset, -self.slope)


def _fuse(run, register: Register | None, num_qubits: int) -> Operation:
    """One op with the action of a run of diagonal ops that :func:`_fits` ``register``.

    Each ladder adds its theta to ``slope`` and each controlled phase its
    angle to ``offset``, at its control mask; one zeta transform then sums
    them over every ``c``.  Diagonal tables on outside qubits add last.
    Without a ladder register the offsets are one :class:`DiagonalPhase` on
    every qubit.
    """
    width = register.width if register is not None else 0
    offset = np.zeros(1 << (num_qubits - width))
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
        bit = _outside_bit(op.register.offset, register)
        _register_view(offset, Register(bit, op.register.width))[...] += op.phases[None, :, None]
    if register is None:
        return DiagonalPhase(Register(0, num_qubits), offset)
    return _PhaseTable(register, offset, subset_sums(slope))


_DIAGONAL_KINDS = (PhaseLadder, ControlledPhase, DiagonalPhase)


def _fits(op: Operation, register: Register | None, num_qubits: int) -> bool:
    """Whether ``op`` lies on qubits 0 to ``num_qubits - 1`` and fuses over ``register``.

    ``register`` None stands for a run without a ladder.
    """
    if isinstance(op, DiagonalPhase):
        qubits = op.register.qubits()
    elif isinstance(op, ControlledPhase):
        qubits = op.controls
    elif isinstance(op, PhaseLadder) and op.register == register:
        qubits = op.controls
    else:
        return False
    if qubits and not (0 <= min(qubits) and max(qubits) < num_qubits):
        return False
    if register is None:
        return True
    lo, hi = register.offset, register.offset + register.width
    return all(q < lo or hi <= q for q in qubits)


def _fuse_diagonals(ops, num_qubits: int) -> list[Operation]:
    """The gate list with each run of two or more fusable diagonal ops as one op.

    A run's register is that of its next valid ladder before the next
    non-diagonal op; the run ends at the first op that does not fit it.  A
    run with no ladder left fuses its controlled phases and diagonal tables.
    Diagonal ops commute, so fusing keeps the circuit's action.  One pass from
    the end finds every position's next ladder, so the pass is linear.
    """
    registers: list[Register | None] = [None] * len(ops)
    ladder = None
    for i in range(len(ops) - 1, -1, -1):
        op = ops[i]
        if not isinstance(op, _DIAGONAL_KINDS):
            ladder = None
        elif isinstance(op, PhaseLadder) and op.register.offset + op.register.width <= num_qubits:
            ladder = op.register
        registers[i] = ladder
    fused = []
    i = 0
    while i < len(ops):
        stop = i
        while stop < len(ops) and _fits(ops[stop], registers[i], num_qubits):
            stop += 1
        if stop - i >= 2:
            fused.append(_fuse(ops[i:stop], registers[i], num_qubits))
            i = stop
        else:
            fused.append(ops[i])
            i += 1
    return fused


def _home(op: Operation, registers: tuple[Register, ...]) -> int | None:
    """Index of the register that holds every qubit of ``op``; None if none does.

    A global phase acts on no qubit and stays in the first register.  An op
    kind not known here counts as acting on every register.
    """
    if isinstance(op, ControlledPhase):
        if not op.controls:
            return 0
        lo, hi = min(op.controls), max(op.controls)
    elif isinstance(op, (HadamardLayer, PhaseLadder, DiagonalPhase, QftGate, StatePrep)):
        lo, hi = op.register.offset, op.register.offset + op.register.width - 1
        if isinstance(op, PhaseLadder) and op.controls:
            lo, hi = min(lo, *op.controls), max(hi, *op.controls)
    else:
        return None
    for i, reg in enumerate(registers):
        if reg.offset <= lo and hi < reg.offset + reg.width:
            return i
    return None


def _local_prefix(ops, registers: tuple[Register, ...]) -> tuple[list[list[Operation]], int]:
    """The leading ops that each act inside one register, grouped by register, and their count."""
    groups: list[list[Operation]] = [[] for _ in registers]
    for count, op in enumerate(ops):
        home = _home(op, registers)
        if home is None:
            return groups, count
        groups[home].append(op)
    return groups, len(ops)


def _lowered(op: Operation, offset: int) -> Operation:
    """``op`` with every qubit lowered by ``offset``: the same gate on its register's factor."""
    if offset == 0:
        return op
    if isinstance(op, ControlledPhase):
        return ControlledPhase(tuple(q - offset for q in op.controls), op.angle)
    register = Register(op.register.offset - offset, op.register.width)
    if isinstance(op, PhaseLadder):
        return PhaseLadder(register, op.theta, tuple(q - offset for q in op.controls))
    return replace(op, register=register)


def _require_partition(registers: tuple[Register, ...], keep: Register | None, num_qubits: int):
    """Raise :class:`LayoutError` unless ``registers`` tile the qubits and hold ``keep``."""
    message = f"registers {registers} do not partition {num_qubits} qubits"
    top = 0
    for reg in sorted(registers, key=lambda r: r.offset):
        if reg.offset != top:
            raise LayoutError(message)
        top += reg.width
    if top != num_qubits:
        raise LayoutError(message)
    if keep is not None and keep not in registers:
        raise LayoutError(f"kept register {keep} is not one of the readout registers")


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate sequence over a fixed number of qubits."""

    num_qubits: int
    ops: tuple[Operation, ...]

    def apply(self, state: StateVector) -> StateVector:
        """Apply the ops in order, each run of diagonal ops fused into one op."""
        if state.num_qubits != self.num_qubits:
            raise LayoutError(
                f"{self.num_qubits}-qubit circuit applied to {state.num_qubits}-qubit state"
            )
        for op in _fuse_diagonals(self.ops, self.num_qubits):
            state = op.apply(state)
        return state

    def adjoint(self) -> "Circuit":
        return Circuit(self.num_qubits, tuple(op.adjoint() for op in reversed(self.ops)))

    def readout(self, registers, keep: Register | None = None):
        """``<0|`` on every register but ``keep``, applied to ``U|0...0>``.

        ``registers`` partition the circuit's qubits.  With ``keep`` None the
        result is the amplitude ``<0...0|U|0...0>``; otherwise it is the vector
        over ``keep``'s basis, entry ``r`` being the amplitude of the basis
        state with ``r`` in ``keep`` and 0 elsewhere.

        Only part of the circuit runs on the full buffer.  The leading ops
        that each act inside one register run on that register's factor of
        the product state, and the factors are joined by one outer product.
        The trailing ops that each act inside one register run as adjoints on
        the ``<0|`` factor of their register, except that those on ``keep``
        run forward on the contracted vector.  The ops between run on the
        joined buffer, which one contraction with the bra factors then reads.
        Each register's ops are lowered onto its factor, whose ``apply``
        fuses them.
        """
        registers = tuple(registers)
        check_capacity(self.num_qubits)
        _require_partition(registers, keep, self.num_qubits)
        heads, front = _local_prefix(self.ops, registers)
        tails, peeled = _local_prefix(self.ops[front:][::-1], registers)
        back = len(self.ops) - peeled

        def factor(i: int, group) -> Circuit:
            reg = registers[i]
            return Circuit(reg.width, tuple(_lowered(op, reg.offset) for op in group))

        order = sorted(range(len(registers)), key=lambda i: -registers[i].offset)
        kets = [factor(i, heads[i]).apply(zero_state(registers[i].width)).amplitudes for i in order]
        middle = Circuit(self.num_qubits, self.ops[front:back])
        # the outer product is passed without a name, so it is freed once the first middle op
        # has replaced it
        state = middle.apply(StateVector(self.num_qubits, reduce(np.multiply.outer, kets).reshape(-1)))
        tensor = state.amplitudes.reshape([registers[i].size for i in order])
        for axis in reversed(range(len(order))):
            i = order[axis]
            if registers[i] != keep:
                bra = factor(i, tails[i][::-1]).adjoint().apply(zero_state(registers[i].width))
                tensor = np.tensordot(tensor, bra.amplitudes.conj(), axes=(axis, 0))
        if keep is None:
            return complex(tensor)
        i = registers.index(keep)
        return factor(i, tails[i][::-1]).apply(StateVector(keep.width, tensor)).amplitudes
