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
half, so no index array is built.  :meth:`Circuit.apply` fuses each maximal
run of adjacent diagonal operations into one multiplication by a phase table
where one table holds the whole run, and otherwise leaves it op by op.
:meth:`Circuit.state` gives ``U|0...0>``: where the circuit starts with
Hadamard layers on every qubit, it writes the product state they and the
diagonal run after them make as that run's phase table, scaled once, so the
full-buffer work starts at the first other operation (an encoder's Fourier
transform).  :meth:`Circuit.readout` applies ``<0|`` on the value register,
and on the keys unless they are kept, to ``U|0...0>`` without building it.
The operations inside one register run on that register's factor or bra;
those that span the registers must fuse into one phase table over the value
register, as in both readout pipelines, and it is contracted with the
factors slice by slice.

Qubit convention: qubit 0 is the least significant bit of the basis index.
A :class:`RegisterLayout` places the value register on the low-order qubits,
so the value amplitudes of key ``k`` form the contiguous slice
``[k * M, (k + 1) * M)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

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

    def factors(self, num_qubits: int) -> np.ndarray:
        """The table ``exp(i (offset[c] + slope[c] r))`` in amplitude order, fresh."""
        reg = self.register
        shape = (1 << (num_qubits - reg.offset - reg.width), 1 << reg.offset)
        return _phase_ramps(self.offset.reshape(shape), self.slope.reshape(shape), reg.width).reshape(-1)

    def apply(self, state: StateVector) -> StateVector:
        amps = self.factors(state.num_qubits)
        amps *= state.amplitudes
        return StateVector(state.num_qubits, amps)

    def adjoint(self) -> "_PhaseTable":
        return _PhaseTable(self.register, -self.offset, -self.slope)


def _fuse(run, register: Register | None, num_qubits: int) -> Operation:
    """One op with the action of a run of diagonal ops that all :func:`_fits` ``register``.

    Each ladder adds its theta to ``slope`` and each controlled phase its
    angle to ``offset``, at its control mask; one zeta transform then sums
    them over every ``c``.  Diagonal tables on outside qubits add last.
    Without a ladder register the offsets are one :class:`DiagonalPhase` on
    every qubit.  Callers reach it only through :func:`_table`.
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
    """Whether ``op`` and ``register`` lie on qubits 0 to ``num_qubits - 1`` and ``op`` fuses over it.

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
    return hi <= num_qubits and all(q < lo or hi <= q for q in qubits)


def _table(run, candidates, num_qubits: int) -> Operation | None:
    """``run`` fused over the first of ``candidates`` that every op :func:`_fits`; None if none does.

    This is the one fusion rule: a diagonal run becomes one table whole, or
    stays op by op.  No op at all is the table of phase 0.
    """
    for register in candidates:
        if all(_fits(op, register, num_qubits) for op in run):
            return _fuse(run, register, num_qubits)
    return None


def _ladders(run) -> tuple[Register | None, ...]:
    """The candidates of a diagonal run: its ladders' registers, or None alone if it has no ladder."""
    return tuple(dict.fromkeys(op.register for op in run if isinstance(op, PhaseLadder))) or (None,)


def _diagonal(op: Operation) -> bool:
    return isinstance(op, _DIAGONAL_KINDS)


def _fuse_diagonals(ops, num_qubits: int) -> list[Operation]:
    """The gate list with each maximal diagonal run of two or more ops as one op, if :func:`_table` holds it.

    Diagonal ops commute, so fusing keeps the circuit's action.
    """
    fused = []
    for diagonal, group in itertools.groupby(ops, _diagonal):
        run = list(group)
        table = _table(run, _ladders(run), num_qubits) if diagonal and len(run) >= 2 else None
        fused += run if table is None else [table]
    return fused


_STREAM_CHUNK = 1 << 15  # phase-table entries per slice of a streamed readout


def _stream(table: _PhaseTable, x: np.ndarray) -> np.ndarray:
    """``D x`` for ``D[c, r] = exp(i (offset[c] + slope[c] r))``.

    ``r`` indexes the table's register, which ``x`` spans, and ``c`` the
    qubits outside it.  D is built by :func:`_phase_ramps` in slices of at most
    ``_STREAM_CHUNK`` entries and reduced by ``np.vecdot``, which keeps
    the reduction off threaded matrix products; ``vecdot`` conjugates its
    first argument, so ``x`` enters conjugated.
    """
    width = min(table.register.width, _STREAM_CHUNK.bit_length() - 1)
    step = max(1, _STREAM_CHUNK >> table.register.width)
    x_bar = x.conj()
    out = np.zeros(table.offset.size, dtype=np.complex128)
    for c in range(0, out.size, step):
        offset, slope = table.offset[c : c + step, None], table.slope[c : c + step, None]
        for r in range(0, x.size, 1 << width):
            part = _phase_ramps(offset + slope * r, slope, width)[:, :, 0]
            out[c : c + step] += np.vecdot(x_bar[r : r + part.shape[1]], part)
    return out


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


def _hadamard_front(ops, num_qubits: int) -> tuple[int, float] | None:
    """The leading Hadamard layers that cover every qubit once, and the amplitude they give ``|0...0>``.

    Returns their count and that amplitude, or None unless the gate list
    starts with layers on disjoint registers inside the qubits that together
    cover all of them.  The amplitude is the product of the blocks' matrix
    entries in the order :class:`HadamardLayer` applies them, so it is the
    number those layers write; after two layers of odd width that is not
    ``2^(-n/2)`` to the last bit.
    """
    full = (1 << num_qubits) - 1
    covered, scale, count = 0, 1.0, 0
    while covered != full:
        if count == len(ops) or not isinstance(ops[count], HadamardLayer):
            return None
        reg = ops[count].register
        bits = (reg.size - 1) << reg.offset
        if covered & bits or bits > full:
            return None
        covered |= bits
        for q in range(0, reg.width, _HADAMARD_BLOCK):
            scale *= float(_HADAMARD_MATRICES[min(_HADAMARD_BLOCK, reg.width - q)][0, 0])
        count += 1
    return count, scale


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered gate sequence over a fixed number of qubits.

    :meth:`state` gives ``U|0...0>``; :meth:`apply` acts on a given state and
    :meth:`readout` reads its value-0 amplitudes without building it.
    """

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

    def state(self) -> StateVector:
        """``U|0...0>``, started from the product state where the gate list has one.

        When the ops start with Hadamard layers on disjoint registers that
        cover every qubit, they and the maximal diagonal run after them make
        the product state ``h exp(i phase(x))``.  Where :func:`_table` holds
        that run, by the rule :meth:`apply` fuses by and for a run of one op
        too, it is the run's fused table scaled in place by the amplitude
        ``h`` the layers give; otherwise, or for an empty run, the buffer is
        filled with ``h`` and every op after the layers runs as in
        :meth:`apply`.  Any other circuit is ``apply(zero_state(n))``.  The
        result is bit for bit that of :meth:`apply`.
        """
        check_capacity(self.num_qubits)
        front = _hadamard_front(self.ops, self.num_qubits)
        if front is None:
            return self.apply(zero_state(self.num_qubits))
        count, scale = front
        rest = self.ops[count:]
        run = tuple(itertools.takewhile(_diagonal, rest))
        table = _table(run, _ladders(run), self.num_qubits) if run else None
        if table is None:
            amps = np.full(1 << self.num_qubits, scale, dtype=np.complex128)
        else:
            ladder_free = isinstance(table, DiagonalPhase)
            amps = np.exp(1j * table.phases) if ladder_free else table.factors(self.num_qubits)
            amps *= scale
            rest = rest[len(run) :]
        return Circuit(self.num_qubits, rest).apply(StateVector(self.num_qubits, amps))

    def adjoint(self) -> "Circuit":
        return Circuit(self.num_qubits, tuple(op.adjoint() for op in reversed(self.ops)))

    def readout(self, layout: RegisterLayout, keep_keys: bool = False):
        """``<0|`` on the value register, and unless ``keep_keys`` on the keys, applied to ``U|0...0>``.

        Returns the amplitude ``<0...0|U|0...0>``, or with ``keep_keys`` the
        vector whose entry ``k`` is the amplitude of key ``k`` and value 0.
        The leading ops that each act inside one register run on that
        register's factor of the product state, the trailing ones as
        adjoints on its ``<0|`` factor, or forward on the contracted vector
        for kept keys; lowered onto the factor, whose ``apply`` fuses them.
        The ops between must fuse by :func:`_table` into one phase table
        ``D[c, r]`` over the value register (``c`` the key), else
        :class:`LayoutError`; an empty middle is the table of phase 0.  With
        ``x = ket * conj(bra)`` per register, the amplitude is
        ``x_k^T D x_v`` and the kept keys are ``ket_k * (D x_v)``, D built
        and reduced in slices of at most ``_STREAM_CHUNK`` entries.
        """
        if layout.num_qubits != self.num_qubits:
            raise LayoutError(f"{layout.num_qubits}-qubit layout read on a {self.num_qubits}-qubit circuit")
        check_capacity(self.num_qubits)
        registers = (layout.value_register, layout.key_register)
        heads, front = _local_prefix(self.ops, registers)
        tails, peeled = _local_prefix(self.ops[front:][::-1], registers)
        table = _table(self.ops[front : len(self.ops) - peeled], (layout.value_register,), self.num_qubits)
        if table is None:
            raise LayoutError("readout middle is not one phase table over the value register")

        def factor(i: int, ops) -> Circuit:
            reg = registers[i]
            return Circuit(reg.width, tuple(_lowered(op, reg.offset) for op in ops))

        kets = [factor(i, heads[i]).state().amplitudes for i in range(2)]
        backs = [factor(i, tails[i][::-1]) for i in range(2)]
        contracted = _stream(table, kets[0] * backs[0].adjoint().state().amplitudes.conj())
        if keep_keys:
            return backs[1].apply(StateVector(layout.key_width, kets[1] * contracted)).amplitudes
        x_keys = kets[1] * backs[1].adjoint().state().amplitudes.conj()
        return complex(np.vecdot(x_keys.conj(), contracted))
