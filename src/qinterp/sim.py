"""Dense complex statevector simulator.

The gate set is deliberately small: Hadamard layers, phase ladders,
multi-controlled diagonal phases, the (inverse) quantum Fourier transform,
and an exact amplitude loader.  Every operation is a value-like description
with ``apply`` and ``adjoint``; a :class:`Circuit` is a plain sequence of
them.  One phase ladder may hold many terms, each with its own control mask,
so a dictionary's operator F is one controlled ladder holding one term per
monomial.  A circuit run owns one amplitude buffer: :meth:`Circuit.apply`
copies its input once, :meth:`Circuit.state` builds its own, and every
operation then writes through that buffer in place.  A bare
``op.apply(state)`` still returns a new :class:`StateVector` and leaves its
input as it was.

Each operation is one numpy transform of the amplitude buffer.  Every phase
ladder runs as a phase table: :meth:`Circuit.apply` fuses each maximal run
of adjacent diagonal operations that holds a ladder into one multiplication
by a table over the run's first ladder's register where one such table holds
the whole run, and otherwise leaves it op by op.  Phase tables and a
loader's rank-1 update are built and applied in slices of about ``_CHUNK``
entries, so no operation allocates a temporary the size of the state.
:meth:`Circuit.state` starts from the constant product state where the gate
list opens with Hadamard layers on every qubit, and runs the rest as
:meth:`Circuit.apply` does, with one exception: a first phase table is
written once, as its ramp times that constant, and a QFT on its register
that follows it, as in the encoder, is built into it, one ``np.fft`` over
a register of at most 15 qubits, else over its top 12 and one radix-2
doubling per qubit below them, each level's twiddles kept across calls;
past 15 qubits a phase table on the register right after the QFT, as the
encoder's correction, is applied inside that transform.
:meth:`Circuit.readout` reads value-0 amplitudes without
building the state: the operations that span the registers fuse into one
table over the value register, contracted in baby and giant steps, about
``2 N sqrt(M)`` exponent products for N x M.

Qubit convention: qubit 0 is the least significant bit of the basis index.
A :class:`RegisterLayout` places the value register on the low-order qubits,
so the value amplitudes of key ``k`` form the contiguous slice
``[k * M, (k + 1) * M)``.
"""

from __future__ import annotations

import functools
import itertools
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

    @functools.cached_property
    def value_register(self) -> Register:
        return Register(0, self.value_width)

    @functools.cached_property
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


class _Buffer(StateVector):
    """The state a circuit run owns: each op writes through its amplitudes instead of copying them."""


def _writable(state: StateVector) -> np.ndarray:
    """The amplitudes an op overwrites: a run's own buffer, or a copy of a bare op's input."""
    return state.amplitudes if isinstance(state, _Buffer) else state.amplitudes.copy()


def _written(state: StateVector, amps: np.ndarray) -> StateVector:
    """An op's result: the run's buffer itself, or a new state around a bare op's copy."""
    return state if isinstance(state, _Buffer) else StateVector(state.num_qubits, amps)


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
        raise LayoutError(f"register {register} does not fit a {state.num_qubits}-qubit state")


def _require_controls(state: StateVector, controls: tuple[int, ...], register: Register | None):
    for q in controls:
        if not 0 <= q < state.num_qubits:
            raise LayoutError(f"control qubit {q} out of range")
        if register is not None and q in register.qubits():
            raise LayoutError(f"control qubit {q} overlaps the target register")


def _register_view(amps: np.ndarray, register: Register) -> np.ndarray:
    """Reshape to (high bits, register, low bits); middle axis is the register index."""
    return amps.reshape(-1, register.size, 1 << register.offset)


def subset_sums(values, inverse: bool = False) -> np.ndarray:
    """Zeta transform over the subsets of the index bits: ``out[k] = sum_{J subset of k} values[J]``.

    One pass per index bit, O(n 2^n) for a table of length 2^n.  ``inverse``
    gives the Moebius transform, its exact inverse.
    """
    out = np.array(values, dtype=np.float64)
    bit = 1
    while bit < out.size:
        pairs = out.reshape(-1, 2, bit)
        upper = pairs[:, 1]  # updated through the view, with no write back
        if inverse:
            upper -= pairs[:, 0]
        else:
            upper += pairs[:, 0]
        bit <<= 1
    return out


_POWERS = 2.0 ** np.arange(MAX_QUBITS)  # 2^b for every doubling step of a ramp within the cap
_POWERS.flags.writeable = False


def _phase_ramps(offset: np.ndarray, slope: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """``exp(i (offset + slope * r))`` for ``r`` in ``[0, 2**width)`` on axis 1.

    ``offset`` and ``slope`` have shape (H, L); the (H, 2**width, L) table is
    built by doubling over the bits of ``r``, with ``width + 1`` exponentials
    per (H, L) entry instead of one per table entry, into ``out`` if given.
    The ``width`` doubling steps ``exp(i 2^b slope)`` come from one ``np.exp``
    over the exact powers ``2^b`` of ``_POWERS``.
    """
    table = np.empty((offset.shape[0], 1 << width, offset.shape[1]), dtype=np.complex128) if out is None else out
    np.exp(1j * offset, out=table[:, 0])
    steps = np.exp(1j * (_POWERS[:width, None, None, None] * slope[:, None]))
    for b in range(width):
        np.multiply(table[:, : 1 << b], steps[b], out=table[:, 1 << b : 2 << b])
    return table


_HADAMARD_BLOCK = 4  # register qubits per matrix product of a Hadamard layer
_CHUNK = 1 << 15  # entries per slice of an in-place product or an applied or streamed table


def _hadamard_matrix(width: int) -> np.ndarray:
    """Unitary ``H^{(x) width}``: a +-1 Sylvester matrix scaled once, by ``2^(-width/2)``."""
    signs = np.ones((1, 1))
    for _ in range(width):
        signs = np.block([[signs, signs], [signs, -signs]])
    return signs * 2.0 ** (-width / 2)


_HADAMARD_MATRICES = tuple(_hadamard_matrix(b) for b in range(_HADAMARD_BLOCK + 1))


def _chunks(shape: tuple[int, int, int]) -> list[tuple[slice, slice, slice]]:
    """Index triples that cut an (X, B, Q) array into slices of about ``_CHUNK`` entries.

    A slice is a run of whole rows where a row fits, else part of one row
    with its whole middle axis where one column fits or ``B`` is at most a
    Hadamard block's 16, else part of one column.  A Hadamard block's matrix
    product needs its whole middle axis, so it never takes the last, also
    under a budget below 16.
    """
    rows, size, cols = shape
    whole = slice(None)
    if size * cols <= _CHUNK:
        step = _CHUNK // (size * cols)
        return [(slice(i, i + step), whole, whole) for i in range(0, rows, step)]
    if size <= max(_CHUNK, 1 << _HADAMARD_BLOCK):
        step = max(1, _CHUNK // size)
        return [(slice(i, i + 1), whole, slice(j, j + step)) for i in range(rows) for j in range(0, cols, step)]
    return [
        (slice(i, i + 1), slice(k, k + _CHUNK), slice(j, j + 1))
        for i in range(rows)
        for j in range(cols)
        for k in range(0, size, _CHUNK)
    ]


def _ramp_slices(offset: np.ndarray, slope: np.ndarray, width: int):
    """:func:`_phase_ramps` of ``offset`` and ``slope`` in slices along axis 1, bit for bit.

    Yields ``(r, part)``: ``part`` holds the table's entries ``r`` to
    ``r + part.shape[1] - 1`` on axis 1, at most ``_CHUNK`` of them
    per slice unless ``offset`` alone has more.  The first slice is the ramp
    over the low bits; every other one is the slice of ``r`` without its top
    bit times that bit's step, so each entry is the product of the same
    factors in the same low-to-high order as in the doubling.  A walk depth
    first over the high bits keeps one slice per bit alive at most.
    """
    low = min(width, max(0, (_CHUNK // offset.size).bit_length() - 1))
    steps = [np.exp(1j * (1 << b) * slope)[:, None, :] for b in range(low, width)]

    def descend(r, part, first):
        yield r, part
        for b in range(first, width - low):
            yield from descend(r | 1 << (low + b), part * steps[b], b + 1)

    yield from descend(0, _phase_ramps(offset, slope, low), 0)


class Operation:
    """Common interface of the gate set; subclasses are value-like descriptions."""

    def _derived(self, **fields) -> "Operation":
        """This op with ``fields`` changed by a rule that keeps it valid, so ``__post_init__`` does not run again."""
        op = object.__new__(type(self))
        op.__dict__.update(self.__dict__, **fields)
        return op

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
        amps = _writable(state)
        # The matrices are real, so they act on a float64 view that interleaves
        # real and imaginary parts: the low axis of qubit q's view is 2 << q long.
        floats = amps.view(np.float64)
        top = self.register.offset + self.register.width
        for q in range(self.register.offset, top, _HADAMARD_BLOCK):
            width = min(_HADAMARD_BLOCK, top - q)
            matrix = _HADAMARD_MATRICES[width]
            view = floats.reshape(-1, 1 << width, 2 << q)
            for chunk in _chunks(view.shape):
                part = view[chunk]
                part[...] = matrix @ part
        return _written(state, amps)

    def adjoint(self) -> "HadamardLayer":
        return self


@dataclass(frozen=True, eq=False)
class PhaseLadder(Operation):
    """Multiply basis ``|k>`` of the register by ``exp(i k theta)``.

    Equivalent to one phase gate P(2^j * theta) per register qubit j.  With
    ``controls`` the phase fires only where every control bit is set; control
    qubits must lie outside the target register.  One ladder may also hold
    many terms: ``theta`` an array of angles and ``controls`` the array of
    their control masks (bit q set where qubit q controls the term).  It acts
    as the product of its one-term ladders, so a dictionary's operator F is
    one controlled ladder holding one term per monomial.  A 0-d ``theta`` is
    one term, kept as a float, whose ``controls`` are kept as a tuple; many
    terms need 1-d ``theta`` and 64-bit integer masks of one length, else
    :class:`LayoutError`.  Applied as the one-op :class:`_PhaseTable` that
    :func:`_fuse` builds, the same path a fused run of diagonal ops takes.
    """

    register: Register
    theta: float | np.ndarray
    controls: tuple[int, ...] | np.ndarray = ()

    def __post_init__(self):
        if not isinstance(self.theta, (int, float, np.number)):
            if isinstance(self.theta, np.ndarray) and self.theta.ndim == 0:
                object.__setattr__(self, "theta", float(self.theta))
            else:  # many terms: float angles, integer masks, one of each per term
                theta = np.asarray(self.theta, dtype=np.float64)
                try:  # a mask is read as written, never rounded or wrapped; only an empty list may read as floats
                    masks = np.asarray(self.controls)
                    controls = masks.astype(np.int64, casting="safe" if masks.size else "unsafe")
                except (TypeError, ValueError):
                    raise LayoutError(f"many-term ladder masks {self.controls!r} are not 64-bit integers") from None
                if theta.ndim != 1 or theta.shape != controls.shape:
                    raise LayoutError(
                        "a many-term ladder needs 1-d angles and masks of one length, "
                        f"got {theta.shape} and {controls.shape}"
                    )
                object.__setattr__(self, "theta", theta)
                object.__setattr__(self, "controls", controls)
                return
        if type(self.controls) is not tuple:  # one term: its control qubits as a tuple
            controls = np.asarray(self.controls)
            if controls.ndim != 1:
                raise LayoutError(f"one-term controls {self.controls!r} are not a sequence of qubits")
            object.__setattr__(self, "controls", tuple(controls.tolist()))
        for q in self.controls:
            if not isinstance(q, (int, np.integer)):
                raise LayoutError(f"control qubit {q!r} is not an integer")

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        table = _fuse((self,), self.register, state.num_qubits)
        if table is None:  # a control does not fit: name the first, reading a mask as a 64-bit word
            rows = (tuple(q for q in range(64) if int(mask) >> q & 1) for mask in self.controls)
            for controls in rows if isinstance(self.theta, np.ndarray) else [self.controls]:
                _require_controls(state, controls, self.register)
        return table.apply(state)

    def adjoint(self) -> "PhaseLadder":
        return self._derived(theta=-self.theta)


@dataclass(frozen=True, eq=False)
class ControlledPhase(Operation):
    """Multiply by ``exp(i angle)`` where all control bits are set.

    With no controls this is a global phase.  It multiplies a view with one
    length-2 axis per qubit, qubit ``q`` on axis ``num_qubits - 1 - q``,
    each control axis sliced to its set half.
    """

    controls: tuple[int, ...]
    angle: float

    def apply(self, state: StateVector) -> StateVector:
        _require_controls(state, self.controls, None)
        amps = _writable(state)
        index = [slice(None)] * state.num_qubits
        for q in self.controls:
            index[state.num_qubits - 1 - q] = slice(1, 2)
        amps.reshape((2,) * state.num_qubits)[tuple(index)] *= np.exp(1j * self.angle)
        return _written(state, amps)

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
        amps = _writable(state)
        view = _register_view(amps, self.register)
        for r in range(0, self.register.size, _CHUNK):
            view[:, r : r + _CHUNK] *= np.exp(1j * self.phases[r : r + _CHUNK])[None, :, None]
        return _written(state, amps)

    def adjoint(self) -> "DiagonalPhase":
        return self._derived(phases=-self.phases)


@dataclass(frozen=True, eq=False)
class QftGate(Operation):
    """Quantum Fourier transform on one register, as one unitary FFT.

    The inverse direction realizes ``y_j = (1/sqrt(W)) sum_k x_k e^{-2 pi i jk / W}``
    on the register axis, i.e. the unitary DFT computed by ``np.fft.fft`` with
    ``norm="ortho"``; the forward direction is its adjoint (positive sign,
    ``np.fft.ifft``).  :meth:`Circuit.state` does not call ``apply`` where the
    QFT directly follows its product-front phase table on the same register:
    :meth:`_PhaseTable.fourier` transforms that product state instead.
    """

    register: Register
    inverse: bool = False

    def apply(self, state: StateVector) -> StateVector:
        _require_register(state, self.register)
        transform = np.fft.fft if self.inverse else np.fft.ifft
        amps = _writable(state)
        view = _register_view(amps, self.register)
        transform(view, axis=1, norm="ortho", out=view)
        return _written(state, amps)

    def adjoint(self) -> "QftGate":
        return QftGate(self.register, not self.inverse)


@dataclass(frozen=True, eq=False)
class StatePrep(Operation):
    """Exact loader: a unitary mapping the register's ``|0>`` to ``target``.

    Realized as a Householder reflection combined with a global phase, so the
    adjoint is available in closed form and round trips are exact to float
    precision.  The reflection's rank-1 update is applied in slices of about
    ``_CHUNK`` entries, its vector scaled slice by slice and conjugated in
    place for its projection, so the only temporary the size of a wide
    register is that vector.
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
        alpha = float(np.arctan2(first.imag, first.real)) if abs(first) > 0 else 0.0  # np.angle's own ufunc
        v = self.target * np.exp(-1j * alpha)  # turned to a real, non-negative first entry
        np.negative(v, out=v)
        v[0] += 1.0
        vv = float(np.vdot(v, v).real)
        amps = _writable(state)
        view = _register_view(amps, self.register)
        if vv > 1e-24:
            # v is conjugated in place for the projection and back after it (exact), so no copy of it is made
            proj = np.einsum("w,awb->ab", np.conjugate(v, out=v), view)
            np.conjugate(v, out=v)
            gain = 2.0 / vv
            for i, k, j in _chunks(view.shape):
                part = view[i, k, j]
                part -= (gain * v[k])[:, None] * proj[i, None, j]
        amps *= np.exp(1j * (-alpha if self.dagger else alpha))
        return _written(state, amps)

    def adjoint(self) -> "StatePrep":
        return self._derived(dagger=not self.dagger)


@functools.lru_cache(maxsize=32)
def _doubling_factors(sign: float, half: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One doubling level's twiddles ``exp(sign i pi j / half)`` for ``j < k``, and each slice's start factor.

    Slice ``j`` of ``k`` entries starts at ``exp(sign i pi (j mod half/2) / half)``
    times an exact quarter turn past ``half / 2``, so its rounded angle stays
    below pi / 2.  Built once per key and kept read-only, since every
    register width shares its levels.  An entry holds at most ``_CHUNK / 8``
    twiddles and at most 2048 start factors, under 100 kB; 32 of them
    cover every level in both directions up to ``MAX_QUBITS``.
    """
    twiddles = np.exp(1j * sign * np.pi / half * np.arange(k))[:, None]
    starts = np.array(
        [
            np.exp(1j * sign * np.pi * (j % (half // 2)) / half) * (sign * 1j if 2 * j >= half else 1.0)
            for j in range(0, half, k)
        ]
    )
    twiddles.flags.writeable = starts.flags.writeable = False
    return twiddles, starts


@dataclass(frozen=True, eq=False)
class _PhaseTable(Operation):
    """Phase ``offset[c] + slope[c] * r``, fused from a run of diagonal operations.

    ``r`` is the index of ``register`` and ``c`` the index over the other
    qubits, least significant first, so the table shares the amplitude order.
    """

    register: Register
    offset: np.ndarray
    slope: np.ndarray

    def fourier(self, num_qubits: int, scale: float, following) -> tuple[np.ndarray, int]:
        """The table times ``scale``, fresh, then the leading steps of ``following`` that it takes.

        It takes the first where that is a QFT on the table's register, and
        then, past 15 register qubits, the second where that is a phase
        table ``after`` on the same register.  Returns the amplitudes and the
        count of steps they hold, the table included.  With no QFT the head
        is the whole register, and its ramp times ``scale`` is the result,
        bit for bit that of :meth:`apply` on a buffer of constant ``scale``.

        The table is a product state, one geometric ramp per row, so its
        transform splits one qubit at a time (Cooley and Tukey's decimation
        in time).  The head is the whole register up to 15 qubits, else its
        top 12: one level slice of ``_CHUNK / 8`` entries, an FFT that stays
        in cache.  The ramp over the head, slope ``2^low slope`` with ``low``
        qubits below it, is built at the head of each row, scaled by
        ``scale 2^(-low/2)`` and given one ``np.fft``.  Each lower qubit
        ``l``, highest first, then doubles the transformed block ``A`` of
        ``s`` entries: the ramp at odd indices is the ramp at even ones
        times ``exp(i 2^l slope)``, so with ``u[j]`` that factor times
        ``exp(-+i pi j / s)`` the upper half becomes ``A - A u`` and ``A``
        becomes ``A + A u``.  A level is O(N), in place, in slices of about
        ``_CHUNK / 8`` entries whose twiddles are one start factor per slice
        times one table per level.  :func:`_doubling_factors` keeps both
        across calls, keyed by direction, level and slice length, so a level
        is built once per process whatever the register width.  Up to 15
        register qubits there is no level, and the result is that of
        :meth:`apply` on a buffer of constant ``scale`` followed by
        :meth:`QftGate.apply`, bit for bit.

        ``after`` is folded into the transform, since its phase
        ``offset + slope k`` factors over the bits of the output index
        ``k``: the head's outputs, the low bits of ``k``, are multiplied by
        its ramp over them, built in blocks of at most ``_CHUNK`` entries,
        and each level multiplies the upper half it has just written by
        ``exp(i s slope)``.  That is within a few ulps of ``after.apply``.
        """
        reg = self.register
        qft, after = (*following, None, None)[:2]
        inverse = qft.inverse if isinstance(qft, QftGate) and qft.register == reg else None
        whole = inverse is None or reg.width < _CHUNK.bit_length()
        fold = not whole and isinstance(after, _PhaseTable) and after.register == reg
        head = reg.width if whole else max(1, (_CHUNK >> 3).bit_length() - 1)
        low = reg.width - head
        amps = np.empty(1 << num_qubits, dtype=np.complex128)
        view = _register_view(amps, reg)
        shape = view.shape[::2]
        offset, slope = self.offset.reshape(shape), self.slope.reshape(shape)
        top = _phase_ramps(offset, slope * (1 << low), head, out=view[:, : 1 << head])
        top *= scale * 2.0 ** (-low / 2)
        if inverse is None:
            return amps, 1
        (np.fft.fft if inverse else np.fft.ifft)(top, axis=1, norm="ortho", out=top)
        if fold:
            after_offset, after_slope = after.offset.reshape(shape), after.slope.reshape(shape)
            for i, _, j in _chunks(top.shape):
                top[i, :, j] *= _phase_ramps(after_offset[i, j], after_slope[i, j], head)
        sign = -1.0 if inverse else 1.0
        for l in reversed(range(low)):
            half = 1 << (reg.width - 1 - l)
            k = min(half, max(1, (_CHUNK >> 3) // offset.size))
            twiddles, starts = _doubling_factors(sign, half, k)
            step = np.exp(1j * (1 << l) * slope)[:, None, :]
            turn = np.exp(1j * half * after_slope)[:, None, :] if fold else None
            for j, start in zip(range(0, half, k), starts):
                block, upper = view[:, j : j + k], view[:, half + j : half + j + k]
                u = step * start * twiddles
                u *= block
                np.subtract(block, u, out=upper)
                block += u
                if fold:
                    upper *= turn
        return amps, 2 + fold

    def apply(self, state: StateVector) -> StateVector:
        """Multiply by the table slice by slice, each slice built by :func:`_ramp_slices`.

        A slice takes whole rows of the (high, register, low) view where they
        fit ``_CHUNK`` entries, else two rows split along the register
        index and, past that, along the low qubits.  Two rows at least, so
        that a ramp's first doubling multiplies strided rows as the
        whole-table ramp at the head of :meth:`fourier` does: numpy's
        complex product rounds by memory layout, and this keeps every entry
        bit for bit that of the whole table.
        """
        amps = _writable(state)
        view = _register_view(amps, self.register)
        rows, size, cols = view.shape
        offset, slope = self.offset.reshape(rows, cols), self.slope.reshape(rows, cols)
        step_h = min(rows, max(2, _CHUNK // (size * cols)))
        step_c = min(cols, max(1, _CHUNK // step_h))
        for h, c in itertools.product(range(0, rows, step_h), range(0, cols, step_c)):
            block = (slice(h, h + step_h), slice(c, c + step_c))
            for r, part in _ramp_slices(offset[block], slope[block], self.register.width):
                target = view[block[0], r : r + part.shape[1], block[1]]
                np.multiply(part, target, out=target)
        return _written(state, amps)


def _fuse(run, register: Register | None, num_qubits: int) -> _PhaseTable | None:
    """The :class:`_PhaseTable` over ``register`` that acts as the diagonal ``run``, or None.

    This is the one fusion rule: a run becomes one table over one register
    whole, or stays op by op.  A ladder fits only on ``register`` itself; a
    controlled phase or a diagonal table only on qubits outside it.  Each
    op's qubits are range-checked as it is added, before any is shifted into
    its mask over the outside qubits; None for no register, a register past
    ``num_qubits`` or the first op that does not fit.  Each ladder adds its
    theta to ``slope`` and each controlled phase its angle to ``offset``, at
    that mask; one zeta transform then sums them over every ``c`` (none for
    an offset that no controlled phase set, which is all zeros).  A ladder
    of many terms is checked, remapped and added as arrays, by one
    ``np.add.at`` that adds repeated masks in order.  Diagonal tables add
    last, at their mask's lowest bit.  No op at all is the table of phase 0.
    """
    if register is None or register.offset + register.width > num_qubits:
        return None
    lo, hi = register.offset, register.offset + register.width
    below, outside = (1 << lo) - 1, ((1 << num_qubits) - 1) ^ ((register.size - 1) << lo)
    offset, slope = np.zeros((2, 1 << (num_qubits - register.width)))
    tables = []
    for op in run:
        if isinstance(op, PhaseLadder) and isinstance(op.theta, np.ndarray) and op.register == register:
            if (op.controls & ~outside).any():  # a bit in the register, past the width, or the sign
                return None
            np.add.at(slope, op.controls & below | op.controls >> register.width & ~below, op.theta)
            continue
        if isinstance(op, DiagonalPhase):
            qubits = op.register.qubits()
        elif isinstance(op, ControlledPhase) or isinstance(op, PhaseLadder) and op.register == register:
            qubits = op.controls
        else:
            return None
        mask = 0
        for q in qubits:
            if not 0 <= q < num_qubits or lo <= q < hi:
                return None
            mask |= 1 << q
        mask = mask & below | mask >> register.width & ~below
        if isinstance(op, PhaseLadder):
            slope[mask] += op.theta
        elif isinstance(op, ControlledPhase):
            offset[mask] += op.angle
        else:
            tables.append(((mask & -mask).bit_length() - 1, op))
    offset = subset_sums(offset) if offset.any() else offset  # zeros, with no controlled phase, are their own sums
    for bit, op in tables:
        _register_view(offset, Register(bit, op.register.width))[...] += op.phases[None, :, None]
    return _PhaseTable(register, offset, subset_sums(slope))


def _fuse_diagonals(ops, num_qubits: int) -> list[Operation]:
    """The gate list with each maximal diagonal run as one op where :func:`_fuse` holds it.

    A run fuses over its first ladder's register, so one without a ladder,
    as every run of non-diagonal ops, stays op by op.  Diagonal ops commute,
    so fusing keeps the circuit's action.
    """
    fused, diagonal = [], (PhaseLadder, ControlledPhase, DiagonalPhase)
    for _, group in itertools.groupby(ops, lambda op: isinstance(op, diagonal)):
        run = list(group)
        table = _fuse(run, next((op.register for op in run if isinstance(op, PhaseLadder)), None), num_qubits)
        fused += run if table is None else [table]
    return fused


def _stream(table: _PhaseTable, x: np.ndarray) -> np.ndarray:
    """``D x`` for ``D[c, r] = exp(i (offset[c] + slope[c] r))``, in baby and giant steps.

    ``r`` indexes the table's register, which ``x`` spans, and ``c`` the
    qubits outside it.  Row ``c`` of ``D x`` is the polynomial
    ``sum_r x[r] z^r`` at ``z = exp(i slope[c])``, times ``exp(i offset[c])``.
    With ``r = h 2^low + l`` it is ``sum_h S[c, h] Y[c, h]``: the inner sums
    ``Y[c, h] = sum_l x[h 2^low + l] R[c, l]`` run over the baby-step ramp
    ``R[c, l] = exp(i (offset[c] + slope[c] l))``, and the giant steps are
    ``S[c, h] = exp(i slope[c] 2^low h)`` (Paterson and Stockmeyer's split),
    so an N x M table needs about ``2 N sqrt(M)`` ramp entries, not ``N M``.
    A table that fits one ``_CHUNK`` keeps ``low`` at the register's
    width, with no giant step: one ``vecdot`` against its whole ramp, bit for
    bit the whole table's product.  A wider one splits near half its width,
    in blocks of rows whose ramp, ``S`` and ``Y`` slices take at most half a
    ``_CHUNK`` each (the real chunk never caps ``low`` within ``MAX_QUBITS``),
    so a block holds at most 1.5 chunks at once.  The sums are
    ``np.vecdot``, which keeps the reduction off threaded matrix products;
    it conjugates its first argument, so ``x`` enters conjugated and the
    giant steps are built as their conjugates.
    """
    width, rows = table.register.width, table.offset.size
    if rows << width <= _CHUNK:
        low, step = width, rows
    else:
        low = min((width + 1) // 2, _CHUNK.bit_length() - 2)
        step = max(1, _CHUNK >> (low + 1))
    x_bar = x.conj().reshape(-1, 1 << low)
    out = np.zeros(rows, dtype=np.complex128)
    for c in range(0, rows, step):
        block = slice(c, c + step)
        slope = table.slope[block, None]
        baby = _phase_ramps(table.offset[block, None], slope, low)[:, None, :, 0]
        if low == width:
            out[block] += np.vecdot(x_bar, baby)[:, 0]
            continue
        for h, giant in _ramp_slices(np.zeros_like(slope), -(1 << low) * slope, width - low):
            out[block] += np.vecdot(giant[:, :, 0], np.vecdot(x_bar[h : h + giant.shape[1]], baby))
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
        if isinstance(op, PhaseLadder) and isinstance(op.theta, np.ndarray):  # masks read as 64-bit words
            used = int(np.bitwise_or.reduce(op.controls)) % (1 << 64) or 1 << lo
            lo, hi = min(lo, (used & -used).bit_length() - 1), max(hi, used.bit_length() - 1)
        elif isinstance(op, PhaseLadder) and op.controls:
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
        return op._derived(controls=tuple(q - offset for q in op.controls))
    register = Register(op.register.offset - offset, op.register.width)
    if isinstance(op, PhaseLadder):
        many = isinstance(op.theta, np.ndarray)
        controls = op.controls >> offset if many else tuple(q - offset for q in op.controls)
        return op._derived(register=register, controls=controls)
    return op._derived(register=register)


def _run(steps, buffer: _Buffer) -> StateVector:
    """Apply ``steps`` in order, each writing through ``buffer``; the result holds its amplitudes."""
    for op in steps:
        buffer = op.apply(buffer)
    return StateVector(buffer.num_qubits, buffer.amplitudes)


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
        if reg.offset + reg.width > num_qubits:
            return None
        bits = (reg.size - 1) << reg.offset
        if covered & bits:
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
        """Apply the ops in order, as the steps :func:`_fuse_diagonals` makes of them.

        The input is copied once into the buffer this run owns, and every op
        writes through it; the input is left as it was.
        """
        if state.num_qubits != self.num_qubits:
            raise LayoutError(
                f"{self.num_qubits}-qubit circuit applied to {state.num_qubits}-qubit state"
            )
        return _run(_fuse_diagonals(self.ops, self.num_qubits), _Buffer(state.num_qubits, state.amplitudes.copy()))

    def state(self) -> StateVector:
        """``U|0...0>``, started from the product state where the gate list has one.

        When the ops start with Hadamard layers on disjoint registers that
        cover every qubit, the buffer after them holds the amplitude ``h``
        they give ``|0...0>`` everywhere, so it starts as ``h`` and the ops
        after the layers run as the steps :meth:`apply` makes of them, fused
        once.  It decides that front and the start: where the first step is
        a phase table, the buffer starts as that table times ``h``, written
        once by :meth:`_PhaseTable.fourier`, which is handed the next two
        steps and takes those it builds in (its QFT, and past 15 qubits the
        table after it, such as the encoder's correction).  The rest run
        here.  Any other circuit runs its steps on ``zero_state(n)``.  The result is bit for bit that of :meth:`apply`
        where the QFT's register has at most 15 qubits or no QFT is taken.
        Past that the transform is a 12-qubit FFT and one doubling per lower
        qubit, whose twiddles are kept across calls, with the table after it
        folded in, within a few ulps of :meth:`apply` (``4 eps`` in the
        tests).  The ops run on the buffer built here, never copied.
        """
        n = self.num_qubits
        check_capacity(n)
        front = _hadamard_front(self.ops, n)
        if front is None:
            return _run(_fuse_diagonals(self.ops, n), _Buffer(n, zero_state(n).amplitudes))
        count, scale = front
        steps = _fuse_diagonals(self.ops[count:], n)
        if not (steps and isinstance(steps[0], _PhaseTable)):
            return _run(steps, _Buffer(n, np.full(1 << n, scale, dtype=np.complex128)))
        amps, taken = steps[0].fourier(n, scale, steps[1:3])
        return _run(steps[taken:], _Buffer(n, amps))

    def adjoint(self) -> "Circuit":
        return Circuit(self.num_qubits, tuple(op.adjoint() for op in reversed(self.ops)))

    def readout(self, layout: RegisterLayout, keep_keys: bool = False):
        """``<0|`` on the value register, and unless ``keep_keys`` on the keys, applied to ``U|0...0>``.

        Returns the amplitude ``<0...0|U|0...0>``, or with ``keep_keys`` the
        vector whose entry ``k`` is the amplitude of key ``k`` and value 0.
        The leading ops that each act inside one register run on that
        register's factor of the product state, the trailing ones as
        adjoints on its ``<0|`` factor, or forward on the contracted vector
        for kept keys; lowered onto the factor, which fuses them once.
        The ops between must fuse by :func:`_fuse` into one phase table
        ``D[c, r]`` over the value register (``c`` the key), else
        :class:`LayoutError`; an op on a qubit past the width acts inside
        no register, so it stays in the middle and is refused there.  An
        empty middle is the table of phase 0.  With
        ``x = ket * conj(bra)`` per register, the amplitude is
        ``x_k^T D x_v`` and the kept keys are ``ket_k * (D x_v)``, with D
        never built whole: :func:`_stream` contracts it.
        """
        if layout.num_qubits != self.num_qubits:
            raise LayoutError(f"{layout.num_qubits}-qubit layout read on a {self.num_qubits}-qubit circuit")
        check_capacity(self.num_qubits)
        registers = (layout.value_register, layout.key_register)
        heads, front = _local_prefix(self.ops, registers)
        tails, peeled = _local_prefix(self.ops[front:][::-1], registers)
        table = _fuse(self.ops[front : len(self.ops) - peeled], layout.value_register, self.num_qubits)
        if table is None:
            raise LayoutError("readout middle is not one phase table over the value register")

        def factor(i: int, ops) -> Circuit:
            reg = registers[i]
            return Circuit(reg.width, tuple(_lowered(op, reg.offset) for op in ops))

        def bra(i: int) -> np.ndarray:  # the peeled tail is in reverse order, so its adjoints are U^dagger's ops
            return factor(i, [op.adjoint() for op in tails[i]]).state().amplitudes.conj()

        kets = [factor(i, heads[i]).state().amplitudes for i in range(2)]
        contracted = _stream(table, kets[0] * bra(0))
        if keep_keys:
            keys = factor(1, tails[1][::-1])
            buffer = _Buffer(keys.num_qubits, kets[1] * contracted)
            return _run(_fuse_diagonals(keys.ops, keys.num_qubits), buffer).amplitudes
        return complex(np.vecdot((kets[1] * bra(1)).conj(), contracted))
