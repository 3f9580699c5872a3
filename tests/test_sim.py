import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polynomials import in_domain_polynomial
from scalar_oracles import dft_matrix

from qinterp import (
    BinaryPolynomial,
    CapacityError,
    Circuit,
    ControlledPhase,
    DiagonalPhase,
    HadamardLayer,
    LayoutError,
    PhaseLadder,
    QftGate,
    Register,
    RegisterLayout,
    StatePrep,
    StateVector,
    dictionary_circuit,
    zero_state,
)
from qinterp import sim
from qinterp.kernels import EncodingDomain
from qinterp.encoding import real_encoding_circuit, value_encoding_circuit
from qinterp.patterns import prepare_nu2
from qinterp.sim import _fuse_diagonals

TWOS = EncodingDomain.TWOS_COMPLEMENT


def random_state(num_qubits, rng):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return StateVector(num_qubits, amps)


def operator_matrix(op, num_qubits):
    dim = 1 << num_qubits
    cols = []
    for j in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[j] = 1.0
        cols.append(op.apply(StateVector(num_qubits, amps)).amplitudes)
    return np.array(cols).T


def reference_phases(state, controls, phase_of):
    """Per-basis-index loop: ``|x> -> e^{i phase_of(x)} |x>`` where every control bit of x is set."""
    out = state.amplitudes.copy()
    for x in range(state.dim):
        if all(x >> q & 1 for q in controls):
            out[x] *= np.exp(1j * phase_of(x))
    return out


def control_sets(qubits, rng):
    """No controls, one random control, and every qubit of ``qubits``."""
    return [(), (int(rng.choice(qubits)),), tuple(qubits)]


class TestZeroState:
    def test_single_qubit(self):
        state = zero_state(1)
        assert np.allclose(state.amplitudes, [1, 0])

    def test_three_qubits(self):
        assert zero_state(3).probability(0) == 1.0

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            zero_state(25)
        with pytest.raises(CapacityError):
            zero_state(0)


class TestHadamardLayer:
    def test_equal_superposition(self):
        state = HadamardLayer(Register(0, 3)).apply(zero_state(3))
        assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)))

    def test_involution(self):
        state = zero_state(3)
        h = HadamardLayer(Register(0, 3))
        twice = h.apply(h.apply(state))
        assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-14)

    def test_six_qubit_probabilities(self):
        state = HadamardLayer(Register(0, 6)).apply(zero_state(6))
        assert np.allclose(state.probabilities(), np.full(64, 1 / 64))

    def test_partial_register(self):
        layout = RegisterLayout(2, 3)
        state = HadamardLayer(layout.value_register).apply(zero_state(5))
        # key register untouched: only the key-0 slice is occupied
        probs = state.probabilities().reshape(4, 8)
        assert np.allclose(probs[0], 1 / 8)
        assert np.allclose(probs[1:], 0)

    def test_register_must_fit(self):
        with pytest.raises(LayoutError):
            HadamardLayer(Register(1, 3)).apply(zero_state(2))

    def test_matches_per_qubit_reference_on_wide_states(self):
        # Wide registers and offsets: several blocks, partial last blocks and
        # several cache-sized chunks per block.
        rng = np.random.default_rng(12)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        for n, offset, width in ((16, 0, 16), (16, 3, 9), (16, 12, 4), (15, 5, 10), (13, 1, 11)):
            state = random_state(n, rng)
            expected = state.amplitudes.copy()
            for q in range(offset, offset + width):
                expected = np.matmul(h, expected.reshape(-1, 2, 1 << q)).reshape(-1)
            out = HadamardLayer(Register(offset, width)).apply(state)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-13


class TestPhaseLadder:
    def test_alternating_signs(self):
        # theta = 2*pi*4/8 puts e^{i*k*pi} = (-1)^k on an equal superposition
        state = HadamardLayer(Register(0, 3)).apply(zero_state(3))
        state = PhaseLadder(Register(0, 3), 2 * math.pi * 4 / 8).apply(state)
        expected = np.array([(-1) ** k for k in range(8)]) / math.sqrt(8)
        assert np.allclose(state.amplitudes, expected, atol=1e-12)

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(3)
        state = random_state(4, rng)
        out = PhaseLadder(Register(0, 4), 0.0).apply(state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_phases_match_formula(self):
        rng = np.random.default_rng(11)
        for m in range(1, 7):
            theta = rng.uniform(-10, 10)
            state = HadamardLayer(Register(0, m)).apply(zero_state(m))
            state = PhaseLadder(Register(0, m), theta).apply(state)
            ks = np.arange(1 << m)
            expected = np.exp(1j * ks * theta) / math.sqrt(1 << m)
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_control_semantics(self):
        layout = RegisterLayout(1, 3)
        state = HadamardLayer(layout.value_register).apply(zero_state(4))
        # control on the (clear) key qubit: nothing may change
        out = PhaseLadder(layout.value_register, 1.234, (3,)).apply(state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_control_overlap_rejected(self):
        state = zero_state(3)
        with pytest.raises(LayoutError):
            PhaseLadder(Register(0, 2), 0.5, (1,)).apply(state)


class TestQft:
    def test_geometric_state_decodes_to_integer(self):
        state = HadamardLayer(Register(0, 3)).apply(zero_state(3))
        state = PhaseLadder(Register(0, 3), 2 * math.pi * 4 / 8).apply(state)
        state = QftGate(Register(0, 3), inverse=True).apply(state)
        assert state.probability(4) > 1 - 1e-12

    def test_matches_dft_matrix(self):
        for m in range(1, 6):
            mat = operator_matrix(QftGate(Register(0, m), inverse=True), m)
            assert np.max(np.abs(mat - dft_matrix(1 << m))) < 1e-10
        # register at offset 1-3 with spectators below it and two qubits above it
        rng = np.random.default_rng(13)
        for m in (1, 3, 5):
            for below in (1, 2, 3):
                n = below + m + 2
                embedded = np.kron(np.kron(np.eye(4), dft_matrix(1 << m)), np.eye(1 << below))
                state = random_state(n, rng)
                for inverse, matrix in ((True, embedded), (False, embedded.conj().T)):
                    out = QftGate(Register(below, m), inverse).apply(state)
                    assert np.max(np.abs(out.amplitudes - matrix @ state.amplitudes)) < 1e-10

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(5)
        state = random_state(4, rng)
        reg = Register(0, 4)
        out = QftGate(reg, inverse=True).apply(QftGate(reg).apply(state))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_superposition_to_zero(self):
        state = HadamardLayer(Register(0, 4)).apply(zero_state(4))
        out = QftGate(Register(0, 4), inverse=True).apply(state)
        assert out.probability(0) > 1 - 1e-12

    def test_acts_only_on_its_register(self):
        rng = np.random.default_rng(9)
        layout = RegisterLayout(2, 2)
        state = random_state(4, rng)
        out = QftGate(layout.value_register, inverse=True).apply(state)
        # per-key blocks transform independently by the 4x4 DFT
        blocks_in = state.amplitudes.reshape(4, 4)
        blocks_out = out.amplitudes.reshape(4, 4)
        dft4 = dft_matrix(4)
        assert np.max(np.abs(blocks_out - blocks_in @ dft4.T)) < 1e-12


class TestDiagonalAndControlledPhase:
    def test_zero_phase_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(3, rng)
        out = DiagonalPhase(Register(0, 3), np.zeros(8)).apply(state)
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_global_pi_flips_sign(self):
        rng = np.random.default_rng(2)
        state = random_state(3, rng)
        out = DiagonalPhase(Register(0, 3), np.full(8, math.pi)).apply(state)
        assert np.allclose(out.amplitudes, -state.amplitudes)
        assert np.allclose(out.probabilities(), state.probabilities())

    def test_phase_cancellation_makes_real(self):
        rng = np.random.default_rng(4)
        state = random_state(3, rng)
        angles = np.angle(state.amplitudes)
        out = DiagonalPhase(Register(0, 3), -angles).apply(state)
        assert np.max(np.abs(out.amplitudes.imag)) < 1e-12
        assert np.min(out.amplitudes.real) >= -1e-12

    def test_controlled_phase_only_where_controls_set(self):
        rng = np.random.default_rng(6)
        state = random_state(3, rng)
        out = ControlledPhase((0, 2), math.pi / 3).apply(state)
        for x in range(8):
            factor = np.exp(1j * math.pi / 3) if (x & 0b101) == 0b101 else 1.0
            assert abs(out.amplitude(x) - state.amplitude(x) * factor) < 1e-14
        for n in (3, 6, 9):
            state = random_state(n, rng)
            for controls in control_sets(list(range(n)), rng):
                angle = rng.uniform(-math.pi, math.pi)
                out = ControlledPhase(controls, angle).apply(state)
                expected = reference_phases(state, controls, lambda x: angle)
                assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    def test_input_state_left_untouched(self):
        rng = np.random.default_rng(9)
        state = random_state(5, rng)
        before = state.amplitudes.copy()
        for controls in ((), (1, 4)):
            out = ControlledPhase(controls, 0.7).apply(state)
            assert np.array_equal(state.amplitudes, before)
            expected = reference_phases(state, controls, lambda x: 0.7)
            assert np.max(np.abs(out.amplitudes - expected)) < 1e-15

    def test_phase_ladder_only_where_controls_set(self):
        rng = np.random.default_rng(7)
        for n, offset, width in ((4, 1, 2), (7, 0, 3), (9, 3, 4), (10, 6, 4)):
            state = random_state(n, rng)
            reg = Register(offset, width)
            others = [q for q in range(n) if q not in reg.qubits()]
            for controls in control_sets(others, rng):
                theta = rng.uniform(-4, 4)
                out = PhaseLadder(reg, theta, controls).apply(state)
                local = lambda x: theta * (x >> offset & (reg.size - 1))  # noqa: E731
                expected = reference_phases(state, controls, local)
                assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


class TestStatePrep:
    def test_basis_vector_target(self):
        target = np.zeros(8)
        target[5] = 1.0
        out = StatePrep(Register(0, 3), target).apply(zero_state(3))
        assert out.probability(5) > 1 - 1e-12

    def test_matches_hadamard_on_uniform_target(self):
        target = np.full(8, 1 / math.sqrt(8))
        via_prep = StatePrep(Register(0, 3), target).apply(zero_state(3))
        via_h = HadamardLayer(Register(0, 3)).apply(zero_state(3))
        assert np.max(np.abs(via_prep.amplitudes - via_h.amplitudes)) < 1e-12

    def test_random_roundtrip_fidelity(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            target = rng.normal(size=16) + 1j * rng.normal(size=16)
            target /= np.linalg.norm(target)
            prep = StatePrep(Register(0, 4), target)
            loaded = prep.apply(zero_state(4))
            assert np.max(np.abs(loaded.amplitudes - target)) < 1e-10
            back = prep.adjoint().apply(loaded)
            assert back.probability(0) > 1 - 1e-10

    def test_negative_leading_entry(self):
        target = np.array([-3.0, 4.0]) / 5.0
        loaded = StatePrep(Register(0, 1), target).apply(zero_state(1))
        assert np.max(np.abs(loaded.amplitudes - target)) < 1e-12


class TestAdjoint:
    def test_phase_ladder_adjoint_negates_angle(self):
        op = PhaseLadder(Register(0, 3), 0.7)
        assert op.adjoint().theta == -0.7

    def test_qft_adjoint_flips_direction(self):
        op = QftGate(Register(0, 3), inverse=True)
        assert op.adjoint().inverse is False
        rng = np.random.default_rng(10)
        state = random_state(3, rng)
        out = op.adjoint().apply(op.apply(state))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12

    def test_prepared_state_roundtrip(self):
        prep = prepare_nu2(6)
        out = prep.adjoint().apply(prep.apply(zero_state(6)))
        assert abs(out.amplitude(0) - 1.0) < 1e-12

    def test_circuit_adjoint_reverses(self):
        reg = Register(0, 3)
        circuit = Circuit(3, (HadamardLayer(reg), PhaseLadder(reg, 0.3), QftGate(reg, True)))
        rng = np.random.default_rng(12)
        state = random_state(3, rng)
        out = circuit.adjoint().apply(circuit.apply(state))
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


class TestInvariants:
    OPS = None

    def _sample_ops(self, m):
        reg = Register(0, m)
        return [
            HadamardLayer(reg),
            PhaseLadder(reg, 1.37),
            QftGate(reg, inverse=True),
            QftGate(reg, inverse=False),
            ControlledPhase((0,), 0.9),
            DiagonalPhase(reg, np.linspace(0, 2, 1 << m)),
        ]

    def test_norm_preservation(self):
        rng = np.random.default_rng(21)
        for m in (2, 4):
            for op in self._sample_ops(m):
                state = random_state(m, rng)
                assert abs(op.apply(state).norm() - 1.0) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(22)
        for op in self._sample_ops(3):
            x, y = random_state(3, rng), random_state(3, rng)
            alpha = complex(rng.normal(), rng.normal())
            beta = complex(rng.normal(), rng.normal())
            combo = StateVector(3, alpha * x.amplitudes + beta * y.amplitudes)
            lhs = op.apply(combo).amplitudes
            rhs = alpha * op.apply(x).amplitudes + beta * op.apply(y).amplitudes
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_determinism(self):
        def pipeline():
            state = zero_state(5)
            layout = RegisterLayout(2, 3)
            state = HadamardLayer(layout.key_register).apply(state)
            state = PhaseLadder(layout.value_register, 0.977, (3,)).apply(state)
            state = QftGate(layout.value_register, inverse=True).apply(state)
            return state.amplitudes

        first, second = pipeline(), pipeline()
        assert np.array_equal(first, second)


def unit_vector(size, rng):
    v = rng.normal(size=size) + 1j * rng.normal(size=size)
    return v / np.linalg.norm(v)


# each kind built on a register and a control set drawn outside it
OP_KINDS = {
    "HadamardLayer": lambda reg, controls, rng: HadamardLayer(reg),
    "PhaseLadder": lambda reg, controls, rng: PhaseLadder(reg, rng.uniform(-4, 4), controls),
    "ControlledPhase": lambda reg, controls, rng: ControlledPhase(controls, rng.uniform(-4, 4)),
    "DiagonalPhase": lambda reg, controls, rng: DiagonalPhase(reg, rng.uniform(-4, 4, reg.size)),
    "QftGate": lambda reg, controls, rng: QftGate(reg, inverse=bool(rng.integers(2))),
    "StatePrep": lambda reg, controls, rng: StatePrep(reg, unit_vector(reg.size, rng)),
}


@st.composite
def placements(draw):
    """(num_qubits, register, controls outside the register, seed) up to 10 qubits."""
    n = draw(st.integers(1, 10))
    offset = draw(st.integers(0, n - 1))
    reg = Register(offset, draw(st.integers(1, n - offset)))
    others = [q for q in range(n) if q not in reg.qubits()]
    controls = tuple(draw(st.lists(st.sampled_from(others), unique=True))) if others else ()
    return n, reg, controls, draw(st.integers(0, 2**32 - 1))


class TestOperationProperties:
    @pytest.mark.parametrize("kind", sorted(OP_KINDS))
    @settings(max_examples=25)
    @given(placement=placements())
    def test_norm_and_adjoint_round_trip(self, kind, placement):
        n, reg, controls, seed = placement
        rng = np.random.default_rng(seed)
        op = OP_KINDS[kind](reg, controls, rng)
        state = random_state(n, rng)
        out = op.apply(state)
        assert abs(out.norm() - 1.0) < 1e-12
        back = op.adjoint().apply(out)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def apply_one_by_one(ops, state):
    for op in ops:
        state = op.apply(state)
    return state


# OP_KINDS with the ladder split by controls and the QFT by direction
WIDE_KINDS = {
    **OP_KINDS,
    "PhaseLadder": lambda reg, controls, rng: PhaseLadder(reg, rng.uniform(-4, 4)),
    "PhaseLadder-ctrl": OP_KINDS["PhaseLadder"],
    "QftGate": lambda reg, controls, rng: QftGate(reg),
    "QftGate-inverse": lambda reg, controls, rng: QftGate(reg, inverse=True),
}


def wide_placement(n, rng):
    """A register leaving at least one qubit out, and up to three control qubits among those left out."""
    width = int(rng.integers(1, n))
    reg = Register(int(rng.integers(0, n - width + 1)), width)
    others = [q for q in range(n) if q not in reg.qubits()]
    return reg, tuple(int(q) for q in rng.choice(others, size=min(3, len(others)), replace=False))


# Widths 23 and 24, where a state is 128 or 256 MiB, carry the ``wide`` mark:
# tier-1 leaves them out, and ``python -m pytest -m wide`` runs them.
WIDEST = [pytest.param(n, marks=pytest.mark.wide) for n in (23, 24)]


def max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|``, with ``a`` overwritten on the way so that a wide check holds no extra state."""
    return float(np.max(np.abs(np.subtract(a, b, out=a))))


class TestWideOperations:
    """One seeded example per op kind at each width past the property tests' 10 qubits, up to the 24-qubit cap."""

    @pytest.mark.parametrize("n", [*range(13, 23), *WIDEST])
    def test_norm_adjoint_and_fusion(self, n):
        rng = np.random.default_rng(3000 + n)
        amps = rng.standard_normal(2 << n).view(np.complex128)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        for kind, build in WIDE_KINDS.items():
            op = build(*wide_placement(n, rng), rng)
            out = op.apply(state)
            assert abs(out.norm() - 1.0) <= 1e-9, kind
            back = op.adjoint().apply(out).amplitudes
            del out
            assert max_gap(back, state.amplitudes) <= 1e-9, kind
            del back
        # a diagonal run over one ladder register fuses into one table
        reg, controls = wide_placement(n, rng)
        ops = [
            PhaseLadder(reg, rng.uniform(-4, 4)),
            PhaseLadder(reg, rng.uniform(-4, 4), controls),
            ControlledPhase(controls, rng.uniform(-4, 4)),
            DiagonalPhase(Register(controls[0], 1), rng.uniform(-4, 4, 2)),
        ]
        assert len(_fuse_diagonals(ops, n)) == 1
        fused = Circuit(n, tuple(ops)).apply(state).amplitudes
        assert max_gap(fused, apply_one_by_one(ops, state).amplitudes) <= 1e-9


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the allocations ``fn()`` makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fused_table(n, rng):
    """A ``_PhaseTable``: a ladder and a controlled phase fused over a random register."""
    reg, controls = wide_placement(n, rng)
    ops = [PhaseLadder(reg, rng.uniform(-4, 4), controls[:1]), ControlledPhase(controls, rng.uniform(-4, 4))]
    (table,) = _fuse_diagonals(ops, n)
    assert isinstance(table, sim._PhaseTable)
    return table


BUFFER_KINDS = {**WIDE_KINDS, "_PhaseTable": lambda reg, controls, rng: fused_table(6, rng)}


class TestOneBuffer:
    """A circuit run writes through one buffer; bare ops and the run's input stay as they were."""

    @pytest.mark.parametrize("kind", sorted(BUFFER_KINDS))
    def test_inputs_left_unchanged(self, kind):
        rng = np.random.default_rng(sorted(BUFFER_KINDS).index(kind))
        n = 6
        op = BUFFER_KINDS[kind](*wide_placement(n, rng), rng)
        state = random_state(n, rng)
        before = state.amplitudes.copy()
        bare = op.apply(state)
        assert np.array_equal(state.amplitudes, before)
        run = Circuit(n, (op,)).apply(state)
        assert np.array_equal(state.amplitudes, before)
        assert run.amplitudes.tobytes() == bare.amplitudes.tobytes()
        # the run's result is a plain state: a bare op on it copies
        after_run = run.amplitudes.copy()
        op.apply(run)
        assert np.array_equal(run.amplitudes, after_run)
        circuit = Circuit(n, (HadamardLayer(Register(0, n)), op))
        first = circuit.state()
        kept = first.amplitudes.copy()
        second = circuit.state()
        assert first.amplitudes.tobytes() == kept.tobytes() == second.amplitudes.tobytes()
        assert not np.shares_memory(first.amplitudes, second.amplitudes)

    @pytest.mark.parametrize("width", [15, 16, 17])
    @pytest.mark.parametrize("offset, above", [(0, 0), (0, 2), (2, 1)], ids=["alone", "lowest", "above-others"])
    def test_sliced_table_is_factors_times_amplitudes(self, width, offset, above):
        n = offset + width + above
        rng = np.random.default_rng(100 * width + offset)
        outside = 1 << (n - width)
        table = sim._PhaseTable(Register(offset, width), rng.uniform(-4, 4, outside), rng.uniform(-4, 4, outside))
        state = random_state(n, rng)
        expected = np.multiply(table.factors(n), state.amplitudes)
        assert table.apply(state).amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("chunk", [4, 8, 64])
    def test_slice_size_leaves_every_bit(self, chunk):
        # the slicing rules at bounds small enough that every branch runs
        rng = np.random.default_rng(chunk)
        for n in range(1, 10):
            ops = [fused_table(n, rng)] if n > 1 else []
            for kind in ("PhaseLadder", "DiagonalPhase", "StatePrep"):
                reg, controls = wide_placement(n, rng) if n > 1 else (Register(0, 1), ())
                ops.append(OP_KINDS[kind](reg, controls, rng))
            state = random_state(n, rng)
            expected = [op.apply(state).amplitudes.tobytes() for op in ops]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "_STREAM_CHUNK", chunk)
                patch.setattr(sim, "_HADAMARD_CHUNK", chunk)
                assert [op.apply(state).amplitudes.tobytes() for op in ops] == expected

    def test_circuit_apply_peaks_near_two_buffers(self):
        # input and run buffer; every op kind at up to full width, one fused table among them
        n = 20
        rng = np.random.default_rng(20)
        whole = Register(0, n)
        ops = (
            HadamardLayer(whole),
            PhaseLadder(whole, 0.3),
            QftGate(whole, inverse=True),
            PhaseLadder(Register(0, n - 2), 0.7, (n - 2, n - 1)),
            HadamardLayer(Register(4, 8)),
            PhaseLadder(whole, -1.1),
            ControlledPhase((), 0.4),
            QftGate(Register(2, 16)),
            DiagonalPhase(whole, rng.uniform(-4, 4, 1 << n)),
            StatePrep(Register(8, 12), unit_vector(1 << 12, rng)),
            ControlledPhase((0, n - 1), 0.9),
        )
        circuit = Circuit(n, ops)
        assert any(isinstance(op, sim._PhaseTable) for op in _fuse_diagonals(ops, n))
        state = random_state(n, rng)
        buffer = state.amplitudes.nbytes
        assert (traced_peak(lambda: circuit.apply(state)) + buffer) / buffer <= 2.25


@st.composite
def diagonal_runs(draw):
    """(num_qubits, ops, seed): diagonal ops on random registers and controls.

    Ladders use one of two registers; controlled phases and diagonal tables
    may touch a ladder's register, and a Hadamard layer may sit between
    them, so some runs cannot be fused and stay op by op.
    """
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def register():
        offset = int(rng.integers(0, n))
        return Register(offset, int(rng.integers(1, n - offset + 1)))

    def subset(qubits):
        return tuple(q for q in qubits if rng.random() < 0.4)

    ladders = [register(), register()]
    ops = []
    for kind in draw(st.lists(st.sampled_from(["ladder", "phase", "table", "hadamard"]), max_size=12)):
        if kind == "ladder":
            reg = ladders[int(rng.integers(2))]
            controls = subset([q for q in range(n) if q not in reg.qubits()])
            ops.append(PhaseLadder(reg, rng.uniform(-4, 4), controls))
        elif kind == "phase":
            ops.append(ControlledPhase(subset(range(n)), rng.uniform(-4, 4)))
        elif kind == "table":
            reg = register()
            ops.append(DiagonalPhase(reg, rng.uniform(-4, 4, reg.size)))
        else:
            ops.append(HadamardLayer(register()))
    return n, ops, int(rng.integers(2**32))


DIAGONAL = (PhaseLadder, ControlledPhase, DiagonalPhase)
DENSE = BinaryPolynomial(3, {0: 0.5, 0b001: 1.25, 0b010: 0.75, 0b101: 2.0, 0b110: 0.3, 0b111: 0.1})


def _inner_product_circuit():
    """The gate list :func:`~qinterp.patterns.generalized_inner_product` reads."""
    layout = RegisterLayout(2, 3)
    keys, values = layout.key_register, layout.value_register
    poly = BinaryPolynomial(2, {0: 0.5, 0b01: 1.25, 0b10: 0.75, 0b11: 2.0})
    dictionary = dictionary_circuit(layout, poly, phase_corrected=True, prepare_keys=False)
    ops = (
        StatePrep(keys, np.full(4, 0.5)),
        *dictionary.ops,
        HadamardLayer(keys),
        StatePrep(values, np.full(8, 8**-0.5)).adjoint(),
    )
    return Circuit(layout.num_qubits, ops)


def _sweep_block_circuit():
    """The gate list of a four-point sweep block: linear dictionary F', then the inverse loader."""
    poly = BinaryPolynomial(2, {0: 1.5, 0b01: 0.25, 0b10: 0.5})
    encoder = dictionary_circuit(RegisterLayout(2, 4), poly, phase_corrected=True)
    return Circuit(encoder.num_qubits, encoder.ops + prepare_nu2(4).adjoint().ops)


PIPELINE_CIRCUITS = {
    "encoder-unsigned": lambda: value_encoding_circuit(4, 2.7),
    "encoder-twos": lambda: value_encoding_circuit(4, -1.3, TWOS),
    "real-encoder-unsigned": lambda: real_encoding_circuit(4, 2.7),
    "real-encoder-twos": lambda: real_encoding_circuit(4, -1.3, TWOS),
    "f-prime-sparse-twos": lambda: dictionary_circuit(
        RegisterLayout(3, 4), BinaryPolynomial(3, {0: -2.5, 0b011: 1.25, 0b100: 3.0}), TWOS, phase_corrected=True
    ),
    "f-prime-dense": lambda: dictionary_circuit(RegisterLayout(3, 4), DENSE, phase_corrected=True),
    "f-prime-constant-only": lambda: dictionary_circuit(
        RegisterLayout(3, 4), BinaryPolynomial(3, {0: 3.0}), phase_corrected=True
    ),
    "sweep-block": _sweep_block_circuit,
    "inner-product": _inner_product_circuit,
}


class TestCircuitFusion:
    @settings(max_examples=60)
    @given(case=diagonal_runs())
    def test_fused_apply_matches_op_by_op(self, case):
        n, ops, seed = case
        state = random_state(n, np.random.default_rng(seed))
        fused = Circuit(n, tuple(ops)).apply(state)
        assert np.max(np.abs(fused.amplitudes - apply_one_by_one(ops, state).amplitudes)) < 1e-12

    @pytest.mark.parametrize("name", sorted(PIPELINE_CIRCUITS))
    def test_dictionary_runs_fuse_into_two_tables(self, name):
        # every maximal diagonal run of two or more ops in a pipeline's gate list becomes one table
        circuit = PIPELINE_CIRCUITS[name]()
        fused = _fuse_diagonals(circuit.ops, circuit.num_qubits)
        expected = []
        for diagonal, run in itertools.groupby(circuit.ops, lambda op: isinstance(op, DIAGONAL)):
            run = list(run)
            expected += [None] if diagonal and len(run) >= 2 else run
        assert len(fused) == len(expected)
        for op, want in zip(fused, expected):
            assert op is want or want is None and isinstance(op, (sim._PhaseTable, DiagonalPhase))
        state = random_state(circuit.num_qubits, np.random.default_rng(17))
        direct = apply_one_by_one(circuit.ops, state).amplitudes
        assert np.max(np.abs(circuit.apply(state).amplitudes - direct)) < 1e-12

    @pytest.mark.parametrize(
        "ops",
        [
            (
                PhaseLadder(Register(0, 2), 0.3),
                ControlledPhase((2,), 0.2),
                PhaseLadder(Register(2, 2), -0.5, (0,)),
                ControlledPhase((), 0.1),
            ),
            (
                PhaseLadder(Register(0, 2), 0.3),
                ControlledPhase((2,), 0.2),
                DiagonalPhase(Register(1, 2), [0.4, -1.0, 2.2, 0.7]),
                ControlledPhase((3,), 0.1),
            ),
        ],
        ids=["two-ladder-registers", "table-inside-the-ladder"],
    )
    def test_run_no_table_holds_stays_op_by_op(self, ops):
        # a run fuses whole or not at all: no part of it becomes a table
        assert _fuse_diagonals(ops, 4) == list(ops)
        state = random_state(4, np.random.default_rng(23))
        direct = apply_one_by_one(ops, state).amplitudes
        assert Circuit(4, ops).apply(state).amplitudes.tobytes() == direct.tobytes()
        assert_state_is_apply(Circuit(4, (HadamardLayer(Register(0, 4)), *ops)))

    def test_invalid_op_raises_in_order(self):
        # the fusion pass leaves an op that does not fit the state to its own apply
        circuit = Circuit(3, (PhaseLadder(Register(0, 2), 0.3), ControlledPhase((5,), 0.2)))
        with pytest.raises(LayoutError, match="control qubit 5 out of range"):
            circuit.apply(zero_state(3))

    def test_ladder_free_run_fuses_into_one_table(self):
        # 4096 controlled phases and diagonal tables with no ladder: one op, built in one pass
        rng = np.random.default_rng(41)
        n = 6
        ops = []
        for _ in range(4096):
            if rng.random() < 0.1:
                reg = Register(int(rng.integers(0, n)), 1)
                ops.append(DiagonalPhase(reg, rng.uniform(-4, 4, 2)))
            else:
                controls = tuple(int(q) for q in np.flatnonzero(rng.random(n) < 0.4))
                ops.append(ControlledPhase(controls, rng.uniform(-4, 4)))
        fused = _fuse_diagonals(ops, n)
        assert len(fused) == 1
        state = random_state(n, rng)
        expected = apply_one_by_one(ops, state).amplitudes
        assert np.max(np.abs(fused[0].apply(state).amplitudes - expected)) < 1e-12
        assert np.max(np.abs(Circuit(n, tuple(ops)).apply(state).amplitudes - expected)) < 1e-12


@st.composite
def product_fronts(draw):
    """(num_qubits, ops): Hadamard layers on a random partition of the qubits, in random order,
    then a :func:`diagonal_runs` gate list and sometimes a QFT."""
    n, ops, seed = draw(diagonal_runs())
    rng = np.random.default_rng(seed)
    edges = [0, *sorted({int(c) for c in rng.integers(1, n, size=int(rng.integers(0, n)))}), n]
    front = [HadamardLayer(Register(lo, hi - lo)) for lo, hi in zip(edges, edges[1:])]
    rng.shuffle(front)
    tail = [QftGate(Register(0, n), inverse=True)] if rng.random() < 0.5 else []
    return n, tuple(front + ops + tail)


def assert_state_is_apply(circuit):
    expected = circuit.apply(zero_state(circuit.num_qubits)).amplitudes
    assert circuit.state().amplitudes.tobytes() == expected.tobytes()


class TestCircuitState:
    @settings(max_examples=80)
    @given(case=product_fronts())
    def test_product_front_matches_apply(self, case):
        n, ops = case
        assert sim._hadamard_front(ops, n) is not None
        assert_state_is_apply(Circuit(n, ops))

    @pytest.mark.parametrize(
        "ops",
        [
            (StatePrep(Register(0, 3), np.full(8, 8**-0.5)), PhaseLadder(Register(0, 3), 0.7)),
            (HadamardLayer(Register(0, 2)), PhaseLadder(Register(0, 2), 0.7)),
            (HadamardLayer(Register(1, 2)), PhaseLadder(Register(0, 3), 0.7)),
            (HadamardLayer(Register(0, 2)), HadamardLayer(Register(1, 2)), PhaseLadder(Register(0, 3), 0.7)),
            (HadamardLayer(Register(0, 2)), HadamardLayer(Register(0, 2)), PhaseLadder(Register(0, 3), 0.7)),
            (HadamardLayer(Register(0, 3)), HadamardLayer(Register(0, 3)), PhaseLadder(Register(0, 3), 0.7)),
            (HadamardLayer(Register(0, 3)), QftGate(Register(0, 3), inverse=True)),
            (HadamardLayer(Register(0, 1)), HadamardLayer(Register(1, 2))),
            (PhaseLadder(Register(0, 3), 0.7), HadamardLayer(Register(0, 3))),
            (),
        ],
        ids=[
            "state-prep-front", "partial-hadamards", "partial-high-hadamards", "overlapping-hadamards",
            "repeated-partial-hadamard", "repeated-full-hadamard", "no-diagonal-op", "hadamards-only",
            "ladder-first", "empty",
        ],
    )  # fmt: skip
    def test_other_fronts_match_apply(self, ops):
        assert_state_is_apply(Circuit(3, ops))

    def test_lone_ops_after_the_front_match_apply(self):
        rng = np.random.default_rng(5)
        reg = Register(1, 3)
        for op in (
            PhaseLadder(reg, 1.3, (0,)),
            PhaseLadder(reg, -2.1, (0, 4)),
            ControlledPhase((), 0.4),
            ControlledPhase((0, 3), -1.1),
            DiagonalPhase(reg, rng.uniform(-4, 4, reg.size)),
        ):
            assert_state_is_apply(Circuit(5, (HadamardLayer(Register(0, 5)), op)))

    @pytest.mark.parametrize(
        "ops",
        [
            (HadamardLayer(Register(0, 3)), PhaseLadder(Register(2, 3), 0.3)),
            (HadamardLayer(Register(0, 4)), PhaseLadder(Register(0, 3), 0.3)),
            (HadamardLayer(Register(0, 3)), PhaseLadder(Register(0, 2), 0.3), ControlledPhase((5,), 0.2)),
            (HadamardLayer(Register(0, 3)), DiagonalPhase(Register(1, 4), np.zeros(16))),
        ],
        ids=["ladder-outside", "hadamard-outside", "control-outside", "table-outside"],
    )
    def test_register_outside_the_width_raises_as_apply(self, ops):
        circuit = Circuit(3, ops)
        with pytest.raises(LayoutError) as expected:
            circuit.apply(zero_state(3))
        with pytest.raises(LayoutError) as raised:
            circuit.state()
        assert str(raised.value) == str(expected.value)

    def test_capacity_checked_before_allocation(self):
        circuit = Circuit(25, (HadamardLayer(Register(0, 25)), PhaseLadder(Register(0, 25), 0.3)))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                circuit.state()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _sub_register(reg, rng):
    offset = int(rng.integers(reg.offset, reg.offset + reg.width))
    return Register(offset, int(rng.integers(1, reg.offset + reg.width - offset + 1)))


def _local_op(reg, rng):
    """A random gate acting inside ``reg``."""
    sub = _sub_register(reg, rng)
    rest = [q for q in reg.qubits() if q not in sub.qubits()]
    kind = rng.choice(["hadamard", "ladder", "phase", "table", "qft", "prep"])
    if kind == "hadamard":
        return HadamardLayer(sub)
    if kind == "ladder":
        return PhaseLadder(sub, rng.uniform(-4, 4), tuple(q for q in rest if rng.random() < 0.5))
    if kind == "phase":
        controls = tuple(q for q in reg.qubits() if rng.random() < 0.5)
        return ControlledPhase(controls, rng.uniform(-4, 4))
    if kind == "table":
        return DiagonalPhase(sub, rng.uniform(-4, 4, sub.size))
    if kind == "qft":
        return QftGate(sub, inverse=bool(rng.integers(2)))
    return StatePrep(sub, unit_vector(sub.size, rng))


def _spanning_op(values, keys, rng):
    """A random gate on qubits of both registers that no phase table over ``values`` holds."""
    kind = rng.choice(["key ladder", "phase", "hadamard"])
    if kind == "key ladder":
        controls = tuple(q for q in values.qubits() if rng.random() < 0.5) or (values.offset,)
        return PhaseLadder(_sub_register(keys, rng), rng.uniform(-4, 4), controls)
    if kind == "phase":
        return ControlledPhase((int(rng.choice(values.qubits())), keys.offset), rng.uniform(-4, 4))
    lo = int(rng.integers(values.width))
    return HadamardLayer(Register(lo, int(rng.integers(values.width + 1, keys.offset + keys.width + 1)) - lo))


@st.composite
def layout_readouts(draw, refused=False):
    """(layout, ops, chunk): a readout whose middle is one phase table over the value register.

    Hadamard layers and random local ops come first and last.  The middle
    starts and ends with a ladder on the value register controlled by the
    keys, so none of it is peeled; between, ladders with any controls,
    controlled phases and diagonal tables on the keys.  With ``refused``
    the middle also holds one op on both registers that no such table
    holds, or holds only that op.  ``chunk`` is the slice bound the
    readout is run with.
    """
    n = draw(st.integers(2, 9))
    cut = draw(st.integers(1, n - 1))
    layout = RegisterLayout(n - cut, cut)
    values, keys = layout.value_register, layout.key_register
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def ladder(controlled):
        controls = tuple(q for q in keys.qubits() if rng.random() < 0.5)
        if controlled and not controls:
            controls = (keys.offset,)
        return PhaseLadder(values, rng.uniform(-4, 4), controls)

    def local():
        return _local_op((values, keys)[int(rng.integers(2))], rng)

    middle = [ladder(controlled=True)]
    for kind in draw(st.lists(st.sampled_from(["ladder", "phase", "table"]), max_size=5)):
        if kind == "ladder":
            middle.append(ladder(controlled=False))
        elif kind == "phase":
            controls = tuple(q for q in keys.qubits() if rng.random() < 0.5)
            middle.append(ControlledPhase(controls, rng.uniform(-4, 4)))
        else:
            sub = _sub_register(keys, rng)
            middle.append(DiagonalPhase(sub, rng.uniform(-4, 4, sub.size)))
    if draw(st.booleans()):
        middle.append(ladder(controlled=True))
    if refused:
        if draw(st.booleans()):  # the op alone, a key-register table for a key ladder
            middle = []
        middle.insert(draw(st.integers(0, len(middle))), _spanning_op(values, keys, rng))
    front = [HadamardLayer(values), HadamardLayer(keys)] + [local() for _ in range(draw(st.integers(0, 3)))]
    back = [local() for _ in range(draw(st.integers(0, 4)))]
    chunk = draw(st.sampled_from([2, 8, 64, sim._STREAM_CHUNK]))
    return layout, tuple(front + middle + back), chunk


class TestReadout:
    @settings(max_examples=80)
    @given(case=layout_readouts())
    def test_streamed_middle_matches_full_state_slices(self, case):
        layout, ops, chunk = case
        circuit = Circuit(layout.num_qubits, ops)
        full = circuit.apply(zero_state(layout.num_qubits)).amplitudes.reshape(layout.num_keys, layout.num_values)
        stream, phase_ramps = sim._stream, sim._phase_ramps
        streams, slices = [], []

        def recorded_ramps(offset, slope, width):
            slices.append(offset.shape[0] << width)
            return phase_ramps(offset, slope, width)

        def recorded_stream(*args):
            streams.append(args)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim, "_phase_ramps", recorded_ramps)
                return stream(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_STREAM_CHUNK", chunk)
            patch.setattr(sim, "_stream", recorded_stream)
            assert abs(circuit.readout(layout) - full[0, 0]) < 1e-12
            assert np.max(np.abs(circuit.readout(layout, keep_keys=True) - full[:, 0])) < 1e-12
        # both readouts streamed their table, in slices within the bound
        assert len(streams) == 2 and max(slices) <= chunk

    @settings(max_examples=80)
    @given(case=layout_readouts(refused=True))
    def test_middle_not_one_value_table_raises(self, case):
        layout, ops, _ = case
        circuit = Circuit(layout.num_qubits, ops)
        for keep_keys in (False, True):
            with pytest.raises(LayoutError, match="phase table over the value register"):
                circuit.readout(layout, keep_keys)

    def test_layout_must_match_the_circuit_width(self):
        circuit = Circuit(4, (HadamardLayer(Register(0, 4)),))
        for layout in (RegisterLayout(1, 2), RegisterLayout(2, 3)):
            with pytest.raises(LayoutError, match="4-qubit circuit"):
                circuit.readout(layout)

    def test_width_over_cap_raises_before_allocation(self):
        circuit = Circuit(30, (HadamardLayer(Register(0, 15)), HadamardLayer(Register(15, 15))))
        with pytest.raises(CapacityError):
            circuit.readout(RegisterLayout(15, 15))

    def test_invalid_op_raises(self):
        # an op outside the qubits acts inside no register, so it is refused with the middle
        circuit = Circuit(3, (HadamardLayer(Register(0, 1)), ControlledPhase((0, 5), 0.2)))
        with pytest.raises(LayoutError, match="phase table over the value register"):
            circuit.readout(RegisterLayout(2, 1))


class TestWideReadouts:
    """One seeded inner-product circuit per width past the property tests' 10 qubits.

    Its readout streams the controlled ladders' table over the value
    register.  At 22 qubits and up that register has 16 qubits or more, so
    ``_stream`` slices its columns at the real ``_STREAM_CHUNK``.
    """

    @pytest.mark.parametrize("n", [*range(13, 23), *WIDEST])
    def test_streamed_matches_full_state_slices(self, n):
        rng = np.random.default_rng(5000 + n)
        key_width = 6 if n >= 22 else int(rng.integers(1, 9))
        layout = RegisterLayout(key_width, n - key_width)
        keys, values = layout.key_register, layout.value_register
        domain = (EncodingDomain.UNSIGNED, TWOS)[n % 2]
        poly = in_domain_polynomial(rng, key_width, values.width, domain, "dense")
        dictionary = dictionary_circuit(layout, poly, domain, phase_corrected=True, prepare_keys=False)
        ops = (
            StatePrep(keys, unit_vector(keys.size, rng)),
            *dictionary.ops,
            HadamardLayer(keys),
            StatePrep(values, unit_vector(values.size, rng)).adjoint(),
        )
        circuit = Circuit(n, ops)
        full = circuit.state().amplitudes.reshape(keys.size, values.size)
        stream, streamed = sim._stream, []

        def recorded_stream(table, x):
            streamed.append(table.register)
            return stream(table, x)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_stream", recorded_stream)
            assert abs(circuit.readout(layout) - full[0, 0]) <= 1e-9
            assert np.max(np.abs(circuit.readout(layout, keep_keys=True) - full[:, 0])) <= 1e-9
        assert streamed == [values, values]


class TestStateVectorAccessors:
    def test_amplitude_of_zero_state(self):
        assert zero_state(2).amplitude(0) == 1 + 0j

    def test_amplitude_of_superposition(self):
        state = HadamardLayer(Register(0, 3)).apply(zero_state(3))
        assert abs(state.amplitude(5) - 1 / math.sqrt(8)) < 1e-14

    def test_amplitude_index_range(self):
        with pytest.raises(IndexError):
            zero_state(2).amplitude(4)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(30)
        state = random_state(5, rng)
        probs = state.probabilities()
        assert abs(probs.sum() - 1.0) < 1e-9
        assert probs.min() >= 0

    def test_layout_split_and_combine(self):
        layout = RegisterLayout(2, 3)
        for index in range(32):
            key, value = layout.split_index(index)
            assert layout.combined_index(key, value) == index
            assert 0 <= key < 4 and 0 <= value < 8
