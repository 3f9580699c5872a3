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


def mask_qubits(mask):
    """The qubits of a control mask, lowest first."""
    return tuple(q for q in range(64) if int(mask) >> q & 1)


def many_term_ladder(reg, qubits, rng, angles=None):
    """A ladder on ``reg`` of 1 to 8 terms, each controlled by a random subset of ``qubits``.

    Masks may repeat and may be 0.  ``angles`` draws the angles from the
    generator; by default they are uniform in [-4, 4).
    """
    count = int(rng.integers(1, 9))
    masks = [sum(1 << q for q in qubits if rng.random() < 0.5) for _ in range(count)]
    theta = rng.uniform(-4, 4, count) if angles is None else angles(count)
    return PhaseLadder(reg, theta, np.array(masks, dtype=np.int64))


@st.composite
def many_term_ladders(draw):
    """(num_qubits, ladder, seed): a ladder of many terms on a random register, controlled outside it.

    Its angles lie on a grid of 2^-8, so any sum of them is exact.
    """
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = int(rng.integers(0, n))
    reg = Register(offset, int(rng.integers(1, n - offset + 1)))
    outside = [q for q in range(n) if q not in reg.qubits()]
    ladder = many_term_ladder(reg, outside, rng, lambda count: rng.integers(-1024, 1024, count) / 256)
    return n, ladder, int(rng.integers(2**32))


class TestManyTermLadder:
    @settings(max_examples=80)
    @given(case=many_term_ladders())
    def test_matches_its_one_term_ladders(self, case):
        # the angles' sums are exact, so the two differ only in how the exponentials round
        n, ladder, seed = case
        state = random_state(n, np.random.default_rng(seed))
        terms = [PhaseLadder(ladder.register, float(t), mask_qubits(m)) for t, m in zip(ladder.theta, ladder.controls)]
        expected = apply_one_by_one(terms, state).amplitudes
        assert np.max(np.abs(ladder.apply(state).amplitudes - expected)) < 1e-15

    @settings(max_examples=40)
    @given(case=many_term_ladders())
    def test_one_term_is_the_one_term_form_bit_for_bit(self, case):
        n, ladder, seed = case
        state = random_state(n, np.random.default_rng(seed))
        theta, mask = ladder.theta[:1], ladder.controls[:1]
        single = PhaseLadder(ladder.register, theta, mask).apply(state).amplitudes
        plain = PhaseLadder(ladder.register, float(theta[0]), mask_qubits(mask[0])).apply(state).amplitudes
        assert single.tobytes() == plain.tobytes()

    @settings(max_examples=40)
    @given(case=many_term_ladders())
    def test_adjoint_undoes_it(self, case):
        n, ladder, seed = case
        state = random_state(n, np.random.default_rng(seed))
        back = ladder.apply(ladder.adjoint().apply(state)).amplitudes
        assert np.max(np.abs(back - state.amplitudes)) < 1e-15

    @pytest.mark.parametrize(
        "mask, message",
        [
            (0b0010, "control qubit 1 overlaps the target register"),
            (0b1001, "control qubit 3 out of range"),
            (1 << 40, "control qubit 40 out of range"),
            (-(1 << 63), "control qubit 63 out of range"),
        ],
        ids=["into-the-register", "past-the-width", "far-past-the-width", "negative"],
    )
    def test_row_that_does_not_fit(self, mask, message):
        # on 3 qubits with the ladder on qubits 1 and 2: the row is refused whole, before any
        # shift, and named as the one-term form names the same control qubits
        reg = Register(1, 2)
        ladder = PhaseLadder(reg, [0.3, -0.2, 0.5], np.array([0b1, mask, 0], dtype=np.int64))
        assert sim._fuse((ladder,), reg, 3) is None
        with pytest.raises(LayoutError) as info:
            ladder.apply(zero_state(3))
        assert str(info.value) == message
        if mask >= 0:
            with pytest.raises(LayoutError) as plain:
                PhaseLadder(reg, 0.5, mask_qubits(mask)).apply(zero_state(3))
            assert str(plain.value) == message
        fitting = PhaseLadder(reg, [0.3, 0.5], np.array([0b1, 0], dtype=np.int64))
        assert sim._fuse((fitting,), reg, 3) is not None


class TestLadderConstructor:
    def test_zero_d_angle_is_the_one_term_form(self):
        # (3,) stays control qubit 3; read as a mask it would be qubits 0 and 1
        state = HadamardLayer(Register(0, 4)).apply(zero_state(4))
        ladder = PhaseLadder(Register(2, 1), np.array(0.3), (3,))
        assert (type(ladder.theta), ladder.controls) == (float, (3,))
        plain = PhaseLadder(Register(2, 1), 0.3, (3,)).apply(state).amplitudes
        assert ladder.apply(state).amplitudes.tobytes() == plain.tobytes()

    def test_array_control_qubits_read_out_as_the_tuple_form(self):
        layout = RegisterLayout(2, 2)
        readouts = []
        for controls in ((2, 3), np.array([2, 3])):
            ladder = PhaseLadder(layout.value_register, 0.3, controls)
            assert ladder.controls == (2, 3)
            hadamards = (HadamardLayer(layout.key_register), HadamardLayer(layout.value_register))
            readouts.append(Circuit(4, (*hadamards, ladder)).readout(layout))
        assert readouts[0] == readouts[1] == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "theta, controls, shapes",
        [([0.1], [4, 8], "(1,) and (2,)"), ([0.1, 0.2], [4], "(2,) and (1,)"), ([0.1, 0.2], [[4, 8]], "(2,) and (1, 2)")],
        ids=["fewer-angles", "fewer-masks", "2-d-masks"],
    )
    def test_many_terms_need_one_angle_per_mask(self, theta, controls, shapes):
        with pytest.raises(LayoutError) as info:
            PhaseLadder(Register(0, 2), theta, controls)
        assert str(info.value) == f"a many-term ladder needs 1-d angles and masks of one length, got {shapes}"

    @pytest.mark.parametrize(
        "controls, named",
        [([2**63], "[9223372036854775808]"), ([1.5], "[1.5]"), (np.array([2**63], dtype=np.uint64), "array([")],
        ids=["past-int64", "fractional-mask", "unsigned-64-bit"],
    )
    def test_many_term_masks_must_be_64_bit_integers(self, controls, named):
        # one refusal, not numpy's OverflowError for 2**63 nor 1.5 read as the mask 1
        with pytest.raises(LayoutError) as info:
            PhaseLadder(Register(0, 1), [0.3], controls)
        assert str(info.value).startswith(f"many-term ladder masks {named}")
        assert str(info.value).endswith("are not 64-bit integers")

    def test_narrow_integer_and_empty_masks_are_kept(self):
        assert PhaseLadder(Register(0, 1), [0.3, 0.4], np.array([2, 4], dtype=np.uint8)).controls.tolist() == [2, 4]
        assert PhaseLadder(Register(0, 1), [], []).controls.dtype == np.int64

    @pytest.mark.parametrize(
        "controls, message",
        [((2.5,), "control qubit 2.5 is not an integer"), (3, "one-term controls 3 are not a sequence of qubits")],
        ids=["fractional-qubit", "bare-qubit"],
    )
    def test_one_term_controls_must_be_integer_qubits(self, controls, message):
        with pytest.raises(LayoutError) as info:
            PhaseLadder(Register(0, 2), 0.3, controls)
        assert str(info.value) == message


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
        # a run's own buffer type is an input like any other: apply copies it too
        buffer = sim._Buffer(n, before.copy())
        assert Circuit(n, (op,)).apply(buffer).amplitudes.tobytes() == bare.amplitudes.tobytes()
        assert np.array_equal(buffer.amplitudes, before)
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
        shape = (1 << above, 1 << offset)
        whole = sim._phase_ramps(table.offset.reshape(shape), table.slope.reshape(shape), width).reshape(-1)
        expected = np.multiply(whole, state.amplitudes)
        assert table.apply(state).amplitudes.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", [15, 16, 17])
    @pytest.mark.parametrize("offset", [0, 2])
    @pytest.mark.parametrize("controlled", [False, True], ids=["uncontrolled", "controlled"])
    def test_sliced_ladder_matches_index_arithmetic(self, width, offset, controlled):
        # a bare ladder whose table is applied in slices of its register, checked against
        # exp(i theta r) from each basis index; theta has 20 fraction bits, so theta * r is exact
        n = offset + width + 1
        reg = Register(offset, width)
        controls = tuple(q for q in range(n) if q not in reg.qubits()) if controlled else ()
        rng = np.random.default_rng(100 * width + 10 * offset + controlled)
        theta = int(rng.integers(-(1 << 22), 1 << 22)) / (1 << 20)
        index = np.arange(1 << n)
        mask = sum(1 << q for q in controls)
        phase = np.where(index & mask == mask, theta * (index >> offset & (reg.size - 1)), 0.0)
        ones = StateVector(n, np.ones(1 << n, dtype=complex))
        factors = PhaseLadder(reg, theta, controls).apply(ones).amplitudes
        assert np.max(np.abs(factors - np.exp(1j * phase))) < 1e-12

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
                patch.setattr(sim, "_CHUNK", chunk)
                assert [op.apply(state).amplitudes.tobytes() for op in ops] == expected

    @pytest.mark.parametrize("chunk", [2, 4, 8])
    def test_hadamard_blocks_stay_whole_under_a_small_budget(self, chunk):
        # a budget below a block's 16 entries still gives each matrix product its whole block;
        # a product over fewer columns may round differently, so this is not bit for bit
        rng = np.random.default_rng(chunk)
        state = random_state(7, rng)
        layers = [HadamardLayer(Register(offset, width)) for offset in range(3) for width in range(1, 8 - offset)]
        expected = [layer.apply(state).amplitudes for layer in layers]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK", chunk)
            for layer, want in zip(layers, expected):
                assert np.max(np.abs(layer.apply(state).amplitudes - want)) < 1e-15

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

    def test_full_width_state_prep_peaks_near_two_buffers(self):
        # the bare op's copy of the state and the loader's vector: no conjugate or scaled copy of it
        n = 20
        prep = StatePrep(Register(0, n), unit_vector(1 << n, np.random.default_rng(n)))
        state = zero_state(n)
        assert traced_peak(lambda: prep.apply(state)) / state.amplitudes.nbytes <= 2.25


@st.composite
def diagonal_runs(draw):
    """(num_qubits, ops, seed): diagonal ops on random registers and controls.

    Ladders, some of many terms, use one of two registers; controlled phases and diagonal tables
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
    for kind in draw(st.lists(st.sampled_from(["ladder", "terms", "phase", "table", "hadamard"]), max_size=12)):
        if kind in ("ladder", "terms"):
            reg = ladders[int(rng.integers(2))]
            outside = [q for q in range(n) if q not in reg.qubits()]
            if kind == "terms":
                ops.append(many_term_ladder(reg, outside, rng))
            else:
                ops.append(PhaseLadder(reg, rng.uniform(-4, 4), subset(outside)))
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
        # every maximal diagonal run that holds a ladder in a pipeline's gate list becomes one table,
        # a run of one ladder included
        circuit = PIPELINE_CIRCUITS[name]()
        fused = _fuse_diagonals(circuit.ops, circuit.num_qubits)
        expected = []
        for diagonal, run in itertools.groupby(circuit.ops, lambda op: isinstance(op, DIAGONAL)):
            run = list(run)
            expected += [None] if diagonal and any(isinstance(op, PhaseLadder) for op in run) else run
        assert len(fused) == len(expected)
        for op, want in zip(fused, expected):
            assert op is want or want is None and isinstance(op, sim._PhaseTable)
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

    @pytest.mark.parametrize(
        "op, message",
        [
            (ControlledPhase((5,), 0.2), "control qubit 5 out of range"),
            (ControlledPhase((-1,), 0.2), "control qubit -1 out of range"),
            (ControlledPhase((10**20,), 0.2), f"control qubit {10**20} out of range"),
            (PhaseLadder(Register(0, 2), 0.4, (-1,)), "control qubit -1 out of range"),
            (DiagonalPhase(Register(10**20, 1), [0, 0]), "does not fit a 3-qubit state"),
            (PhaseLadder(Register(0, 4), 0.4), "does not fit a 3-qubit state"),
        ],
        ids=["control-past-the-width", "negative-control", "huge-control", "negative-ladder-control",
             "huge-table-offset", "ladder-past-the-width"],
    )  # fmt: skip
    def test_invalid_op_raises_in_order(self, op, message):
        # the fusion pass leaves an op that does not fit the state to its own apply, and
        # range-checks a qubit before it shifts it, so a huge one fails fast, not in a mask
        circuit = Circuit(3, (PhaseLadder(Register(0, 2), 0.3), op))
        with pytest.raises(LayoutError, match=message):
            circuit.apply(zero_state(3))
        with pytest.raises(LayoutError, match="phase table over the value register"):
            circuit.readout(RegisterLayout(1, 2))

    def test_ladder_free_run_stays_op_by_op(self):
        # 4096 controlled phases and diagonal tables with no ladder: no register to fuse over
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
        assert _fuse_diagonals(ops, n) == list(ops)
        state = random_state(n, rng)
        direct = apply_one_by_one(ops, state).amplitudes
        assert Circuit(n, tuple(ops)).apply(state).amplitudes.tobytes() == direct.tobytes()
        assert_state_is_apply(Circuit(n, (HadamardLayer(Register(0, n)), *ops)))


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
        # a ladder on the whole register, as a readout's value factor: its table's ramp times h, written once,
        # in one slice up to 15 qubits and in several past that
        for width in range(1, 19):
            whole = Register(0, width)
            assert_state_is_apply(Circuit(width, (HadamardLayer(whole), PhaseLadder(whole, rng.uniform(-4, 4)))))

    @pytest.mark.parametrize("chunk", [2, 8, 64, None], ids=["chunk2", "chunk8", "chunk64", "real-chunk"])
    @pytest.mark.parametrize("width", [15, 16, 17])
    def test_split_register_table_matches_apply(self, width, chunk):
        # no QFT follows, so the table runs through its own apply on the constant start, sliced along
        # its register where one qubit below it and one above it take the table past one slice
        n, reg = width + 2, Register(1, width)
        rng = np.random.default_rng(width)
        ops = (
            HadamardLayer(Register(0, n)),
            PhaseLadder(reg, rng.uniform(-4, 4), (0,)),
            DiagonalPhase(Register(n - 1, 1), rng.uniform(-4, 4, 2)),
        )
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(sim, "_CHUNK", chunk)
            assert_state_is_apply(Circuit(n, ops))

    @pytest.mark.parametrize(
        "ops",
        [
            (HadamardLayer(Register(0, 3)), PhaseLadder(Register(2, 3), 0.3)),
            (HadamardLayer(Register(0, 4)), PhaseLadder(Register(0, 3), 0.3)),
            (HadamardLayer(Register(0, 3)), PhaseLadder(Register(0, 2), 0.3), ControlledPhase((5,), 0.2)),
            (HadamardLayer(Register(0, 3)), DiagonalPhase(Register(1, 4), np.zeros(16))),
            (HadamardLayer(Register(0, 10**20)),),
            (HadamardLayer(Register(10**20, 1)),),
        ],
        ids=["ladder-outside", "hadamard-outside", "control-outside", "table-outside", "huge-hadamard-width",
             "huge-hadamard-offset"],
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


def fourier_front(width, inverse, placement, rng):
    """Hadamard layers on every qubit, ladders on a ``width``-qubit register, then its QFT.

    ``alone``: the register is every qubit and holds one ladder.  ``between``:
    one qubit below the register and one above it, so its phase table has
    two rows and two columns, each with its own slope from ladders
    controlled by those qubits, and a controlled phase.  After the QFT a
    second such table on the register follows, as an encoder's correction:
    a ladder, a controlled ladder, a controlled phase and a diagonal table
    on the top qubit.
    """
    if placement == "alone":
        reg = Register(0, width)
        return Circuit(width, (HadamardLayer(reg), PhaseLadder(reg, rng.uniform(-4, 4)), QftGate(reg, inverse)))
    n, reg = width + 2, Register(1, width)
    ops = (
        HadamardLayer(Register(0, n)),
        PhaseLadder(reg, rng.uniform(-4, 4)),
        PhaseLadder(reg, rng.uniform(-4, 4), (0,)),
        PhaseLadder(reg, rng.uniform(-4, 4), (n - 1,)),
        ControlledPhase((0, n - 1), rng.uniform(-4, 4)),
        QftGate(reg, inverse),
        PhaseLadder(reg, rng.uniform(-4, 4)),
        PhaseLadder(reg, rng.uniform(-4, 4), (0,)),
        ControlledPhase((0,), rng.uniform(-4, 4)),
        DiagonalPhase(Register(n - 1, 1), rng.uniform(-4, 4, 2)),
    )
    return Circuit(n, ops)


def assert_near(state, expected, register_width):
    """Bit for bit up to a 15-qubit register, else to 4 eps."""
    if register_width <= 15:
        assert state.tobytes() == expected.tobytes()
    else:
        assert max_gap(state, expected) <= 4 * np.finfo(float).eps


def assert_state_near_apply(circuit, register_width):
    """``state()`` is ``apply(zero_state)``, as :func:`assert_near` compares them."""
    expected = circuit.apply(zero_state(circuit.num_qubits)).amplitudes
    assert_near(circuit.state().amplitudes, expected, register_width)


class TestFourierFront:
    """``Circuit.state()`` transforms a product-front table through ``_PhaseTable.fourier``, not ``QftGate``."""

    # width 21 is a 23-qubit circuit between its two outer qubits, so it runs with the wide checks
    @pytest.mark.parametrize("width", [*range(1, 21), pytest.param(21, marks=pytest.mark.wide)])
    @pytest.mark.parametrize("inverse", [True, False], ids=["inverse", "forward"])
    @pytest.mark.parametrize("placement", ["alone", "between"])
    def test_matches_apply(self, width, inverse, placement):
        circuit = fourier_front(width, inverse, placement, np.random.default_rng(width))
        assert_state_near_apply(circuit, width)

    @pytest.mark.wide
    @pytest.mark.parametrize("inverse", [True, False], ids=["inverse", "forward"])
    def test_matches_apply_at_the_cap(self, inverse):
        assert_state_near_apply(fourier_front(24, inverse, "alone", np.random.default_rng(24)), 24)

    def test_controlled_dictionary_matches_apply(self):
        rng = np.random.default_rng(16)
        layout = RegisterLayout(2, 16)
        poly = in_domain_polynomial(rng, layout.key_width, layout.value_width, EncodingDomain.UNSIGNED, "dense")
        circuit = dictionary_circuit(layout, poly, phase_corrected=True)
        assert_state_near_apply(circuit, layout.value_width)

    @pytest.mark.parametrize("chunk", [2, 8, 64])
    def test_small_slice_budgets(self, chunk):
        # a register past one slice takes an FFT head of at least one qubit and doubles the rest
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK", chunk)
            for width in range(1, 10):
                for placement in ("alone", "between"):
                    circuit = fourier_front(width, width % 2 == 0, placement, np.random.default_rng(width))
                    expected = circuit.apply(zero_state(circuit.num_qubits)).amplitudes
                    assert max_gap(circuit.state().amplitudes, expected) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("placement", ["alone", "between"])
    def test_cold_cache_gives_the_warm_bytes(self, placement):
        # a level's twiddles and start factors are cached, and shared with every wider register
        circuit = fourier_front(17, True, placement, np.random.default_rng(17))
        sim._doubling_factors.cache_clear()
        cold = circuit.state().amplitudes.tobytes()
        fourier_front(19, True, placement, np.random.default_rng(19)).state()
        misses = sim._doubling_factors.cache_info().misses
        assert circuit.state().amplitudes.tobytes() == cold
        assert sim._doubling_factors.cache_info().misses == misses
        # a level the encodes cached has the bytes of the expressions the doublings used before the cache
        sign, half, k = -1.0, 1 << 15, 4096 if placement == "alone" else 1024
        hits = sim._doubling_factors.cache_info().hits
        twiddles, starts = sim._doubling_factors(sign, half, k)
        assert sim._doubling_factors.cache_info().hits == hits + 1
        assert twiddles.tobytes() == np.exp(1j * sign * np.pi / half * np.arange(k))[:, None].tobytes()
        inline = [
            np.exp(1j * sign * np.pi * (j % (half // 2)) / half) * (sign * 1j if 2 * j >= half else 1.0)
            for j in range(0, half, k)
        ]
        assert starts.tobytes() == np.array(inline).tobytes()

    @pytest.mark.parametrize("top", [22, pytest.param(24, marks=pytest.mark.wide)])
    def test_cache_holds_one_entry_per_level_and_direction(self, top):
        # levels of 2^12 to 2^(top - 1) pairs in each direction, whatever the widths that use them
        sim._doubling_factors.cache_clear()
        for _ in range(2):
            for width in range(16, top + 1):
                for inverse in (True, False):
                    fourier_front(width, inverse, "alone", np.random.default_rng(width)).state()
        info = sim._doubling_factors.cache_info()
        assert info.currsize == info.misses == 2 * (top - 12) <= info.maxsize

    @pytest.mark.parametrize("width", [3, 17])
    def test_applies_no_qft_gate(self, width, monkeypatch):
        def refuse(op, state):
            raise AssertionError("QftGate applied")

        circuit = fourier_front(width, True, "between", np.random.default_rng(width))
        expected = circuit.apply(zero_state(circuit.num_qubits)).amplitudes
        monkeypatch.setattr(QftGate, "apply", refuse)
        assert max_gap(circuit.state().amplitudes, expected) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("build", ["corrected-encode", "f-prime"])
    def test_folds_the_table_after_the_qft(self, build, monkeypatch):
        # past 15 qubits the correction table is applied inside the transform: no op after the front runs
        def refuse(op, state):
            raise AssertionError(f"{type(op).__name__} applied")

        if build == "corrected-encode":
            circuit = real_encoding_circuit(17, -40503.37, TWOS)
        else:
            rng = np.random.default_rng(16)
            layout = RegisterLayout(1, 16)
            poly = in_domain_polynomial(rng, layout.key_width, layout.value_width, EncodingDomain.UNSIGNED, "dense")
            circuit = dictionary_circuit(layout, poly, phase_corrected=True)
        steps = _fuse_diagonals(circuit.ops, circuit.num_qubits)
        assert [type(op) for op in steps[-3:]] == [sim._PhaseTable, QftGate, sim._PhaseTable]
        expected = circuit.apply(zero_state(circuit.num_qubits)).amplitudes
        monkeypatch.setattr(sim._PhaseTable, "apply", refuse)
        monkeypatch.setattr(QftGate, "apply", refuse)
        assert max_gap(circuit.state().amplitudes, expected) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("width", [3, 17])
    @pytest.mark.parametrize("kind", ["table-on-another-register", "lone-diagonal", "table-on-the-qft-register"])
    def test_other_ops_after_the_qft_run_through_apply(self, width, kind, monkeypatch):
        # only a table on the QFT's register folds, and only past 15 qubits; anything else after
        # the QFT, and that table up to 15 qubits, is the next step, applied as in apply
        rng = np.random.default_rng(width)
        n, reg = width + 2, Register(1, width)
        if kind == "table-on-another-register":
            after = PhaseLadder(Register(n - 1, 1), rng.uniform(-4, 4), (0,))
            cls = sim._PhaseTable
        elif kind == "table-on-the-qft-register":
            after = PhaseLadder(reg, rng.uniform(-4, 4), (0,))
            cls = sim._PhaseTable
        else:
            after = DiagonalPhase(Register(n - 1, 1), rng.uniform(-4, 4, 2))
            cls = DiagonalPhase
        ops = (HadamardLayer(Register(0, n)), PhaseLadder(reg, rng.uniform(-4, 4), (0,)), QftGate(reg, True), after)
        circuit = Circuit(n, ops)
        expected = circuit.apply(zero_state(n)).amplitudes
        calls = []
        applied = cls.apply

        def spy(op, state):
            calls.append(op)
            return applied(op, state)

        monkeypatch.setattr(cls, "apply", spy)
        assert_near(circuit.state().amplitudes, expected, width)
        folded = kind == "table-on-the-qft-register" and width > 15
        assert len(calls) == (0 if folded else 1)


def _sub_register(reg, rng):
    offset = int(rng.integers(reg.offset, reg.offset + reg.width))
    return Register(offset, int(rng.integers(1, reg.offset + reg.width - offset + 1)))


def _local_op(reg, rng):
    """A random gate acting inside ``reg``."""
    sub = _sub_register(reg, rng)
    rest = [q for q in reg.qubits() if q not in sub.qubits()]
    kind = rng.choice(["hadamard", "ladder", "terms", "phase", "table", "qft", "prep"])
    if kind == "hadamard":
        return HadamardLayer(sub)
    if kind == "ladder":
        return PhaseLadder(sub, rng.uniform(-4, 4), tuple(q for q in rest if rng.random() < 0.5))
    if kind == "terms":
        return many_term_ladder(sub, rest, rng)
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
    kind = rng.choice(["key ladder", "key terms", "phase", "hadamard"])
    if kind == "key ladder":
        controls = tuple(q for q in values.qubits() if rng.random() < 0.5) or (values.offset,)
        return PhaseLadder(_sub_register(keys, rng), rng.uniform(-4, 4), controls)
    if kind == "key terms":  # one term at least is controlled by a value qubit
        ladder = many_term_ladder(_sub_register(keys, rng), values.qubits(), rng)
        return PhaseLadder(ladder.register, [*ladder.theta, 0.7], [*ladder.controls, 1 << values.offset])
    if kind == "phase":
        return ControlledPhase((int(rng.choice(values.qubits())), keys.offset), rng.uniform(-4, 4))
    lo = int(rng.integers(values.width))
    return HadamardLayer(Register(lo, int(rng.integers(values.width + 1, keys.offset + keys.width + 1)) - lo))


@st.composite
def layout_readouts(draw, refused=False):
    """(layout, ops, chunk): a readout whose middle is one phase table over the value register.

    Hadamard layers and random local ops come first and last.  The middle
    starts and ends with a ladder on the value register controlled by the
    keys, so none of it is peeled; between, ladders with any controls, some
    of many terms, controlled phases and diagonal tables on the keys.  With ``refused``
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
    for kind in draw(st.lists(st.sampled_from(["ladder", "terms", "phase", "table"]), max_size=5)):
        if kind == "ladder":
            middle.append(ladder(controlled=False))
        elif kind == "terms":
            middle.append(many_term_ladder(values, keys.qubits(), rng))
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
    chunk = draw(st.sampled_from([2, 8, 64, sim._CHUNK]))
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
            patch.setattr(sim, "_CHUNK", chunk)
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

    @pytest.mark.parametrize("domain", [EncodingDomain.UNSIGNED, TWOS], ids=["unsigned", "twos"])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_weighted_sum_readout_is_the_factor_contraction(self, kind, domain):
        # generalized_inner_product's circuit on the sum grid's (n, m) cells: the readout is, bit for bit,
        # each register's factors applied to |0> on their own, the value factors' product contracted with
        # the streamed middle, and that contracted with the key factors or run through the key tail
        rng = np.random.default_rng(32 + (kind == "sparse") + 2 * (domain is TWOS))
        for n, m in [(3, 4), (4, 5), (4, 6), (5, 6), (5, 8), (6, 4), (6, 6), (7, 10), (8, 4), (8, 8), (8, 10), (8, 12)]:
            layout = RegisterLayout(n, m)
            poly = in_domain_polynomial(rng, n, m, domain, kind)
            a = rng.uniform(0.1, 1.0, 1 << n)
            b = rng.uniform(0.1, 1.0, 1 << m)
            prep_a = StatePrep(layout.key_register, a / np.linalg.norm(a))
            prep_b = StatePrep(layout.value_register, b / np.linalg.norm(b))
            dictionary = dictionary_circuit(layout, poly, domain, phase_corrected=True, prepare_keys=False)
            circuit = Circuit(n + m, (prep_a, *dictionary.ops, HadamardLayer(layout.key_register), prep_b.adjoint()))
            hadamard, *ladders, qft, correction, key_phase = dictionary.ops
            constant = [op for op in ladders if not isinstance(op.theta, np.ndarray)]
            middle = [op for op in ladders if isinstance(op.theta, np.ndarray)]
            keys = Register(0, n)  # the key register lowered onto its own factor
            key_tail = (DiagonalPhase(keys, key_phase.phases), HadamardLayer(keys))

            def factor(width, ops, state=None):
                return Circuit(width, tuple(ops)).apply(zero_state(width) if state is None else state).amplitudes

            ket_values = factor(m, [hadamard, *constant])
            bra_values = factor(m, [prep_b, correction.adjoint(), qft.adjoint()]).conj()
            ket_keys = factor(n, [StatePrep(keys, prep_a.target)])
            bra_keys = factor(n, [op.adjoint() for op in key_tail[::-1]]).conj()
            contracted = sim._stream(sim._fuse(middle, layout.value_register, n + m), ket_values * bra_values)
            amplitude = complex(np.vecdot((ket_keys * bra_keys).conj(), contracted))
            kept = factor(n, key_tail, StateVector(n, ket_keys * contracted))
            assert circuit.readout(layout) == amplitude
            assert circuit.readout(layout, keep_keys=True).tobytes() == kept.tobytes()


@st.composite
def streamed_tables(draw, one_slice=False):
    """A phase table, the vector it is contracted with, and a ``_CHUNK``.

    Widths run from 1 to 16 and rows from 1 to 256, with ``rows * 2^width``
    kept to ``chunk * 2^10`` (so that a chunk of 2 takes at most about a
    thousand slices) and to ``2^20`` (the dense reference's table), or with
    ``one_slice`` to ``chunk`` itself.  Slopes are ``2 pi / M`` times a
    non-integer, up to about 50 in size.
    """
    chunk = draw(st.sampled_from([2, 8, 64, 1 << 15]))
    cap = chunk if one_slice else min(chunk << 10, 1 << 20)
    width = draw(st.integers(1, min(16, cap.bit_length() - 1)))
    rows = draw(st.integers(1, min(256, cap >> width)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << width
    turns = rng.uniform(-50, 50, rows) * size / (2 * np.pi) + rng.uniform(0.05, 0.95, rows)
    slope = turns * 2 * np.pi / size
    offset = rng.uniform(-60, 60, rows)
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    return sim._PhaseTable(Register(0, width), offset, slope), x, chunk


def dense_stream(table, x):
    """``D x`` from the whole table ``exp(i (offset[c] + slope[c] r))``, exponent by exponent.

    ``slope * r`` is not rounded: the slope splits into a float32 head, whose
    product with ``r < 2^16`` is exact in float64, and a tail, whose product
    is at most 0.2 in size.  A single ``offset + slope * r`` would round the
    phase at the scale of ``|slope| M``, up to about 5e-10 at M = 2^16.
    """
    r = np.arange(x.size)
    head = table.slope.astype(np.float32).astype(np.float64)
    tail = table.slope - head
    phases = np.exp(1j * table.offset)[:, None] * np.exp(1j * (head[:, None] * r)) * np.exp(1j * (tail[:, None] * r))
    return phases @ x


def recorded_stream(table, x, chunk):
    """``_stream(table, x)`` at ``chunk``, and the entries of each ramp it built."""
    phase_ramps, slices = sim._phase_ramps, []

    def recorded_ramps(offset, slope, width):
        slices.append(offset.size << width)
        return phase_ramps(offset, slope, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "_CHUNK", chunk)
        patch.setattr(sim, "_phase_ramps", recorded_ramps)
        return sim._stream(table, x), slices


class TestStream:
    @settings(max_examples=120)
    @given(case=streamed_tables())
    def test_matches_the_dense_table(self, case):
        table, x, chunk = case
        got, slices = recorded_stream(table, x, chunk)
        # relative to sum_r |x_r|, the size of each row's terms
        assert np.max(np.abs(got - dense_stream(table, x))) <= 1e-12 * np.sum(np.abs(x))
        assert max(slices) <= chunk

    @settings(max_examples=40)
    @given(case=streamed_tables(one_slice=True))
    def test_one_slice_is_the_single_ramp_vecdot(self, case):
        table, x, chunk = case
        got, slices = recorded_stream(table, x, chunk)
        offset, slope, width = table.offset[:, None], table.slope[:, None], table.register.width
        assert slices == [table.offset.size << width]
        assert np.array_equal(got, np.vecdot(x.conj(), sim._phase_ramps(offset, slope, width)[:, :, 0]))


class TestWideReadouts:
    """One seeded inner-product circuit per width past the property tests' 10 qubits.

    Its readout streams the controlled ladders' table over the value
    register.  At 22 qubits and up that register has 16 qubits or more, so
    ``_stream`` slices its columns at the real ``_CHUNK``.
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
