import math
import tracemalloc

import numpy as np
import pytest

from qinterp import (
    Circuit,
    DomainError,
    EncodingDomain,
    HadamardLayer,
    PhaseLadder,
    Register,
    encode_value,
    encode_value_real,
    fejer_kernel_row,
    phase_correction_circuit,
    real_encoding_circuit,
    value_encoding_circuit,
    zero_state,
)
from qinterp.encoding import _normalized_target

TWOS = EncodingDomain.TWOS_COMPLEMENT


def geometric_state(width, theta):
    """Equal-magnitude state with phases ``e^{i k theta}``: a Hadamard layer, then a phase ladder."""
    register = Register(0, width)
    return Circuit(width, (HadamardLayer(register), PhaseLadder(register, theta))).state()


class TestGeometricState:
    def test_zero_angle_is_uniform(self):
        state = geometric_state(3, 0.0)
        assert np.allclose(state.amplitudes, np.full(8, 1 / math.sqrt(8)))

    def test_pi_angle_alternates(self):
        state = geometric_state(3, 2 * math.pi * 4 / 8)
        expected = np.array([(-1) ** k for k in range(8)]) / math.sqrt(8)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-12

    def test_unit_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            state = geometric_state(4, rng.uniform(-8, 8))
            assert np.allclose(np.abs(state.amplitudes), 1 / 4.0)


class TestEncodeValue:
    def test_integer_is_certain(self):
        assert encode_value(3, 4).probability(4) > 1 - 1e-12

    def test_fractional_peaks_at_neighbors(self):
        probs = encode_value(3, 2.7).probabilities()
        top_two = set(np.argsort(probs)[-2:])
        assert top_two == {2, 3}

    def test_twos_complement_integer(self):
        assert encode_value(3, -4, TWOS).probability(4) > 1 - 1e-12

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            encode_value(3, 9)
        with pytest.raises(DomainError):
            encode_value(3, 4, TWOS)

    def test_magnitudes_follow_kernel(self):
        state = encode_value(3, 2.7)
        row = fejer_kernel_row(8, 2.7)
        assert np.max(np.abs(np.abs(state.amplitudes) - np.abs(row))) < 1e-12

    def test_residual_phases_present(self):
        # before correction the amplitudes are genuinely complex
        state = encode_value(3, 2.7)
        assert np.max(np.abs(state.amplitudes.imag)) > 0.01


class TestPhaseCorrection:
    def test_integer_state_unchanged(self):
        plain = encode_value(3, 4)
        corrected = phase_correction_circuit(3, 4).apply(plain)
        assert np.max(np.abs(corrected.amplitudes - plain.amplitudes)) < 1e-12

    def test_amplitudes_equal_kernel(self):
        corrected = phase_correction_circuit(3, 2.7).apply(encode_value(3, 2.7))
        row = fejer_kernel_row(8, 2.7)
        assert np.max(np.abs(corrected.amplitudes - row)) < 1e-10
        assert np.max(np.abs(corrected.amplitudes.imag)) < 1e-10

    def test_probabilities_preserved(self):
        plain = encode_value(3, 2.7)
        corrected = phase_correction_circuit(3, 2.7).apply(plain)
        assert np.max(np.abs(corrected.probabilities() - plain.probabilities())) < 1e-12


class TestRealEncoder:
    def test_integer_case(self):
        assert encode_value_real(3, 4).probability(4) > 1 - 1e-12

    def test_unitarity(self):
        circuit = real_encoding_circuit(4, 7.3)
        state = circuit.adjoint().apply(circuit.apply(zero_state(4)))
        assert state.probability(0) > 1 - 1e-12

    def test_kernel_amplitudes_m6(self):
        state = encode_value_real(6, 44.8)
        row = fejer_kernel_row(64, 44.8)
        assert np.max(np.abs(state.amplitudes - row)) < 1e-10

    def test_amplitude_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            m = int(rng.integers(1, 7))
            modulus = 1 << m
            t = float(rng.uniform(0, modulus))
            state = encode_value_real(m, t)
            row = fejer_kernel_row(modulus, t)
            assert np.max(np.abs(state.amplitudes - row)) < 1e-10

    def test_twos_complement_fractional(self):
        state = encode_value_real(3, -1.3, TWOS)
        row = fejer_kernel_row(8, 6.7)
        assert np.max(np.abs(state.amplitudes - row)) < 1e-10

    def test_fejer_mass_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(3, 9))
            modulus = 1 << m
            t = float(rng.uniform(0, modulus))
            if abs(t - round(t)) < 1e-9:
                continue
            probs = encode_value_real(m, t).probabilities()
            lo = int(math.floor(t)) % modulus
            hi = int(math.ceil(t)) % modulus
            assert probs[lo] + probs[hi] >= 0.81

    def test_half_integer_symmetry(self):
        for m, j in ((3, 4), (4, 6), (5, 0)):
            probs = encode_value_real(m, j + 0.5).probabilities()
            modulus = 1 << m
            assert abs(probs[j] - probs[(j + 1) % modulus]) < 1e-12


def seeded_targets(width):
    """An integer and a fractional target in each domain, drawn from a generator seeded by ``width``."""
    rng = np.random.default_rng(width)
    modulus = 1 << width
    for domain, low in ((EncodingDomain.UNSIGNED, 0), (TWOS, -modulus // 2)):
        yield domain, float(rng.integers(low, low + modulus))
        yield domain, float(rng.uniform(low, low + modulus))


class TestProductFront:
    # bit for bit up to 15 qubits; past that the inverse QFT of the product
    # state runs as radix-2 doublings, not one np.fft, and agrees to 4 eps
    @pytest.mark.parametrize("width", range(1, 23))
    def test_state_is_apply_to_zero_state(self, width):
        for domain, t in seeded_targets(width):
            for build in (value_encoding_circuit, real_encoding_circuit):
                circuit = build(width, t, domain)
                expected = circuit.apply(zero_state(width)).amplitudes
                state = circuit.state().amplitudes
                if width <= 15:
                    assert state.tobytes() == expected.tobytes(), (build.__name__, domain, t)
                else:
                    assert np.max(np.abs(state - expected)) <= 4 * np.finfo(float).eps, (build.__name__, domain, t)

    def test_encoders_apply_no_hadamard_layer(self, monkeypatch):
        # the Hadamard layer and the ladder after it are built as one table
        def refuse(op, state):
            raise AssertionError(f"{type(op).__name__} applied to a full state")

        monkeypatch.setattr(HadamardLayer, "apply", refuse)
        monkeypatch.setattr(PhaseLadder, "apply", refuse)
        assert np.max(np.abs(encode_value_real(6, 44.8).amplitudes - fejer_kernel_row(64, 44.8))) < 1e-10
        assert np.max(np.abs(np.abs(encode_value(6, 44.8).amplitudes) - np.abs(fejer_kernel_row(64, 44.8)))) < 1e-10
        assert np.allclose(geometric_state(3, 0.0).amplitudes, np.full(8, 1 / math.sqrt(8)))


# Widths 23 and 24 carry the ``wide`` mark: tier-1 leaves them out, and
# ``python -m pytest -m wide`` runs them.
WIDEST = [pytest.param(width, marks=pytest.mark.wide) for width in (23, 24)]


class TestWideEncodings:
    # one seeded target per width and encoder, up to the 24-qubit cap
    @pytest.mark.parametrize("corrected", [False, True], ids=["raw", "corrected"])
    @pytest.mark.parametrize("width", [*range(13, 23), *WIDEST])
    def test_matches_kernel_row(self, width, corrected):
        rng = np.random.default_rng(1000 + width)
        modulus = 1 << width
        domain = (EncodingDomain.UNSIGNED, TWOS)[int(rng.integers(2))]
        t = float(rng.uniform(0, modulus)) - (modulus / 2 if domain is TWOS else 0)
        state = (encode_value_real if corrected else encode_value)(width, t, domain)
        row = fejer_kernel_row(modulus, t)
        assert abs(state.norm() - 1.0) <= 1e-9
        if corrected:
            assert np.max(np.abs(state.amplitudes.imag)) <= 1e-9
            assert np.max(np.abs(state.amplitudes.real - row)) <= 1e-9
        else:
            assert np.max(np.abs(np.abs(state.amplitudes) - np.abs(row))) <= 1e-9


class TestEncodePeak:
    # the product-front table is the one buffer; the Fourier transform writes
    # through it in place, the correction table folded into it
    @pytest.mark.parametrize("encode", [encode_value, encode_value_real], ids=["raw", "corrected"])
    def test_twenty_qubit_encode_holds_one_buffer(self, encode):
        width = 20
        tracemalloc.start()
        try:
            state = encode(width, 517.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / state.amplitudes.nbytes <= 1.05


class TestValueEncoding:
    """The target the scalar encoders write, from ``_normalized_target``."""

    def test_normalization(self):
        assert _normalized_target(3, -4, TWOS) == 4.0

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            _normalized_target(3, 8.0, EncodingDomain.UNSIGNED)

    def test_negative_round_off_encodes_zero(self):
        assert _normalized_target(3, -1e-17, EncodingDomain.UNSIGNED) == 0.0
        assert np.array_equal(encode_value_real(3, -1e-17).amplitudes, encode_value_real(3, 0).amplitudes)
