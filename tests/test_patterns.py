import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polynomials import KINDS, in_domain_polynomial
from scalar_oracles import kernel_row

from qinterp import (
    BinaryPolynomial,
    CapacityError,
    DomainError,
    EncodingDomain,
    NormalizationError,
    RegisterLayout,
    dictionary_circuit,
    direct_weighted_identity_sum,
    direct_weighted_sum,
    fejer_kernel_row,
    generalized_inner_product,
    kernel_double_sum,
    lambda_amplitudes,
    nu2_amplitudes,
    polynomial_from_table,
    prepare_amplitudes,
    prepare_lambda,
    prepare_nu2,
    quantum_interpolate,
    quantum_interpolate_sweep,
    weighted_sum,
    zero_state,
)
from qinterp import patterns
from qinterp.kernels import normalize_to_domain

TWOS = EncodingDomain.TWOS_COMPLEMENT

DEMO_POLY = BinaryPolynomial(3, {0b000: 0.725, 0b010: 2.451, 0b100: 2.716, 0b101: 1.321})
ONE_VAR = BinaryPolynomial(1, {0: 1.0})


def demo_weights():
    return np.sin(np.arange(8) * np.pi / 8) ** 2


def unit(values):
    """``values`` as float64, divided by their norm."""
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


def identity_hash_sum(weights, poly, value_width, scale=1):
    """Weighted sum of ``poly`` with the identity hash on ``value_width`` qubits.

    The coefficients are encoded scaled by ``scale`` and the sum divided back.
    """
    hashes = np.arange(1 << value_width, dtype=np.float64)
    return weighted_sum(weights, poly.scaled(scale), hashes)[1] / scale


class TestUnitVectors:
    """``weighted_sum`` normalises its vectors; ``generalized_inner_product`` checks them."""

    def test_from_weights(self, monkeypatch):
        loaded = []

        def recording(key_amplitudes, poly, value_amplitudes, domain):
            loaded.append(key_amplitudes)
            return 0.25

        monkeypatch.setattr(patterns, "generalized_inner_product", recording)
        amplitude, total = weighted_sum([3.0, 4.0], ONE_VAR, [1.0, 0.0])
        assert np.allclose(loaded[0], [0.6, 0.8])
        # rescaled by sqrt(N) / 0.2: 0.2 is the factor from the raw weights to the loaded ones
        assert amplitude / total == pytest.approx(0.2 / math.sqrt(2))
        assert np.allclose(loaded[0] / 0.2, [3.0, 4.0])

    def test_norm_enforced(self):
        with pytest.raises(NormalizationError, match="key state"):
            generalized_inner_product(np.array([0.5, 0.5]), ONE_VAR, unit([1.0, 1.0]))
        with pytest.raises(NormalizationError, match="value state"):
            generalized_inner_product(unit([1.0, 1.0]), ONE_VAR, np.array([0.5, 0.5]))

    def test_zero_weights_rejected(self):
        with pytest.raises(NormalizationError, match="weight vector"):
            weighted_sum([0.0, 0.0], ONE_VAR, [1.0, 1.0])
        with pytest.raises(NormalizationError, match="hash vector"):
            weighted_sum([1.0, 1.0], ONE_VAR, [0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(NormalizationError):
            weighted_sum([bad, 1.0], ONE_VAR, [1.0, 1.0])

    @pytest.mark.parametrize("vector", ["weight", "hash"])
    def test_overflowing_norm_rejected(self, vector):
        # the squares overflow although every entry is finite; pytest's settings
        # make a RuntimeWarning an error, so this also checks that none is issued
        big, ones = [1e200, 1e200], [1.0, 1.0]
        weights, hashes = (big, ones) if vector == "weight" else (ones, big)
        with pytest.raises(NormalizationError, match=f"{vector} vector norm inf"):
            weighted_sum(weights, ONE_VAR, hashes)

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(NormalizationError):
            generalized_inner_product(np.array([math.nan, 0.0]), ONE_VAR, unit([1.0, 1.0]))

    def test_length_power_of_two(self):
        with pytest.raises(DomainError):
            weighted_sum([1.0, 2.0, 3.0], ONE_VAR, [1.0, 1.0])
        with pytest.raises(DomainError):
            generalized_inner_product(unit([1.0, 1.0]), ONE_VAR, unit([1.0, 2.0, 3.0]))


class TestPrepareAmplitudes:
    def test_basis_vector(self):
        target = np.zeros(32)
        target[5] = 1.0
        circuit = prepare_amplitudes(target)
        assert circuit.apply(zero_state(5)).probability(5) > 1 - 1e-12

    def test_uniform_matches_hadamard(self):
        circuit = prepare_amplitudes(np.full(8, 1 / math.sqrt(8)))
        state = circuit.apply(zero_state(3))
        assert np.allclose(state.amplitudes, 1 / math.sqrt(8), atol=1e-12)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        target = rng.normal(size=16)
        target /= np.linalg.norm(target)
        circuit = prepare_amplitudes(target)
        state = circuit.apply(zero_state(4))
        assert np.max(np.abs(state.amplitudes - target)) < 1e-10
        assert circuit.adjoint().apply(state).probability(0) > 1 - 1e-10

    def test_normalization_required(self):
        with pytest.raises(NormalizationError):
            prepare_amplitudes(np.ones(4))

    def test_nan_target_rejected(self):
        with pytest.raises(NormalizationError):
            prepare_amplitudes([math.nan, 1.0])


class TestNamedPreparations:
    def test_nu2_amplitude_at_midpoint(self):
        # m=3: amplitude of k=4 is sqrt(8/24) * sin^2(pi/2) = sqrt(1/3)
        state = prepare_nu2(3).apply(zero_state(3))
        assert abs(state.amplitude(4).real - math.sqrt(1 / 3)) < 1e-10

    def test_nu2_zero_at_origin(self):
        state = prepare_nu2(4).apply(zero_state(4))
        assert abs(state.amplitude(0)) < 1e-12

    def test_nu2_normalized(self):
        for m in (2, 3, 6):
            assert abs(np.linalg.norm(nu2_amplitudes(m)) - 1.0) < 1e-12

    def test_nu2_closed_form_constant(self):
        # the closed-form constant holds from m=2 upward
        m = 6
        modulus = 1 << m
        expected = np.sqrt(8 / (3 * modulus)) * np.sin(np.arange(modulus) * np.pi / modulus) ** 2
        assert np.max(np.abs(nu2_amplitudes(m) - expected)) < 1e-10

    def test_lambda_normalization_factor(self):
        norm = math.sqrt(sum(k * k for k in range(1, 64)))
        assert abs(norm - 292.137) < 1e-3
        assert abs(lambda_amplitudes(6)[1] - 1 / norm) < 1e-12

    def test_lambda_zero_at_origin_and_linear(self):
        amps = lambda_amplitudes(6)
        assert amps[0] == 0.0
        assert abs(amps[2] / amps[1] - 2.0) < 1e-12


class TestQuantumInterpolate:
    def test_negative_round_off_reads_zero(self):
        result = quantum_interpolate(prepare_nu2(3), -1e-17)
        assert result == quantum_interpolate(prepare_nu2(3), 0.0)

    def test_nu2_reference_point(self):
        result = quantum_interpolate(prepare_nu2(6), 44.8)
        assert abs(result.quantum_value - 0.1336) < 5e-4
        assert result.deviation < 1e-9

    def test_lambda_reference_point(self):
        result = quantum_interpolate(prepare_lambda(6), 44.8)
        assert abs(result.classical_value - 0.1546) < 5e-4
        assert result.deviation < 1e-9

    def test_integer_target_reads_amplitude(self):
        prep = prepare_nu2(4)
        amplitudes = prep.apply(zero_state(4)).amplitudes
        for t in (0, 3, 11):
            result = quantum_interpolate(prep, float(t))
            assert abs(result.quantum_value - amplitudes[t].real) < 1e-12

    def test_band_limited_envelope(self):
        # the kernel readout tracks the true band-limited value closely but
        # not exactly: the kernel is the odd-count interpolator evaluated on
        # an even grid (measured worst-case gap at m=6 is ~4e-5)
        modulus = 64
        exact = lambda t: math.sqrt(8 / (3 * modulus)) * math.sin(t * math.pi / modulus) ** 2
        rng = np.random.default_rng(1)
        prep = prepare_nu2(6)
        for t in rng.uniform(0, modulus, 50):
            result = quantum_interpolate(prep, float(t), exact_fn=exact)
            assert result.deviation < 1e-9
            assert abs(result.quantum_value - result.exact_value) < 1e-4

    def test_domain_error(self):
        with pytest.raises(DomainError):
            quantum_interpolate(prepare_nu2(3), 8.5)

    def test_twos_complement_target(self):
        result = quantum_interpolate(prepare_nu2(3), -3.5, TWOS)
        row = fejer_kernel_row(8, 4.5)
        expected = float(np.dot(nu2_amplitudes(3), row))
        assert abs(result.quantum_value - expected) < 1e-10

    def test_corrected_readout_records_no_imaginary_residual(self):
        assert quantum_interpolate(prepare_nu2(6), 44.8).imag_residual <= 1e-12
        sweep = quantum_interpolate_sweep(prepare_lambda(6), -20.5, 30.25, 37, TWOS)
        assert max(result.imag_residual for _, result in sweep) <= 1e-12


def check_sweep(samples, t_start, t_stop, steps, domain):
    """Every sweep point against the one-point readout and the Fejer oracle."""
    prep = prepare_amplitudes(samples)
    modulus = samples.size
    sweep = quantum_interpolate_sweep(prep, t_start, t_stop, steps, domain)
    assert [t for t, _ in sweep] == [
        t_start + i * (t_stop - t_start) / steps for i in range(steps)
    ]
    for t, result in sweep:
        single = quantum_interpolate(prep, t, domain)
        target = t + modulus if t < 0 else t
        oracle = float(np.dot(samples, fejer_kernel_row(modulus, target)))
        assert abs(result.quantum_value - single.quantum_value) <= 1e-12
        assert result.classical_value == single.classical_value
        assert abs(result.quantum_value - oracle) <= 1e-9
        assert result.imag_residual <= 1e-9


@st.composite
def sweeps(draw):
    width = draw(st.integers(1, 7))
    modulus = 1 << width
    source = draw(st.sampled_from(["nu2", "lambda", "table"]))
    if source == "nu2":
        samples = nu2_amplitudes(width)
    elif source == "lambda":
        samples = lambda_amplitudes(width)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        samples = rng.normal(size=modulus)
        samples /= np.linalg.norm(samples)
    domain = draw(st.sampled_from([EncodingDomain.UNSIGNED, TWOS]))
    lo, hi = (0.0, modulus) if domain is EncodingDomain.UNSIGNED else (-modulus / 2, modulus / 2)
    # Points lie between t_start and t_stop (t_stop excluded), so both ends in
    # [lo, hi) keep every point in the domain, for rising and falling sweeps.
    ends = st.floats(lo, hi, exclude_max=True, allow_nan=False)
    return samples, draw(ends), draw(ends), draw(st.integers(1, 130)), domain


class TestQuantumInterpolateSweep:
    def test_start_at_negative_round_off(self):
        sweep = quantum_interpolate_sweep(prepare_nu2(3), -1e-17, 8.0, 16)
        reference = quantum_interpolate_sweep(prepare_nu2(3), 0.0, 8.0, 16)
        for (_, point), (_, expected) in zip(sweep, reference):
            assert abs(point.quantum_value - expected.quantum_value) < 1e-12
            assert point.classical_value == expected.classical_value
    @settings(max_examples=25)
    @given(case=sweeps())
    def test_points_match_single_readout_and_oracle(self, case):
        check_sweep(*case)

    def test_points_at_the_domain_edge(self):
        # The points lie within 19 ulps of 8; in a batched block, round-off in
        # the polynomial's partial sums reaches 8 itself.
        start = 8.0 - 19 * math.ulp(8.0)
        check_sweep(nu2_amplitudes(3), start, 8.0, 44, EncodingDomain.UNSIGNED)

    def test_wide_register_spans_several_blocks(self):
        # With BLOCK_QUBITS = 14, 11 points at m=12 run as blocks of 4, 4, 2 and 1
        check_sweep(nu2_amplitudes(12), 100.3, 3000.7, 11, EncodingDomain.UNSIGNED)

    def test_twos_complement_sweep_crosses_zero(self):
        # negative block values exercise the dictionary's wrap compensation
        check_sweep(lambda_amplitudes(5), -10.3, 9.7, 64, TWOS)

    def test_out_of_domain_point_rejected(self):
        with pytest.raises(DomainError):
            quantum_interpolate_sweep(prepare_nu2(3), 4.0, 12.0, 8)

    def test_needs_a_step(self):
        with pytest.raises(DomainError):
            quantum_interpolate_sweep(prepare_nu2(3), 1.0, 2.0, 0)

    @pytest.mark.parametrize(
        "t_start, t_stop",
        [(math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0), (1e308, -1e308), (math.nan, 1.0)],
    )
    def test_bounds_not_finite_rejected_before_any_point(self, monkeypatch, t_start, t_stop):
        def no_point(*args):
            raise AssertionError("a point was computed")

        monkeypatch.setattr(patterns, "normalize_to_domain", no_point)
        with pytest.raises(DomainError, match="t_start = .* t_stop = "):
            quantum_interpolate_sweep(prepare_nu2(3), t_start, t_stop, 4)

    def test_step_count_capped_before_any_point_is_built(self):
        prep = prepare_nu2(3)
        tracemalloc.start()
        try:
            for steps in (patterns.MAX_SWEEP_STEPS + 1, 10**10):
                with pytest.raises(CapacityError):
                    quantum_interpolate_sweep(prep, 0.0, 8.0, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def check_classical_column(samples, t_start, t_stop, steps, domain):
    """The sweep's classical column against one ``np.dot`` per point.

    Returns the key width of every block the sweep tried, each with whether
    that block's circuit raised.
    """
    prep = prepare_amplitudes(samples)
    modulus = samples.size
    blocks = []
    block_readout = patterns._block_readout

    def recording(prep, t0, step, key_width, domain):
        blocks.append((key_width, True))
        amplitudes = block_readout(prep, t0, step, key_width, domain)
        blocks[-1] = (key_width, False)
        return amplitudes

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(patterns, "_block_readout", recording)
        sweep = quantum_interpolate_sweep(prep, t_start, t_stop, steps, domain)
    # the function samples as the sweep reads them, a real view of the prepared state
    function_samples = prep.apply(zero_state(prep.num_qubits)).amplitudes.real
    for t, result in sweep:
        row = kernel_row(modulus, normalize_to_domain(t, domain, modulus))
        assert result.classical_value == float(np.dot(function_samples, row))
    return blocks


class TestSweepClassicalColumn:
    @settings(max_examples=12)
    @given(
        seed=st.integers(0, 2**32 - 1),
        start=st.floats(0.0, 4096.0, exclude_max=True, allow_nan=False),
        steps=st.integers(5, 40),
    )
    def test_wide_register_over_several_blocks(self, seed, start, steps):
        samples = np.random.default_rng(seed).normal(size=1 << 12)
        samples /= np.linalg.norm(samples)
        blocks = check_classical_column(samples, start, 4095.9, steps, EncodingDomain.UNSIGNED)
        assert len(blocks) > 1 and max(blocks)[0] == patterns.BLOCK_QUBITS - 12

    @settings(max_examples=25)
    @given(case=sweeps())
    def test_any_sweep(self, case):
        check_classical_column(*case)

    def test_one_point_blocks_at_the_domain_edge(self):
        # as in TestQuantumInterpolateSweep.test_points_at_the_domain_edge:
        # round-off makes batched blocks fail, and each falls back to one point
        start = 8.0 - 19 * math.ulp(8.0)
        blocks = check_classical_column(nu2_amplitudes(3), start, 8.0, 44, EncodingDomain.UNSIGNED)
        failed = [i for i, (width, raised) in enumerate(blocks) if raised]
        assert failed and all(blocks[i + 1] == (0, False) for i in failed)


def check_round_off_zero(domain):
    """A key whose value is 0 up to negative round-off reads as the value 0 in ``domain``."""
    # key 3 evaluates to 0.3 - 0.1 - 0.2 = -2.8e-17: the value 0, not M or out of range
    poly = BinaryPolynomial(2, {0: 0.3, 1: -0.1, 2: -0.2})
    assert -1e-16 < poly.evaluate(3) < 0
    a = unit([0.1, 0.2, 0.3, 0.9])
    b = unit(np.arange(1.0, 9.0))
    quantum = generalized_inner_product(a, poly, b, domain)
    classical = kernel_double_sum(a, poly, b, domain)
    assert abs(quantum - classical) < 1e-12
    # the phase-corrected dictionary holds +1/2 at value 0 for key 3
    circuit = dictionary_circuit(RegisterLayout(2, 3), poly, domain, phase_corrected=True)
    slice3 = circuit.apply(zero_state(5)).amplitudes.reshape(4, 8)[3]
    assert np.max(np.abs(slice3 - fejer_kernel_row(8, 0.0) / 2)) < 1e-12


class TestGeneralizedInnerProduct:
    def test_reference_instance(self):
        w = demo_weights()
        h = np.arange(16, dtype=float)
        a = 1 / np.linalg.norm(w)
        b = 1 / np.linalg.norm(h)
        amplitude = generalized_inner_product(w * a, DEMO_POLY, h * b)
        assert abs(amplitude - 0.0879) < 1e-3

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            modulus = 1 << m
            poly = polynomial_from_table(rng.uniform(0, modulus, 1 << n))
            key_spec = unit(rng.normal(size=1 << n))
            value_spec = unit(rng.normal(size=modulus))
            quantum = generalized_inner_product(key_spec, poly, value_spec)
            classical = kernel_double_sum(key_spec, poly, value_spec)
            assert abs(quantum - classical) < 1e-9

    def test_oracle_equivalence_twos_complement(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            modulus = 1 << m
            poly = polynomial_from_table(rng.uniform(-modulus / 2, modulus / 2, 4))
            key_spec = unit(rng.normal(size=4))
            value_spec = unit(rng.normal(size=modulus))
            quantum = generalized_inner_product(key_spec, poly, value_spec, TWOS)
            classical = kernel_double_sum(key_spec, poly, value_spec, TWOS)
            assert abs(quantum - classical) < 1e-9

    def test_oracle_takes_integers_of_the_unsigned_range_in_twos_complement(self):
        # the dictionary accepts the integer 3 in a 2-qubit two's-complement register
        poly = BinaryPolynomial(1, {0: 3.0, 1: -2.0})  # values 3 and 1
        key_spec = unit([0.6, 0.8])
        value_spec = unit([0.1, 0.2, 0.3, 0.4])
        quantum = generalized_inner_product(key_spec, poly, value_spec, TWOS)
        classical = kernel_double_sum(key_spec, poly, value_spec, TWOS)
        expected = (0.6 * value_spec[3] + 0.8 * value_spec[1]) / math.sqrt(2)
        assert abs(classical - expected) < 1e-15
        assert abs(quantum - classical) < 1e-12

    def test_value_zero_up_to_negative_round_off_in_twos_complement(self):
        check_round_off_zero(TWOS)

    def test_value_zero_up_to_negative_round_off_in_unsigned(self):
        check_round_off_zero(EncodingDomain.UNSIGNED)

    def test_matches_oracle_at_the_qubit_cap(self):
        # 10 key and 14 value qubits fill the 24-qubit cap; 1024 dense terms
        rng = np.random.default_rng(24)
        poly = in_domain_polynomial(rng, 10, 14, EncodingDomain.UNSIGNED, "dense")
        key_spec = unit(rng.uniform(0.1, 1.0, 1 << 10))
        value_spec = unit(rng.uniform(0.1, 1.0, 1 << 14))
        quantum = generalized_inner_product(key_spec, poly, value_spec)
        classical = kernel_double_sum(key_spec, poly, value_spec)
        assert abs(quantum - classical) < 1e-9

    def test_uniform_keys_basis_value_selector(self):
        # f == 0 everywhere, value weights pick out |0>: every key contributes
        poly = BinaryPolynomial(2, {0: 0.0})
        key_spec = unit(np.ones(4))
        selector = np.zeros(8)
        selector[0] = 1.0
        value_spec = selector
        quantum = generalized_inner_product(key_spec, poly, value_spec)
        classical = kernel_double_sum(key_spec, poly, value_spec)
        assert abs(quantum - classical) < 1e-12
        assert abs(quantum - 1.0) < 1e-12  # all four keys project back onto |0> coherently


@st.composite
def weighted_dictionaries(draw, domains=(EncodingDomain.UNSIGNED, TWOS), kinds=KINDS):
    """(key weights, polynomial, value weights, domain) with n + m up to 11 qubits."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 11 - n))
    domain = draw(st.sampled_from(domains))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = in_domain_polynomial(rng, n, m, domain, draw(st.sampled_from(kinds)))
    key_spec = unit(rng.normal(size=1 << n))
    value_spec = unit(rng.normal(size=1 << m))
    return key_spec, poly, value_spec, domain


class TestInnerProductProperties:
    @settings(max_examples=40)
    @given(case=weighted_dictionaries())
    def test_matches_kernel_double_sum(self, case):
        key_spec, poly, value_spec, domain = case
        quantum = generalized_inner_product(key_spec, poly, value_spec, domain)
        classical = kernel_double_sum(key_spec, poly, value_spec, domain)
        assert abs(quantum - classical) < 1e-9

    @settings(max_examples=40)
    @given(case=weighted_dictionaries(kinds=("tenths",)))
    def test_matches_kernel_double_sum_at_round_off_zeros(self, case):
        key_spec, poly, value_spec, domain = case
        quantum = generalized_inner_product(key_spec, poly, value_spec, domain)
        classical = kernel_double_sum(key_spec, poly, value_spec, domain)
        assert abs(quantum - classical) < 1e-9

    def test_direct_weighted_sum_matches_key_loop(self):
        rng = np.random.default_rng(14)
        for kind in KINDS:
            poly = in_domain_polynomial(rng, 6, 4, EncodingDomain.UNSIGNED, kind)
            w = rng.normal(size=64)
            h = rng.normal(size=16)
            loop = sum(w[k] * h[int(round(poly.evaluate(k))) % 16] for k in range(64))
            assert abs(direct_weighted_sum(w, poly, h) - loop) < 1e-12


class TestWeightedSum:
    def test_reference_m4(self):
        w = demo_weights()
        h = np.arange(16, dtype=float)
        amplitude, total = weighted_sum(w, DEMO_POLY, h)
        assert abs(total - 15.1555) < 0.2
        assert abs(amplitude - 0.0879) < 1e-3

    def test_scaling_invariance(self):
        w = demo_weights()
        h = np.arange(16, dtype=float)
        base = weighted_sum(w, DEMO_POLY, h)[1]
        scaled = weighted_sum(3.0 * w, DEMO_POLY, h)[1]
        assert abs(base - scaled / 3.0) < 1e-9

    def test_normalization_checked(self):
        # the inner product takes unit vectors only; weighted_sum normalises first
        w = demo_weights()
        h = np.arange(16, dtype=float)
        with pytest.raises(NormalizationError):
            generalized_inner_product(w, DEMO_POLY, unit(h))


@st.composite
def weighted_sum_cases(draw):
    """(weights, polynomial, hash values, domain): identity or explicit hash, up to 11 qubits."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 11 - n))
    domain = draw(st.sampled_from((EncodingDomain.UNSIGNED, TWOS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = in_domain_polynomial(rng, n, m, domain, draw(st.sampled_from(KINDS)))
    weights = rng.normal(size=1 << n)
    if draw(st.booleans()):
        hashes = np.arange(1 << m, dtype=np.float64)
    else:
        hashes = rng.normal(size=1 << m)
    return weights, poly, hashes, domain


class TestWeightedSumProperties:
    @settings(max_examples=40)
    @given(case=weighted_sum_cases())
    def test_rescales_the_oracle_amplitude(self, case):
        w, poly, h, domain = case
        amplitude, total = weighted_sum(w, poly, h, domain)
        factor = math.sqrt(w.size) * np.linalg.norm(w) * np.linalg.norm(h)
        expected = factor * kernel_double_sum(unit(w), poly, unit(h), domain)
        # relative to the rescale factor, which bounds |sum| since |amplitude| <= 1
        assert abs(total - expected) <= 1e-9 * factor
        a = w * (1.0 / np.linalg.norm(w))
        b = h * (1.0 / np.linalg.norm(h))
        assert amplitude == generalized_inner_product(a, poly, b, domain)


class TestExpectedValue:
    """Weighted sums with the identity hash: the expected value of f under the weights."""

    def test_reference_m4(self):
        assert abs(identity_hash_sum(demo_weights(), DEMO_POLY, 4) - 15.1555) < 0.2

    def test_reference_m10_scaled(self):
        assert abs(identity_hash_sum(demo_weights(), DEMO_POLY, 10, scale=64) - 15.9186) < 5e-2

    def test_precision_improves_with_scaling(self):
        target = direct_weighted_identity_sum(demo_weights(), DEMO_POLY)
        err4 = abs(identity_hash_sum(demo_weights(), DEMO_POLY, 4) - target)
        err10 = abs(identity_hash_sum(demo_weights(), DEMO_POLY, 10, scale=64) - target)
        assert err10 < err4

    def test_constant_integer_poly(self):
        poly = BinaryPolynomial(2, {0: 5.0})
        weights = np.ones(4)
        result = identity_hash_sum(weights, poly, 3)
        assert abs(result - 20.0) < 1e-6

    def test_zero_poly(self):
        poly = BinaryPolynomial(2, {0: 0.0})
        result = identity_hash_sum(np.ones(4), poly, 3)
        assert abs(result) < 1e-9

    def test_weight_count_checked(self):
        with pytest.raises(DomainError):
            identity_hash_sum(np.ones(4), DEMO_POLY, 4)


class TestImaginaryPartWarning:
    def test_warns_on_complex_preparation(self):
        target = np.zeros(8, dtype=complex)
        target[0] = 1 / math.sqrt(2)
        target[3] = 1j / math.sqrt(2)
        prep = prepare_amplitudes(target)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = quantum_interpolate(prep, 2.5)
        assert any("non-real" in str(w.message) for w in caught)
        assert result.imag_residual > 1e-8
        assert any(f"{result.imag_residual:.3e}" in str(w.message) for w in caught)
