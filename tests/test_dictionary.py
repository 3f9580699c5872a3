import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from polynomials import KINDS, in_domain_polynomial, random_polynomial

from qinterp import (
    BinaryPolynomial,
    CapacityError,
    DomainError,
    EncodingDomain,
    ParseError,
    RegisterLayout,
    ValueRangeError,
    dictionary_circuit,
    encode_value,
    encode_value_real,
    fejer_kernel_row,
    format_polynomial,
    normalize_to_domain,
    parse_polynomial,
    polynomial_from_table,
    validate_values,
    zero_state,
)
from qinterp.kernels import domain_bounds
from qinterp.sim import MAX_QUBITS, Circuit, ControlledPhase, DiagonalPhase, PhaseLadder, StateVector

TWOS = EncodingDomain.TWOS_COMPLEMENT

LINEAR = BinaryPolynomial(2, {0b00: 1.2, 0b01: 0.4, 0b10: 0.8})  # f(k) = 1.2 + 0.4 k


def conditional_value_state(state, layout, key):
    """Value-register state of one key, renormalized."""
    slice_ = state.amplitudes.reshape(layout.num_keys, layout.num_values)[key]
    return slice_ / np.linalg.norm(slice_)


def key_probabilities(state, layout):
    return state.probabilities().reshape(layout.num_keys, layout.num_values).sum(axis=1)


class TestEvaluate:
    def test_linear_function(self):
        assert abs(LINEAR.evaluate(3) - 2.4) < 1e-15
        assert [LINEAR.evaluate(k) for k in range(4)] == pytest.approx([1.2, 1.6, 2.0, 2.4])

    def test_constant_term(self):
        assert LINEAR.evaluate(0) == 1.2

    def test_three_var_mixed_terms(self):
        poly = BinaryPolynomial(3, {0: 0.725, 0b010: 2.451, 0b100: 2.716, 0b101: 1.321})
        # key 5 has bits 0 and 2 set: constant + the two masks covered by them
        assert abs(poly.evaluate(5) - 4.762) < 1e-12

    def test_key_range(self):
        with pytest.raises(DomainError):
            LINEAR.evaluate(4)

    def test_mask_range(self):
        with pytest.raises(DomainError):
            BinaryPolynomial(2, {0b100: 1.0})


class TestFromTable:
    def test_constant_table(self):
        poly = polynomial_from_table([2.5, 2.5, 2.5, 2.5])
        assert poly.terms == {0: 2.5}

    def test_linear_table(self):
        poly = polynomial_from_table([1.2, 1.6, 2.0, 2.4])
        significant = {mask: c for mask, c in poly.terms.items() if abs(c) > 1e-9}
        assert significant == pytest.approx({0: 1.2, 1: 0.4, 2: 0.8})
        assert np.max(np.abs(poly.values_table() - [1.2, 1.6, 2.0, 2.4])) < 1e-12

    def test_random_roundtrip(self):
        rng = np.random.default_rng(0)
        table = rng.normal(size=8)
        poly = polynomial_from_table(table)
        assert np.max(np.abs(poly.values_table() - table)) < 1e-12

    def test_non_power_of_two(self):
        with pytest.raises(DomainError):
            polynomial_from_table([1.0, 2.0, 3.0])


@st.composite
def polynomials(draw):
    """Dense or sparse polynomials over 1..10 variables, coefficients in [-1, 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_polynomial(rng, draw(st.integers(1, 10)), draw(st.booleans()))


class TestSubsetSums:
    @settings(max_examples=40)
    @given(poly=polynomials())
    def test_values_table_matches_evaluate(self, poly):
        expected = [poly.evaluate(k) for k in range(poly.num_keys)]
        assert np.max(np.abs(poly.values_table() - expected)) < 1e-12

    @settings(max_examples=40)
    @given(poly=polynomials())
    def test_from_table_inverts_values_table(self, poly):
        table = poly.values_table()
        assert np.max(np.abs(polynomial_from_table(table).values_table() - table)) < 1e-12


class TestTextFormat:
    def test_parse_basic(self):
        poly = parse_polynomial("0.725: 1\n2.451: k1\n2.716: k2\n1.321: k0*k2\n")
        assert poly.num_vars == 3
        assert poly.terms == pytest.approx({0: 0.725, 0b010: 2.451, 0b100: 2.716, 0b101: 1.321})

    def test_comments_and_blank_lines(self):
        poly = parse_polynomial("# header\n\n1.5: 1  # trailing\n")
        assert poly.terms == {0: 1.5}

    def test_duplicate_terms_accumulate(self):
        poly = parse_polynomial("1.0: k0\n0.5: k0\n")
        assert poly.terms == {1: 1.5}

    def test_roundtrip(self):
        text = format_polynomial(LINEAR)
        again = parse_polynomial(text, 2)
        assert again.terms == pytest.approx(LINEAR.terms)

    def test_numpy_coefficients_coerced(self):
        poly = BinaryPolynomial(2, {np.int64(1): np.float64(0.4)})
        assert type(next(iter(poly.terms))) is int
        text = format_polynomial(poly)
        assert parse_polynomial(text, 2).terms == pytest.approx({1: 0.4})

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_polynomial("not a line\n")
        with pytest.raises(ParseError):
            parse_polynomial("1.0: q3\n")
        with pytest.raises(ParseError):
            parse_polynomial("")
        with pytest.raises(ParseError):
            parse_polynomial("1.0: k5\n", num_vars=2)

    def test_variable_index_bound_without_a_count(self):
        assert parse_polynomial("1: k23").num_vars == MAX_QUBITS
        with pytest.raises(ParseError, match="variable k24, but only 24 variables are supported"):
            parse_polynomial("1: k24")

    def test_huge_variable_index_refused_before_its_mask(self):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="variable k1000000000, but only 2 variables are declared"):
                parse_polynomial("1: k1000000000", 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("num_vars", [0, -1])
    def test_no_variables_declared(self, num_vars):
        with pytest.raises(ParseError, match=f"at least one variable, but {num_vars} declared"):
            parse_polynomial("1: 1", num_vars)

    @pytest.mark.parametrize(
        "text, num_vars, terms",
        [
            ("1: k01", 2, {0b10: 1.0}),
            ("1: k007*k2", 8, {0b10000100: 1.0}),
            ("1:  k1 * k0 ", 2, {0b11: 1.0}),
            ("1: k0*k0", 1, {0b1: 1.0}),
            ("1: k1\n2: k1\n0.5: 1\n4: k1\n", 2, {0b10: 7.0, 0: 0.5}),
        ],
        ids=["leading-zero", "zeros-and-plain", "spaces", "repeated-factor", "repeated-lines"],
    )
    def test_spellings_keep_their_masks(self, text, num_vars, terms):
        # a leading zero names the same variable, a repeated factor adds no bit, repeated lines add up
        poly = parse_polynomial(text)
        assert (poly.num_vars, poly.terms) == (num_vars, terms)

    @pytest.mark.parametrize(
        "text, num_vars, message",
        [
            ("1: kx", None, "line 1: bad term factor 'kx'"),
            ("1: k-1", None, "line 1: bad term factor 'k-1'"),
            ("1: k1*k2", 2, "line 1: term uses variable k2, but only 2 variables are declared"),
            ("1: k24", None, "line 1: term uses variable k24, but only 24 variables are supported"),
            (
                "1: k0\n2: k099999999999999999999",
                None,
                "line 2: term uses variable k99999999999999999999, but only 24 variables are supported",
            ),
        ],
        ids=["letter", "negative", "past-the-count", "past-the-cap", "twenty-digits"],
    )
    def test_refusals_keep_their_text(self, text, num_vars, message):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, num_vars)
        assert str(info.value) == message

    @settings(max_examples=60)
    @given(poly=polynomials())
    def test_format_then_parse_is_the_polynomial(self, poly):
        again = parse_polynomial(format_polynomial(poly), poly.num_vars)
        assert (again.num_vars, again.terms) == (poly.num_vars, poly.terms)


class TestOperatorF:
    def test_constant_integer_function(self):
        poly = BinaryPolynomial(1, {0: 4.0})
        layout = RegisterLayout(1, 3)
        probs = dictionary_circuit(layout, poly).apply(zero_state(4)).probabilities()
        for key in (0, 1):
            assert abs(probs[layout.combined_index(key, 4)] - 0.5) < 1e-12

    def test_key_marginal_uniform(self):
        layout = RegisterLayout(2, 3)
        state = dictionary_circuit(layout, LINEAR).apply(zero_state(5))
        assert np.max(np.abs(key_probabilities(state, layout) - 0.25)) < 1e-10

    def test_integer_poly_measures_exact_pairs(self):
        poly = BinaryPolynomial(2, {0: 1.0, 0b01: 2.0, 0b10: 4.0})
        layout = RegisterLayout(2, 3)
        probs = dictionary_circuit(layout, poly).apply(zero_state(5)).probabilities()
        for key in range(4):
            value = int(poly.evaluate(key))
            assert abs(probs[layout.combined_index(key, value)] - 0.25) < 1e-12

    def test_slices_match_plain_encoding(self):
        layout = RegisterLayout(2, 3)
        state = dictionary_circuit(layout, LINEAR).apply(zero_state(5))
        for key in range(4):
            slice_ = conditional_value_state(state, layout, key)
            reference = encode_value(3, LINEAR.evaluate(key)).amplitudes
            assert np.max(np.abs(slice_ - reference)) < 1e-10

    @pytest.mark.parametrize("phase_corrected", [False, True])
    def test_dense_polynomial_is_one_ladder_of_many_terms(self, phase_corrected):
        # a dense (8, 4) F: the constant's own ladder and one ladder holding the other 255 terms,
        # whose state is bit for bit that of one controlled ladder per monomial
        layout = RegisterLayout(8, 4)
        poly = polynomial_from_table(np.random.default_rng(5).uniform(0.25, 15.75, 256))
        circuit = dictionary_circuit(layout, poly, phase_corrected=phase_corrected)
        ladders = [op for op in circuit.ops if isinstance(op, PhaseLadder)]
        assert len(circuit.ops) == 5 + 2 * phase_corrected and len(ladders) == 2 + phase_corrected
        constant, terms = ladders[:2]
        assert constant.controls == () and constant.theta == 2 * np.pi * poly.terms[0] / 16
        assert sorted(terms.controls) == [mask << 4 for mask in range(1, 256)]
        one_each = tuple(
            PhaseLadder(layout.value_register, 2 * np.pi * coef / 16, tuple(4 + j for j in range(8) if mask >> j & 1))
            for mask, coef in sorted(poly.terms.items())[1:]
        )
        i = circuit.ops.index(terms)
        old = Circuit(layout.num_qubits, circuit.ops[:i] + one_each + circuit.ops[i + 1 :])
        assert circuit.state().amplitudes.tobytes() == old.state().amplitudes.tobytes()


class TestOperatorFPrime:
    def test_all_amplitudes_real(self):
        layout = RegisterLayout(2, 3)
        state = dictionary_circuit(layout, LINEAR, phase_corrected=True).apply(zero_state(5))
        assert np.max(np.abs(state.amplitudes.imag)) < 1e-10

    def test_slices_match_real_encoding(self):
        layout = RegisterLayout(2, 3)
        state = dictionary_circuit(layout, LINEAR, phase_corrected=True).apply(zero_state(5))
        for key in range(4):
            slice_ = conditional_value_state(state, layout, key)
            reference = encode_value_real(3, LINEAR.evaluate(key)).amplitudes
            assert np.max(np.abs(slice_ - reference)) < 1e-10

    def test_integer_poly_same_distribution_as_f(self):
        poly = BinaryPolynomial(2, {0: 1.0, 0b01: 2.0, 0b10: 4.0})
        layout = RegisterLayout(2, 3)
        plain = dictionary_circuit(layout, poly).apply(zero_state(5))
        corrected = dictionary_circuit(layout, poly, phase_corrected=True).apply(zero_state(5))
        assert np.max(np.abs(plain.probabilities() - corrected.probabilities())) < 1e-10
        assert np.max(np.abs(corrected.amplitudes.imag)) < 1e-10

    def test_twos_complement_negative_values(self):
        poly = BinaryPolynomial(2, {0: -1.3, 0b01: 0.9, 0b10: 2.1})
        layout = RegisterLayout(2, 3)
        state = dictionary_circuit(layout, poly, TWOS, phase_corrected=True).apply(zero_state(5))
        assert np.max(np.abs(state.amplitudes.imag)) < 1e-10
        for key in range(4):
            slice_ = conditional_value_state(state, layout, key)
            target = normalize_to_domain(poly.evaluate(key), TWOS, 8)
            assert np.max(np.abs(slice_ - fejer_kernel_row(8, target))) < 1e-10

    def test_equal_tables_give_equal_states(self):
        # same value table, different term lists (explicit zero cross term,
        # constant split across duplicate entries via the parser)
        other = parse_polynomial("0.7: 1\n0.5: 1\n0.4: k0\n0.8: k1\n0.0: k0*k1\n", 2)
        assert np.max(np.abs(other.values_table() - LINEAR.values_table())) < 1e-12
        layout = RegisterLayout(2, 3)
        lhs = dictionary_circuit(layout, other, phase_corrected=True).apply(zero_state(5))
        rhs = dictionary_circuit(layout, LINEAR, phase_corrected=True).apply(zero_state(5))
        assert np.max(np.abs(lhs.amplitudes - rhs.amplitudes)) < 1e-10

    def test_unitarity(self):
        layout = RegisterLayout(2, 3)
        circuit = dictionary_circuit(layout, LINEAR, phase_corrected=True)
        state = circuit.adjoint().apply(circuit.apply(zero_state(5)))
        assert state.probability(0) > 1 - 1e-10

    def test_random_slice_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            modulus = 1 << m
            table = rng.uniform(0, modulus, 4)
            poly = polynomial_from_table(table)
            layout = RegisterLayout(2, m)
            state = dictionary_circuit(layout, poly, phase_corrected=True).apply(zero_state(2 + m))
            for key in range(4):
                slice_ = conditional_value_state(state, layout, key)
                reference = fejer_kernel_row(modulus, table[key])
                assert np.max(np.abs(slice_ - reference)) < 1e-10


class TestRangeChecking:
    def test_out_of_range_names_key(self):
        poly = BinaryPolynomial(2, {0: 6.5, 0b01: 2.0})  # key 1 evaluates to 8.5
        layout = RegisterLayout(2, 3)
        with pytest.raises(ValueRangeError, match="key 1"):
            dictionary_circuit(layout, poly)

    def test_integer_values_may_fill_range(self):
        poly = BinaryPolynomial(2, {0: 6.0, 0b01: 1.0})  # integers 6 and 7 allowed in TC
        layout = RegisterLayout(2, 3)
        probs = dictionary_circuit(layout, poly, TWOS).apply(zero_state(5)).probabilities()
        assert abs(probs[layout.combined_index(1, 7)] - 0.25) < 1e-12

    def test_noninteger_outside_twos_domain_rejected(self):
        poly = BinaryPolynomial(2, {0: 3.9, 0b01: 0.7})
        layout = RegisterLayout(2, 3)
        with pytest.raises(ValueRangeError):
            dictionary_circuit(layout, poly, TWOS)

    def test_width_over_cap_raises_before_the_values_table(self):
        # 27 qubits: the 2^24-entry table of key values is never built
        poly = BinaryPolynomial(24, {0: 1.0, 0b01: 2.0})
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="qubit count 27"):
                dictionary_circuit(RegisterLayout(24, 3), poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_key_width_mismatch(self):
        layout = RegisterLayout(3, 3)
        with pytest.raises(DomainError):
            dictionary_circuit(layout, LINEAR)

    @pytest.mark.parametrize(
        "domain, table",
        [
            # offending keys 2, 4, 5 and 7 (a 2-qubit register holds [0, 4))
            (EncodingDomain.UNSIGNED, [0.5, 1.5, 9.5, 2.5, 7.5, -1.5, 3.5, 12.5]),
            # offending keys 3, 5 and 6 ([-2, 2), plus the integers 0..3)
            (TWOS, [-1.5, 3.0, 1.5, 2.5, -2.0, -2.5, 7.5, 0.5]),
        ],
    )
    def test_lowest_of_several_offending_keys_named(self, domain, table):
        # halves keep every subset sum exact, so the loop and the transform agree bit for bit
        poly = polynomial_from_table(table)
        with pytest.raises(ValueRangeError) as caught:
            validate_values(poly, 2, domain)
        assert str(caught.value) == loop_validation_message(poly, 2, domain)


def loop_validation_message(poly, value_width, domain):
    """The rule of ``validate_values`` as a per-key loop, kept as its reference."""
    modulus = 1 << value_width
    for k in range(poly.num_keys):
        value = poly.evaluate(k)
        if abs(value - round(value)) < 1e-12 and round(value) >= 0 and value < modulus:
            continue
        try:
            normalize_to_domain(value, domain, modulus)
        except DomainError as exc:
            return f"value {value} at key {k} would alias in a {value_width}-qubit register: {exc}"
    return None


@st.composite
def dictionaries(draw):
    """(layout, polynomial, domain, phase_corrected, prepare_keys, seed) on up to 12 qubits."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 12 - n))
    domain = draw(st.sampled_from([EncodingDomain.UNSIGNED, TWOS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = in_domain_polynomial(rng, n, m, domain, draw(st.sampled_from(KINDS)))
    flags = draw(st.booleans()), draw(st.booleans())
    return RegisterLayout(n, m), poly, domain, *flags, int(rng.integers(2**32))


class TestFusedCircuit:
    @settings(max_examples=40)
    @given(case=dictionaries())
    def test_fused_apply_matches_op_by_op(self, case):
        layout, poly, domain, phase_corrected, prepare_keys, seed = case
        circuit = dictionary_circuit(layout, poly, domain, phase_corrected, prepare_keys)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << layout.num_qubits) + 1j * rng.normal(size=1 << layout.num_qubits)
        state = StateVector(layout.num_qubits, amps / np.linalg.norm(amps))
        expected = state
        for op in circuit.ops:
            expected = op.apply(expected)
        assert np.max(np.abs(circuit.apply(state).amplitudes - expected.amplitudes)) < 1e-12

    @settings(max_examples=40)
    @given(case=dictionaries())
    def test_state_is_apply_to_zero_state(self, case):
        # with prepare_keys the key and value Hadamards and the controlled ladders are one table
        layout, poly, domain, phase_corrected, prepare_keys, _ = case
        circuit = dictionary_circuit(layout, poly, domain, phase_corrected, prepare_keys)
        expected = circuit.apply(zero_state(layout.num_qubits)).amplitudes
        assert circuit.state().amplitudes.tobytes() == expected.tobytes()


@st.composite
def constant_dictionaries(draw):
    """(key width, value width, domain, t) with ``t`` anywhere in the domain, integers included."""
    k = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    domain = draw(st.sampled_from([EncodingDomain.UNSIGNED, TWOS]))
    lo, hi = domain_bounds(domain, 1 << m)
    t = draw(st.one_of(st.integers(lo, hi - 1).map(float), st.floats(lo, hi, exclude_max=True)))
    return k, m, domain, t


class TestSharedEncoder:
    @settings(max_examples=60)
    @given(case=constant_dictionaries())
    @example(case=(1, 3, TWOS, -1e-17))  # 0 up to negative round-off
    @example(case=(2, 3, EncodingDomain.UNSIGNED, 8.0 - 8 * 2**-52))  # 8 up to round-off, which aliases 0
    def test_constant_dictionary_slices_match_scalar_encoding(self, case):
        # in two's complement a negative t meets the dictionary's correction
        # table on one side and the scalar's normalized target on the other
        k, m, domain, t = case
        poly = BinaryPolynomial(k, {0: t})
        circuit = dictionary_circuit(RegisterLayout(k, m), poly, domain, phase_corrected=True)
        slices = circuit.apply(zero_state(k + m)).amplitudes.reshape(1 << k, 1 << m)
        expected = encode_value_real(m, t, domain).amplitudes / np.sqrt(1 << k)
        assert np.max(np.abs(slices - expected)) < 1e-12


@st.composite
def corrected_dictionaries(draw):
    """(layout, polynomial, domain): a dense random value table on at most 10 qubits.

    In two's complement the negative values are the ones the domain maps by M;
    integer tables may also hold M - 1 and the domain's lower end.
    """
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 10 - n))
    domain = draw(st.sampled_from([EncodingDomain.UNSIGNED, TWOS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    poly = in_domain_polynomial(rng, n, m, domain, draw(st.sampled_from(["dense", "integer"])))
    return RegisterLayout(n, m), poly, domain


class TestWrappedValues:
    @settings(max_examples=60)
    @given(case=corrected_dictionaries())
    @example(case=(RegisterLayout(1, 3), BinaryPolynomial(1, {0: -1e-17, 1: -2.5}), TWOS))
    @example(case=(RegisterLayout(2, 3), BinaryPolynomial(2, {0: 8.0 - 8 * 2**-52}), EncodingDomain.UNSIGNED))
    def test_corrected_slices_are_kernel_rows(self, case):
        layout, poly, domain = case
        circuit = dictionary_circuit(layout, poly, domain, phase_corrected=True)
        assert not any(isinstance(op, ControlledPhase) for op in circuit.ops)
        ladder, table = circuit.ops[-2:]
        assert isinstance(ladder, PhaseLadder) and ladder.register == layout.value_register
        assert [op for op in circuit.ops if isinstance(op, DiagonalPhase)] == [table]
        assert table.register == layout.key_register
        modulus = layout.num_values
        slices = circuit.state().amplitudes.reshape(layout.num_keys, modulus) * np.sqrt(layout.num_keys)
        targets = [poly.evaluate(k) % modulus for k in range(layout.num_keys)]  # into [0, M)
        assert np.max(np.abs(slices.imag)) < 1e-10
        assert np.max(np.abs(slices.real - fejer_kernel_row(modulus, targets))) < 1e-10


class TestKeyPreparation:
    def test_existing_key_superposition_kept(self):
        layout = RegisterLayout(2, 3)
        from qinterp import StatePrep

        weights = np.array([0.9, 0.1, 0.3, np.sqrt(1 - 0.81 - 0.01 - 0.09)])
        state = StatePrep(layout.key_register, weights).apply(zero_state(5))
        circuit = dictionary_circuit(layout, LINEAR, phase_corrected=True, prepare_keys=False)
        state = circuit.apply(state)
        assert np.max(np.abs(key_probabilities(state, layout) - weights**2)) < 1e-10

    def test_explicit_override(self):
        layout = RegisterLayout(2, 3)
        # basis-key-0 input with prepare_keys disabled: all mass stays on key 0
        state = dictionary_circuit(layout, LINEAR, prepare_keys=False).apply(zero_state(5))
        key_probs = key_probabilities(state, layout)
        assert abs(key_probs[0] - 1.0) < 1e-12
