import cmath
import math

import numpy as np
import pytest

from qinterp import (
    DomainError,
    EncodingDomain,
    FejerKernelSpec,
    SampledSignal,
    UndersampledError,
    classical_interpolate,
    dft,
    dft_matrix,
    fejer_kernel,
    fejer_kernel_row,
    fourier_coefficients,
    normalize_to_domain,
)


def interpolate_oracle(samples, period, t):
    """Plain-loop evaluation of the even-count reconstruction sum."""
    n = len(samples)
    total = 0.0
    for k in range(n):
        d = t - k * period / n
        total += samples[k] * math.sin(math.pi * d * n / period) / math.tan(math.pi * d / period)
    return total / n


def dft_oracle(x):
    n = len(x)
    return np.array(
        [sum(x[k] * cmath.exp(-2j * math.pi * j * k / n) for k in range(n)) for j in range(n)]
    ) / math.sqrt(n)


class TestFejerKernel:
    def test_integer_target_is_delta(self):
        assert fejer_kernel(8, 4.0, 4) == 1.0
        assert fejer_kernel(8, 4.0, 2) == 0.0

    def test_half_target_splits_evenly(self):
        assert abs(fejer_kernel(8, 4.5, 4) - fejer_kernel(8, 4.5, 5)) < 1e-14

    def test_row_normalization(self):
        rng = np.random.default_rng(0)
        for m in (3, 5, 8, 10):
            modulus = 1 << m
            for _ in range(20):
                row = fejer_kernel_row(modulus, rng.uniform(0, modulus))
                assert abs(np.sum(row**2) - 1.0) < 1e-9

    def test_two_nearest_integer_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(3, 9))
            modulus = 1 << m
            t = float(rng.uniform(0, modulus))
            if abs(t - round(t)) < 1e-9:
                continue
            row = fejer_kernel_row(modulus, t)
            lo = int(math.floor(t)) % modulus
            hi = int(math.ceil(t)) % modulus
            assert row[lo] ** 2 + row[hi] ** 2 >= 0.81

    def test_negative_target_wraps(self):
        row_neg = fejer_kernel_row(8, -3.3)
        row_pos = fejer_kernel_row(8, 4.7)
        assert np.allclose(row_neg, row_pos)

    def test_outcome_range_checked(self):
        with pytest.raises(DomainError):
            fejer_kernel(8, 2.7, 8)

    def test_spec_object(self):
        spec = FejerKernelSpec(8, -4, EncodingDomain.TWOS_COMPLEMENT)
        assert spec.normalized_target == 4.0
        assert spec(4) == 1.0
        assert len(spec.row()) == 8


class TestNormalizeToDomain:
    def test_twos_complement_negative(self):
        assert normalize_to_domain(-4, EncodingDomain.TWOS_COMPLEMENT, 8) == 4.0

    def test_unsigned_passthrough(self):
        assert normalize_to_domain(2.7, EncodingDomain.UNSIGNED, 8) == 2.7

    def test_unsigned_boundary_rejected(self):
        with pytest.raises(DomainError):
            normalize_to_domain(8, EncodingDomain.UNSIGNED, 8)

    def test_unsigned_round_off_below_zero_is_zero(self):
        assert normalize_to_domain(-1e-17, EncodingDomain.UNSIGNED, 8) == 0.0
        assert normalize_to_domain(-0.9e-12, EncodingDomain.UNSIGNED, 8) == 0.0
        with pytest.raises(DomainError):
            normalize_to_domain(-1e-12, EncodingDomain.UNSIGNED, 8)

    def test_twos_complement_bounds(self):
        assert normalize_to_domain(-4.0, EncodingDomain.TWOS_COMPLEMENT, 8) == 4.0
        with pytest.raises(DomainError):
            normalize_to_domain(4.0, EncodingDomain.TWOS_COMPLEMENT, 8)
        with pytest.raises(DomainError):
            normalize_to_domain(-4.1, EncodingDomain.TWOS_COMPLEMENT, 8)


class TestClassicalInterpolate:
    def test_sin_from_8_samples(self):
        period = 2 * math.pi
        signal = SampledSignal(np.sin(np.arange(8) * period / 8), period)
        rng = np.random.default_rng(2)
        for t in rng.uniform(0, period, 100):
            assert abs(classical_interpolate(signal, t) - math.sin(t)) < 1e-9

    def test_sample_points_exact(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=16)
        signal = SampledSignal(samples, 2.0)
        for k in range(16):
            assert classical_interpolate(signal, k * 2.0 / 16) == samples[k]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(size=32)
        signal = SampledSignal(samples, 1.0)
        for t in rng.uniform(0, 1, 25):
            assert abs(classical_interpolate(signal, t) - interpolate_oracle(samples, 1.0, t)) < 1e-11

    def test_linear_edge_error_exceeds_middle(self):
        xs = np.arange(32) / 32
        signal = SampledSignal(xs, 1.0)
        grid = np.linspace(0, 1, 500, endpoint=False)
        errs = np.array([abs(classical_interpolate(signal, t) - t) for t in grid])
        mid = (grid >= 0.25) & (grid < 0.75)
        assert errs[mid].max() < errs[~mid].max()

    def test_domain_error(self):
        signal = SampledSignal(np.ones(4), 1.0)
        with pytest.raises(DomainError):
            classical_interpolate(signal, 1.0)
        with pytest.raises(DomainError):
            classical_interpolate(signal, -0.1)

    def test_signal_validation(self):
        with pytest.raises(DomainError):
            SampledSignal(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(DomainError):
            SampledSignal(np.array([]), 1.0)
        with pytest.raises(DomainError):
            SampledSignal(np.ones(4), 0.0)


class TestDft:
    def test_constant_vector(self):
        y = dft(np.full(8, 3.0))
        assert abs(y[0] - 3.0 * math.sqrt(8)) < 1e-12
        assert np.max(np.abs(y[1:])) < 1e-12

    def test_pure_tone_single_bin(self):
        n = 16
        x = np.exp(2j * math.pi * np.arange(n) / n)
        y = dft(x)
        assert abs(y[1] - math.sqrt(n)) < 1e-11
        mask = np.ones(n, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(y[mask])) < 1e-11

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.max(np.abs(dft(x) - dft_oracle(x))) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert abs(np.linalg.norm(dft(x)) - np.linalg.norm(x)) < 1e-12

    def test_matrix_agrees_with_transform(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.max(np.abs(dft_matrix(16) @ x - dft(x))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            dft([])


class TestFourierCoefficients:
    def test_squared_sine_spectrum(self):
        # const * sin^2(x) on [0, 2 pi): z_0 = const/2, z_{+-2} = -const/4
        const = 3.0
        period = 2 * math.pi
        xs = np.arange(8) * period / 8
        signal = SampledSignal(const * np.sin(xs) ** 2, period)
        spectrum = fourier_coefficients(signal, 2)
        assert abs(spectrum.coefficient(0) - const / 2) < 1e-12
        assert abs(spectrum.coefficient(2) + const / 4) < 1e-12
        assert abs(spectrum.coefficient(-2) + const / 4) < 1e-12
        assert abs(spectrum.coefficient(1)) < 1e-12
        assert abs(spectrum.coefficient(-1)) < 1e-12

    def test_constant_signal(self):
        signal = SampledSignal(np.full(8, 2.5), 1.0)
        spectrum = fourier_coefficients(signal, 0)
        assert abs(spectrum.coefficient(0) - 2.5) < 1e-12

    def test_reconstruction_matches_interpolation(self):
        period = 2 * math.pi
        xs = np.arange(8) * period / 8
        signal = SampledSignal(np.sin(xs) ** 2 + 0.3 * np.cos(xs), period)
        spectrum = fourier_coefficients(signal, 2)
        rng = np.random.default_rng(8)
        for t in rng.uniform(0, period, 50):
            via_spectrum = spectrum.evaluate(t, period).real
            via_kernel = classical_interpolate(signal, t)
            assert abs(via_spectrum - via_kernel) < 1e-9

    def test_undersampled_rejected(self):
        signal = SampledSignal(np.ones(4), 1.0)
        with pytest.raises(UndersampledError):
            fourier_coefficients(signal, 2)
