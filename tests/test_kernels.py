import cmath
import math

import numpy as np
import pytest
import scalar_oracles
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qinterp import (
    DomainError,
    EncodingDomain,
    SampledSignal,
    classical_interpolate,
    fejer_kernel_row,
    normalize_to_domain,
)
from qinterp import kernels
from qinterp.kernels import INTEGER_TOLERANCE, KERNEL_CHUNK, SAMPLE_TOLERANCE, kernel_sums


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
        assert fejer_kernel_row(8, 4.0)[4] == 1.0
        assert fejer_kernel_row(8, 4.0)[2] == 0.0

    def test_half_target_splits_evenly(self):
        row = fejer_kernel_row(8, 4.5)
        assert abs(row[4] - row[5]) < 1e-14

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


class TestKernelNumerator:
    @pytest.mark.parametrize("width", [12, 16])
    @pytest.mark.parametrize("fraction", [0.125, 0.25, 0.5, 0.75])
    def test_numerator_is_sin_pi_f_at_every_distance(self, width, fraction):
        # row[k] M sin(pi (t - k) / M) (-1)^(n - k) = sin(pi f) for t = n + f;
        # a numerator formed from sin(pi (t - k)) drifts by up to ~1e-12 at large t - k
        modulus = 1 << width
        k = np.arange(modulus)
        expected = math.sin(math.pi * fraction)
        for n in (0, 1, 7, modulus // 3, modulus // 2, modulus - 2, modulus - 1):
            t = n + fraction
            sign = np.where((n - k) % 2 == 1, -1.0, 1.0)
            numerator = fejer_kernel_row(modulus, t) * modulus * np.sin(np.pi * (t - k) / modulus) * sign
            assert np.max(np.abs(numerator - expected)) <= 4 * math.ulp(expected), (n, fraction)


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

    def test_band_limited_signal_reproduced(self):
        # band limit 2 from 8 samples: the reconstruction is the signal itself
        period = 2 * math.pi
        xs = np.arange(8) * period / 8
        signal = SampledSignal(np.sin(xs) ** 2 + 0.3 * np.cos(xs), period)
        rng = np.random.default_rng(8)
        for t in rng.uniform(0, period, 50):
            assert abs(classical_interpolate(signal, t) - (math.sin(t) ** 2 + 0.3 * math.cos(t))) < 1e-9

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

    def test_interval_length_must_be_finite(self):
        with pytest.raises(DomainError, match="interval length must be positive and finite"):
            SampledSignal(np.ones(4), math.inf)


class TestDft:
    """The DFT oracle of the Fourier gate, ``scalar_oracles.dft_matrix``, against the DFT's identities."""

    def test_constant_vector(self):
        y = scalar_oracles.dft_matrix(8) @ np.full(8, 3.0)
        assert abs(y[0] - 3.0 * math.sqrt(8)) < 1e-12
        assert np.max(np.abs(y[1:])) < 1e-12

    def test_pure_tone_single_bin(self):
        n = 16
        x = np.exp(2j * math.pi * np.arange(n) / n)
        y = scalar_oracles.dft_matrix(n) @ x
        assert abs(y[1] - math.sqrt(n)) < 1e-11
        mask = np.ones(n, dtype=bool)
        mask[1] = False
        assert np.max(np.abs(y[mask])) < 1e-11

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        assert np.max(np.abs(scalar_oracles.dft_matrix(8) @ x - dft_oracle(x))) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        assert abs(np.linalg.norm(scalar_oracles.dft_matrix(32) @ x) - np.linalg.norm(x)) < 1e-12

    def test_matrix_agrees_with_transform(self):
        # the unitary FFT is what QftGate(inverse=True) applies on its register axis
        rng = np.random.default_rng(7)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        assert np.max(np.abs(scalar_oracles.dft_matrix(16) @ x - np.fft.fft(x, norm="ortho"))) < 1e-12


@st.composite
def kernel_targets(draw):
    """A modulus and targets at, near and off integers, negative and beyond M."""
    modulus = 1 << draw(st.integers(1, 12))
    whole = st.integers(-3 * modulus, 3 * modulus)
    near = st.floats(-0.9 * INTEGER_TOLERANCE, 0.9 * INTEGER_TOLERANCE, allow_nan=False)
    target = st.one_of(
        whole.map(float),
        st.tuples(whole, near).map(lambda pair: pair[0] + pair[1]),
        st.floats(-3 * modulus, 3 * modulus, allow_nan=False),
        st.sampled_from([modulus, -modulus, 2.0 * modulus, modulus - 1e-13, -1e-17]),
    )
    return modulus, draw(st.lists(target, min_size=1, max_size=8))


class TestKernelRowArrays:
    @settings(max_examples=150)
    @given(case=kernel_targets())
    def test_rows_equal_the_scalar_loop(self, case):
        modulus, targets = case
        rows = fejer_kernel_row(modulus, np.array(targets))
        assert rows.shape == (len(targets), modulus)
        for row, target in zip(rows, targets):
            assert np.array_equal(row, scalar_oracles.kernel_row(modulus, target))
            assert np.array_equal(fejer_kernel_row(modulus, target), row)

    def test_integer_rows_evaluate_no_quotient(self):
        # tier-1 turns RuntimeWarning into an error, so a 0/0 here would fail
        rows = fejer_kernel_row(8, np.array([3.0, 3.5, 8.0, -1.0 + 1e-13]))
        assert np.array_equal(rows[[0, 2, 3]], np.eye(8)[[3, 0, 7]])

    def test_scalar_target_keeps_a_row(self):
        assert fejer_kernel_row(8, 2.7).shape == (8,)
        assert fejer_kernel_row(8, np.array([2.7])).shape == (1, 8)

    @pytest.mark.parametrize(
        "targets, named",
        [(math.inf, "inf"), (math.nan, "nan"), ([2.5, -math.inf, math.nan], "-inf"), ([[1.0], [math.nan]], "nan")],
    )
    def test_non_finite_target_raises_naming_it(self, targets, named):
        # a stray RuntimeWarning from reading it as a number would fail here too
        with pytest.raises(DomainError, match=rf"^target {named} is not finite$"):
            fejer_kernel_row(4, targets)


def unit_samples(width, seed):
    samples = np.random.default_rng(seed).normal(size=1 << width)
    return samples / np.linalg.norm(samples)


def row_targets(modulus, rng):
    """Points in ``[0, M - 1]``: integers, snapped ones, ``1e-9`` off integers and between them.

    The last unit interval before the wrap is left out: there the row's
    ``k = 0`` entry is ``sin`` of an angle rounded next to pi.
    """
    whole = rng.integers(0, modulus, 12).astype(np.float64)
    offsets = [0.0, 0.5e-13, -0.9e-13, 1e-9, -1e-9]
    ts = np.concatenate([whole + offset for offset in offsets] + [whole + rng.uniform(0, 1, whole.size)])
    return ts[(ts >= 0) & (ts <= modulus - 1)]


class TestKernelSums:
    @pytest.mark.parametrize("domain", ["unsigned", "twos"])
    @pytest.mark.parametrize("width", range(1, 15))
    def test_matches_the_kernel_rows(self, width, domain):
        modulus = 1 << width
        samples = unit_samples(width, width)
        ts = row_targets(modulus, np.random.default_rng(100 + width))
        if domain == "twos":
            # u - M is exact for u >= M / 2, so both read the point u
            ts = ts[ts >= modulus // 2] - modulus
        rows = fejer_kernel_row(modulus, ts)
        sums = kernel_sums(samples, ts)
        assert np.max(np.abs(sums - np.vecdot(rows, samples))) <= 1e-14
        snapped = np.abs(ts - np.round(ts)) < INTEGER_TOLERANCE
        assert snapped.any() and np.array_equal(sums[snapped], np.vecdot(rows[snapped], samples))

    @pytest.mark.parametrize(
        "width, gaps",
        [
            *[(w, (1e-12, 2e-12, 1e-11, 1e-9, 1e-6, 1e-4, 1e-3, 0.3, 0.9)) for w in (1, 2, 3, 6, 8)],
            (12, (1e-11, 1e-9)),  # 40-digit sums of 4096 terms take about 0.2 s each
        ],
        ids=lambda value: f"m{value}" if isinstance(value, int) else "gaps",
    )
    def test_wrap_band_matches_40_digits(self, width, gaps):
        # t -> M from below, and t -> 0 from below in the twos domain: the
        # row's k = 0 entry is off by up to 1e-4 here, the sum is not
        modulus = 1 << width
        samples = unit_samples(width, 7)
        samples[0] = 0.5
        ts = np.array([t for gap in gaps for t in (modulus - gap, -gap)])
        sums = kernel_sums(samples, ts)
        for t, value in zip(ts.tolist(), sums.tolist()):
            assert abs(value - scalar_oracles.kernel_sum_40(samples, t)) <= 1e-15, t

    @settings(max_examples=60)
    @given(case=kernel_targets(), seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 2, 8, 1 << 14]))
    def test_sums_equal_the_one_target_calls(self, case, seed, chunk):
        modulus, targets = case
        samples = np.random.default_rng(seed).normal(size=modulus)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "SWEEP_KERNEL_CHUNK", chunk)
            sums = kernel_sums(samples, np.array(targets))
        assert sums.shape == (len(targets),)
        assert sums.tolist() == [float(kernel_sums(samples, t)) for t in targets]

    @pytest.mark.parametrize(
        "targets, named",
        [(math.nan, "nan"), ([math.nan], "nan"), ([math.inf], "inf"), ([0.5, 3.0, -math.inf, math.nan], "-inf")],
    )
    def test_non_finite_target_raises_naming_it(self, targets, named):
        # neither s[0] for a NaN nor a warning from the integer cast or the modulo
        with pytest.raises(DomainError, match=rf"^target {named} is not finite$"):
            kernel_sums(np.arange(4.0), targets)


@st.composite
def interpolation_grids(draw):
    """A seeded signal and points off, at and within ``SAMPLE_TOLERANCE`` of its samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_samples = draw(st.integers(1, 64))
    period = draw(st.sampled_from([1.0, 2 * math.pi, 0.37, 12.5]))
    signal = SampledSignal(rng.normal(size=num_samples), period)
    points = signal.sample_points()
    sample = st.integers(0, num_samples - 1).map(lambda k: float(points[k]))
    near = st.tuples(
        sample, st.floats(-0.9 * SAMPLE_TOLERANCE, 0.9 * SAMPLE_TOLERANCE, allow_nan=False)
    ).map(lambda pair: pair[0] + pair[1])
    t = st.one_of(st.floats(0.0, period, exclude_max=True, allow_nan=False), sample, near)
    ts = [v for v in draw(st.lists(t, min_size=1, max_size=40)) if 0 <= v < period]
    return signal, ts or [0.0]


class TestClassicalInterpolateArrays:
    @settings(max_examples=150)
    @given(case=interpolation_grids())
    def test_values_equal_the_scalar_loop(self, case):
        signal, ts = case
        values = classical_interpolate(signal, np.array(ts))
        expected = [scalar_oracles.interpolate(signal, t) for t in ts]
        assert np.array_equal(values, expected)
        assert [classical_interpolate(signal, t) for t in ts] == expected

    @settings(max_examples=60)
    @given(
        case=interpolation_grids(),
        bad=st.sampled_from([-0.1, -1e-300, 1.0, math.inf, math.nan]),
        position=st.integers(0, 40),
    )
    @example(case=(SampledSignal(np.ones(4), 1.0), [0.5]), bad=1.0, position=0)
    def test_any_entry_outside_the_interval_raises(self, case, bad, position):
        signal, ts = case
        ts = list(ts)
        ts.insert(position % (len(ts) + 1), bad * signal.interval_length)
        with pytest.raises(DomainError):
            classical_interpolate(signal, np.array(ts))

    def test_points_over_several_chunks(self):
        # 8192 samples leave room for 8 points per chunk: 30 points take 4
        rng = np.random.default_rng(9)
        signal = SampledSignal(rng.normal(size=1 << 13), 3.0)
        assert KERNEL_CHUNK // signal.num_samples == 8
        ts = np.concatenate([rng.uniform(0, 3.0, 27), signal.sample_points()[[0, 5, 8191]]])
        expected = [scalar_oracles.interpolate(signal, t) for t in ts]
        assert np.array_equal(classical_interpolate(signal, ts), expected)

    def test_scalar_t_gives_a_float_and_arrays_keep_their_shape(self):
        signal = SampledSignal(np.arange(8.0), 1.0)
        assert type(classical_interpolate(signal, 0.3)) is float
        assert classical_interpolate(signal, np.full((2, 3), 0.3)).shape == (2, 3)
