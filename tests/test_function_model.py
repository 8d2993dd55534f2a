import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from trigsmooth import (
    AliasError,
    CosineSeries,
    DomainError,
    GridFunction,
    ModulusRequest,
    ModulusTable,
    difference,
    lp_norm,
    modulus,
    modulus_p2_exact,
    power_law_series,
    random_bandlimited_series,
    synthesize,
)
from trigsmooth import function_model
from trigsmooth.approximation import modulus_bounds_monotone
from trigsmooth.core import DENSE_LIMIT
from trigsmooth.errors import ConstraintViolation
from trigsmooth.function_model import MAX_H_SAMPLES, auto_grid_size

import oracles

SQRT_PI = math.sqrt(math.pi)


def harmonic(nu, amp=1.0, size=None):
    coeffs = np.zeros(size or nu)
    coeffs[nu - 1] = amp
    return CosineSeries(coeffs)


def add_series(a: CosineSeries, b: CosineSeries) -> CosineSeries:
    n = max(a.n_stored, b.n_stored)
    out = np.zeros(n)
    out[: a.n_stored] += a.coeffs
    out[: b.n_stored] += b.coeffs
    return CosineSeries(out)


class TestSynthesize:
    def test_single_harmonic_on_coarse_grid(self):
        g = synthesize(harmonic(1), 8)
        np.testing.assert_allclose(g.samples, np.cos(2 * np.pi * np.arange(8) / 8), atol=1e-15)

    def test_zero_series(self):
        g = synthesize(CosineSeries(np.zeros(4)), 16)
        assert not g.samples.any()

    def test_matches_direct_evaluation(self):
        ser = CosineSeries(np.array([1.0, 1.0]))
        g = synthesize(ser, 16)
        np.testing.assert_allclose(g.samples, oracles.direct_synthesis([1.0, 1.0], 16),
                                   atol=1e-14)

    def test_alias_error_when_grid_too_small(self):
        with pytest.raises(AliasError):
            synthesize(harmonic(8), 16)
        synthesize(harmonic(7), 16)  # fine: 16 > 14

    def test_tail_is_not_synthesised(self):
        with_tail = synthesize(power_law_series(2.0, 8), 64)
        without = synthesize(power_law_series(2.0, 8, with_tail=False), 64)
        np.testing.assert_array_equal(with_tail.samples, without.samples)

    def test_grid_above_the_limit_is_refused_before_allocating(self):
        ser = CosineSeries(np.array([1.0]))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="exceeds the limit"):
                synthesize(ser, 2 * DENSE_LIMIT)
            with pytest.raises(DomainError, match="exceeds the limit"):
                modulus(ser, ModulusRequest(k=1, t=0.5, p=3.0), 2 * DENSE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_constant_function(self, p):
        g = GridFunction(np.ones(32))
        assert lp_norm(g, p) == pytest.approx((2 * math.pi) ** (1 / p), rel=1e-14)

    def test_cosine_l2_is_sqrt_pi(self):
        g = synthesize(harmonic(1), 64)
        assert lp_norm(g, 2.0) == pytest.approx(SQRT_PI, rel=1e-12)

    def test_cosine_l4_matches_analytic_integral(self):
        # integral of cos^4 over a period is 3*pi/4
        g = synthesize(harmonic(1), 2 ** 12)
        assert lp_norm(g, 4.0) == pytest.approx((3 * math.pi / 4) ** 0.25, rel=1e-8)

    def test_matches_fsum_quadrature(self):
        rng = np.random.default_rng(5)
        g = GridFunction(rng.normal(size=64))
        assert lp_norm(g, 2.5) == pytest.approx(oracles.brute_lp_norm(g.samples, 2.5), rel=1e-13)


class TestDifference:
    def test_annihilates_constants(self):
        g = GridFunction(np.full(32, 7.5))
        for k in (1, 2, 3):
            assert np.max(np.abs(difference(g, 0.3, k).samples)) < 1e-12

    def test_zero_step_gives_zero(self):
        g = synthesize(harmonic(3, size=4), 32)
        for k in (1, 2):
            assert np.max(np.abs(difference(g, 0.0, k).samples)) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("nu", [1, 3, 7])
    def test_multiplier_identity_per_harmonic(self, k, nu):
        # || Delta_h^k cos(nu .) ||_2 = (2 |sin(nu h / 2)|)^k sqrt(pi)
        ser = harmonic(nu)
        g = synthesize(ser, 256)
        for h in np.linspace(0.0, math.pi, 100):
            got = lp_norm(difference(g, float(h), k, series=ser), 2.0)
            want = (2.0 * abs(math.sin(nu * h / 2.0))) ** k * SQRT_PI
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_grid_interpolation_path_matches_series_path(self):
        ser = CosineSeries(np.array([0.3, 0.0, 1.2, 0.4]))
        g = synthesize(ser, 64)
        with_series = difference(g, 0.7, 2, series=ser)
        fft_only = difference(g, 0.7, 2)
        np.testing.assert_allclose(fft_only.samples, with_series.samples, atol=1e-12)

    def test_series_too_wide_for_the_grid_is_an_alias_error(self):
        g = synthesize(CosineSeries(np.ones(3)), 8)
        with pytest.raises(AliasError):
            difference(g, 0.3, 1, series=CosineSeries(np.ones(10)))


class TestModulus:
    def test_zero_step_bound(self):
        req = ModulusRequest(k=1, t=0.0, p=2.0)
        assert modulus(harmonic(1), req) == 0.0

    def test_single_harmonic_closed_form(self):
        # sup_{h <= t} 2 sin(h/2) sqrt(pi) attained at h = t = pi/2
        req = ModulusRequest(k=1, t=math.pi / 2, p=2.0)
        assert modulus(harmonic(1), req) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_monotone_in_t_for_low_frequencies(self):
        ser = CosineSeries(np.array([1.0, 0.5, 0.25]))
        vals = [modulus(ser, ModulusRequest(k=1, t=t, p=2.0), 64)
                for t in (0.2, 0.4, 0.8, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_homogeneity_is_exact(self):
        ser = CosineSeries(np.array([0.7, 0.1, 0.4]))
        scaled = CosineSeries(3.5 * ser.coeffs)
        req = ModulusRequest(k=2, t=1.0, p=3.0, h_samples=33)
        assert modulus(scaled, req, 64) == pytest.approx(3.5 * modulus(ser, req, 64), rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_crude_upper_bound(self, k):
        rng = np.random.default_rng(11)
        ser = CosineSeries(rng.random(16))
        req = ModulusRequest(k=k, t=math.pi, p=2.0, h_samples=65)
        bound = 2.0 ** k * lp_norm(synthesize(ser, 128), 2.0)
        assert modulus(ser, req, 128) <= bound * (1 + 1e-12)

    def test_subadditive_on_shared_shift_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = CosineSeries(rng.random(12))
            g = CosineSeries(rng.random(12))
            req = ModulusRequest(k=1, t=1.3, p=2.0, h_samples=33)
            w_sum = modulus(add_series(f, g), req, 64)
            assert w_sum <= modulus(f, req, 64) + modulus(g, req, 64) + 1e-12

    def test_alias_error_propagates(self):
        with pytest.raises(AliasError):
            modulus(harmonic(3000), ModulusRequest(k=1, t=0.5, p=2.0), 4096)


class TestModulusP2Exact:
    def test_zero_series(self):
        assert modulus_p2_exact(CosineSeries(np.zeros(8)), 1, 1.0) == 0.0

    @pytest.mark.parametrize("nu,k", [(1, 1), (2, 2), (5, 3)])
    def test_single_harmonic_closed_form(self, nu, k):
        t = min(math.pi / nu, 1.0)  # nu * t <= pi so the sup sits at h = t
        got = modulus_p2_exact(harmonic(nu), k, t)
        want = (2.0 * math.sin(nu * t / 2.0)) ** k * SQRT_PI
        assert got == pytest.approx(want, rel=1e-13)

    def test_matches_loop_oracle(self):
        coeffs = [0.9, 0.0, 0.4, 0.2]
        ser = CosineSeries(np.array(coeffs))
        got = modulus_p2_exact(ser, 2, 1.7, h_samples=37)
        want = oracles.modulus_p2_h_scan(coeffs, 2, 1.7, 37)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_freqs", [8, 200])
    @pytest.mark.parametrize("h_samples", [0, 1])
    def test_rejects_fewer_than_16_shifts(self, n_freqs, h_samples):
        # 8 frequencies take the full scan, 200 the pruned path above 64
        with pytest.raises(DomainError, match="h_samples must be at least 16"):
            modulus_p2_exact(CosineSeries(np.ones(n_freqs)), 1, 0.5, h_samples)

    def test_two_harmonics_cross_oracle_with_grid(self):
        ser = CosineSeries(np.array([1.0, 0.5]))
        req = ModulusRequest(k=1, t=2.0, p=2.0)
        grid_val = modulus(ser, req, 4096)
        exact_val = modulus_p2_exact(ser, 1, 2.0)
        assert grid_val == pytest.approx(exact_val, rel=1e-6)


@st.composite
def _signed_support(draw, min_size, max_size):
    """Coefficients with min_size to max_size nonzero, signed entries separated by runs of zeros."""
    size = draw(st.integers(min_size, max_size))
    gaps = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    mags = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    coeffs = np.zeros(sum(gaps))
    coeffs[np.cumsum(gaps) - 1] = [-m if neg else m for m, neg in zip(mags, signs)]
    return coeffs


def _dirichlet_case():
    # flat amplitudes on nu = 1..100 at t = pi: the sup sits near h = 4.5 / 100
    return np.ones(100), math.pi


def _two_cluster_case():
    # a weak exact block, nu = 100 and nu = 1000: at h = t / 2 the sup needs the
    # nu = 100 term, which lies below 2 / h and is bounded through the prefix sum
    coeffs = np.zeros(1000)
    coeffs[:64] = 1e-3
    coeffs[99], coeffs[999] = 1.0, math.sqrt(0.08)
    return coeffs, 2.0 * math.pi / 1000


@st.composite
def _slowly_decaying_support(draw, min_size, max_size):
    """min_size to max_size signed coefficients nu^(-s), s in [0.25, 1], on frequencies
    at most 3 apart."""
    size = draw(st.integers(min_size, max_size))
    gaps = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    s = draw(st.floats(0.25, 1.0))
    signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    nus = np.cumsum(gaps)
    coeffs = np.zeros(nus[-1])
    coeffs[nus - 1] = nus ** (-s) * np.where(signs, -1.0, 1.0)
    return coeffs


@pytest.fixture
def sin_form_calls(monkeypatch):
    """(rows, columns) of each _sin_form_terms call made while the test runs."""
    calls = []
    real = function_model._sin_form_terms

    def counting(hs, freqs, *args, **kwargs):
        calls.append((np.size(hs), np.size(freqs)))
        return real(hs, freqs, *args, **kwargs)

    monkeypatch.setattr(function_model, "_sin_form_terms", counting)
    return calls


@pytest.fixture
def moment_rows(monkeypatch):
    """Number of certified rows of each _moment_rows call made while the test runs."""
    calls = []
    real = function_model._moment_rows

    def counting(*args):
        value, ok = real(*args)
        calls.append(int(ok.sum()))
        return value, ok

    monkeypatch.setattr(function_model, "_moment_rows", counting)
    return calls


class TestModulusP2Pruned:
    """Supports wider than the exact block take the pruned path, which must return the
    same grid sup as a scan of every shift row."""

    @given(coeffs=_signed_support(65, 300), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True), h_samples=st.sampled_from([17, 33, 257]))
    @settings(max_examples=40, deadline=None)
    # 400 unit terms at t = 1 / nu: the sup is interior up to nu = 86 (k = 1) and 92 (k = 3),
    # and candidate rows take their sines up to nu = 95 and 100
    @example(coeffs=np.ones(400), k=1, t=1 / 2, h_samples=17)
    @example(coeffs=np.ones(400), k=1, t=1 / 20, h_samples=17)
    @example(coeffs=np.ones(400), k=1, t=1 / 90, h_samples=17)
    @example(coeffs=np.ones(400), k=3, t=1 / 2, h_samples=17)
    @example(coeffs=np.ones(400), k=3, t=1 / 20, h_samples=17)
    @example(coeffs=np.ones(400), k=3, t=1 / 95, h_samples=17)
    def test_matches_loop_oracle(self, coeffs, k, t, h_samples):
        got = modulus_p2_exact(CosineSeries(coeffs), k, t, h_samples)
        want = oracles.modulus_p2_h_scan(coeffs, k, t, h_samples)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", [_dirichlet_case, _two_cluster_case],
                             ids=["dirichlet", "two_clusters"])
    def test_sup_off_the_last_row(self, case):
        coeffs, t = case()
        got = modulus_p2_exact(CosineSeries(coeffs), 1, t, 257)
        # two shift samples are h = 0 and h = t
        assert got > oracles.modulus_p2_h_scan(coeffs, 1, t, 2) * (1 + 1e-3)
        assert got == pytest.approx(oracles.modulus_p2_h_scan(coeffs, 1, t, 257),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_dense_power_law_matches_full_grid(self, k):
        ser = power_law_series(2.0, 4096)
        for nu in (1, 2, 17, 256, 1024):
            got = modulus_p2_exact(ser, k, 1.0 / nu)
            want = oracles.modulus_p2_full_grid(ser.coeffs, k, 1.0 / nu, 257)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @given(coeffs=_slowly_decaying_support(65, 600), k=st.sampled_from([1, 2, 3]),
           t=st.floats(1e-4, 0.05), h_samples=st.sampled_from([17, 33, 257]))
    @settings(max_examples=40, deadline=None)
    def test_dense_support_at_small_t_matches_loop_oracle(self, coeffs, k, t, h_samples):
        # most frequencies lie on both sides of pi / t, in the low and the high band
        got = modulus_p2_exact(CosineSeries(coeffs), k, t, h_samples)
        want = oracles.modulus_p2_h_scan(coeffs, k, t, h_samples)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_sup_off_the_last_row_near_the_low_band_top(self):
        # nu = 499 lies in the top bucket of the low band (nu t / 2 = 0.499 pi), and
        # nu = 1000 (nu t = 2 pi) peaks at h = t / 2; its coefficient puts the sup near
        # h = t / 2 about 0.4% above g(t), less than rho taken at the bucket's bottom
        # edge would leave out of that row's bound
        coeffs = np.zeros(1000)
        coeffs[:64] = 1e-3
        coeffs[498], coeffs[999] = 1.0, 0.932
        t = 2.0 * math.pi / 1000
        got = modulus_p2_exact(CosineSeries(coeffs), 3, t, 257)
        assert got > oracles.modulus_p2_h_scan(coeffs, 3, t, 2) * (1 + 1e-3)
        assert got == pytest.approx(oracles.modulus_p2_h_scan(coeffs, 3, t, 257),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_law_1_5_matches_full_grid(self, k):
        ser = power_law_series(1.5, 2048)
        for nu in (1, 2, 17, 256, 1024):
            got = modulus_p2_exact(ser, k, 1.0 / nu)
            want = oracles.modulus_p2_full_grid(ser.coeffs, k, 1.0 / nu, 257)
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [3, 13])
    def test_wide_support_near_2_40_matches_mpmath(self, k):
        # frequencies 2**30 (2**10 + j) and shifts i t / 32 with t a power of two, so
        # each nu h is exact in floats; pi / t splits the support at t = 2**-39.  At
        # k = 13, nu**(2k) overflows, so rows with 2 / h above the high band get an inf
        # or NaN bound and are kept
        rng = np.random.default_rng(3)
        freqs = 2**30 * (2**10 + np.unique(rng.integers(0, 2**10, 96)))
        amps = rng.uniform(0.2, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        ser = CosineSeries.from_support(freqs, amps, int(freqs[-1]))
        for t in (1.0, 2.0**-38, 2.0**-39, 2.0**-40, 2.0**-44):
            want = oracles.mp_modulus_p2(freqs, amps, k, t, 33)
            assert modulus_p2_exact(ser, k, t, 33) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_order_past_511_matches_mpmath(self):
        # 4**k overflows from k = 512, though the modulus is below 2**600 sqrt(pi sum a^2)
        ser = power_law_series(2.0, 256)
        freqs, amps = ser.support()
        want = oracles.mp_modulus_p2(freqs, amps, 600, 0.5, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modulus_p2_exact(ser, 600, 0.5, 17)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_order_past_511_scans_in_cache_sized_batches(self, monkeypatch):
        # all 257 rows of 4096 frequencies in one batch peaked at 24 MiB
        ser = power_law_series(2.0, 4096)
        ser.support()
        tracemalloc.start()
        try:
            got = modulus_p2_exact(ser, 600, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        # each row's sum is its own, so one row a batch gives the same bits
        monkeypatch.setattr(function_model, "_BATCH_SAMPLES", 1)
        assert modulus_p2_exact(ser, 600, 0.5) == got

    @pytest.mark.parametrize("coeffs, k, t", [
        ([1.0], 512, 0.9),  # sqrt(pi) (2 sin 0.45)^512, about 1.8e-31: one row
        (1.0 / np.arange(1, 257) ** 2, 512, 0.003),  # nu_max t = 0.768: one row
        ([1e-200, 0.0, 1.0], 800, 2.0),  # a_1^2 underflows; the sup is near 1e240
    ])
    def test_order_past_511_where_every_factor_is_small_matches_mpmath(self, coeffs, k, t):
        # a fixed scale of 1/2 on every sine factor underflows the first two values to 0
        ser = CosineSeries(np.asarray(coeffs, dtype=float))
        freqs, amps = ser.support()
        want = oracles.mp_modulus_p2(freqs, amps, k, t, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modulus_p2_exact(ser, k, t, 17)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("coeffs, t", [
        (np.random.default_rng(0).random(400), 2.0),  # about 2.6e154
        (np.random.default_rng(0).random(400), 1.0),
        (np.ldexp(np.random.default_rng(11).random(100), -600), 2.0),  # about 4.0e-27
        ([0.9, 0.0, 0.9], math.pi),  # 4^k sum a^2 < 2^1023 < pi 4^k sum a^2
    ])
    def test_order_511_where_pi_g_may_overflow_matches_mpmath(self, coeffs, t):
        # pi 4^511 sum (2^s a)^2 passes 2^1023, so pi g of the scaled amplitudes overflowed to inf
        ser = CosineSeries(np.asarray(coeffs, dtype=float))
        freqs, amps = ser.support()
        want = oracles.mp_modulus_p2(freqs, amps, 511, t, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modulus_p2_exact(ser, 511, t, 17)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_order_511_table_matches_mpmath(self):
        ser = random_bandlimited_series(np.random.default_rng(0), 64)
        freqs, amps = ser.support()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ModulusTable(ser, 511, 2.0).omega_upto(4)
        want = [oracles.mp_modulus_p2(freqs, amps, 511, 1.0 / nu, 257) for nu in range(1, 5)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_order_past_511_takes_one_row_where_t_max_freq_is_at_most_pi(self, monkeypatch):
        rows, scan = [], function_model._scaled_roots

        def counting(hs, *args):
            rows.append(hs.size)
            return scan(hs, *args)

        monkeypatch.setattr(function_model, "_scaled_roots", counting)
        ser = random_bandlimited_series(np.random.default_rng(0), 64)
        got = ModulusTable(ser, 600, 2.0).omega_upto(64)
        # 257 rows for nu <= 20, where t max_freq = 64 / nu > pi, and one for each other nu
        assert sum(rows) == 20 * 257 + 44
        freqs, amps = ser.support()
        want = [scan(function_model.shift_grid(1.0 / nu, 257), freqs, amps, 600).max()
                for nu in range(1, 65)]
        np.testing.assert_array_equal(got, want)

    def test_power_law_evaluates_few_full_rows(self, sin_form_calls):
        ser = power_law_series(1.5, 2048)
        for nu in range(1, 1025):
            modulus_p2_exact(ser, 3, 1.0 / nu)
        # full rows, the h = t row included; bounding the low band by the lowest 64
        # frequencies alone kept 46.3 per call
        full_rows = sum(rows for rows, cols in sin_form_calls if cols == 2048)
        assert full_rows / 1024 < 15

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_tying_the_last_row_are_evaluated(self, sin_form_calls, seed):
        # odd frequencies from 101 at t = pi: 2 |sin(nu t / 2)| = 2, so g(t) = 4^k sum a^2,
        # which is also the bound of every row with h >= 2 / 101; only the slack keeps
        # those rows as candidates when rounding puts the bound below g(t)
        rng = np.random.default_rng(seed)
        freqs = np.arange(101, 261, 2)
        amps = rng.uniform(0.1, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        got = modulus_p2_exact(CosineSeries.from_support(freqs, amps, 259), 2, math.pi, 17)
        assert got == pytest.approx(4.0 * math.sqrt(math.pi * np.sum(amps * amps)), rel=1e-14)
        # the first-order stage's bound of the 15 rows with h > 0 reaches g(t) too, so none
        # is cleared and each takes its sines, as does the h = t row
        assert sum(rows for rows, cols in sin_form_calls if cols == freqs.size) == 16

    @pytest.mark.parametrize("size", [40, 200], ids=["exact_block", "pruned"])
    @pytest.mark.parametrize("t", [1e-160, 1e-200])
    def test_tiny_t_matches_mpmath(self, size, t):
        # every term a^2 (2 sin(nu h / 2))^2 lies below 2**-1022 here, so unscaled terms
        # would be subnormal; at t = 1e-200 they underflowed to a modulus of 0
        rng = np.random.default_rng(7)
        freqs = np.cumsum(rng.integers(1, 5, size))
        amps = rng.uniform(0.01, 1.0, size) * rng.choice([-1.0, 1.0], size)
        ser = CosineSeries.from_support(freqs, amps, int(freqs[-1]))
        want = oracles.mp_modulus_p2(freqs, amps, 1, t, 17)
        assert modulus_p2_exact(ser, 1, t, 17) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_kept_rows_are_evaluated_in_bounded_batches(self):
        # at t = pi the high-band bound, about 4 sum a^2, is above g(t) on every row, so
        # all 256 rows are kept; evaluated at once they peaked at 130 MiB
        rng = np.random.default_rng(5)
        ser = CosineSeries(rng.choice([-1.0, 1.0], 2**16))
        tracemalloc.start()
        try:
            got = modulus_p2_exact(ser, 1, math.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == pytest.approx(math.sqrt(math.pi * 4 * 2**15), rel=1e-12)
        # one batch of 2**22 entries (32 MiB)
        assert peak < 48 * 2**20


_NARROW_OR_WIDE = st.one_of(_signed_support(1, 64), _signed_support(65, 300))


class TestModulusP2BitExact:
    """Dilation and powers of two act on modulus_p2_exact without rounding, on the exact
    block and on the table kernel alike."""

    @given(coeffs=_NARROW_OR_WIDE, k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi / 2, exclude_min=True), h_samples=st.sampled_from([17, 257]))
    @settings(max_examples=25, deadline=None)
    def test_dilation(self, coeffs, k, t, h_samples):
        # f(2 x) has a_nu at 2 nu: its rows at h are f's rows at 2 h, and the shift grids
        # and half angles scale by 2 exactly
        ser = CosineSeries(coeffs)
        freqs, amps = ser.support()
        dilated = CosineSeries.from_support(2 * freqs, amps, 2 * ser.max_freq)
        want = modulus_p2_exact(ser, k, 2 * t, h_samples)
        assert modulus_p2_exact(dilated, k, t, h_samples) == want

    @given(coeffs=_NARROW_OR_WIDE, m=st.integers(-100, 100), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True), h_samples=st.sampled_from([17, 257]))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, coeffs, m, k, t, h_samples):
        base = modulus_p2_exact(CosineSeries(coeffs), k, t, h_samples)
        want = math.ldexp(base, m)
        # below, the unscaled or the scaled value itself loses digits: at t = 1e-323 sixty-five
        # unit terms give the subnormal 5.36e-321, whose 2^64 multiple is only 4 digits right
        assume(min(base, want) >= 2.0**-1000)
        assert modulus_p2_exact(CosineSeries(np.ldexp(coeffs, m)), k, t, h_samples) == want


@st.composite
def _wide_p2_support(draw):
    """65 to 700 signed frequencies at most 3 apart, slowly decaying (nu^(-s), s in [0.25, 1]),
    flat, or in two clusters a decade apart, from a seeded generator."""
    size, kind = draw(st.integers(65, 700)), draw(st.sampled_from(["decaying", "flat", "two"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nus = np.cumsum(rng.integers(1, 4, size))
    if kind == "two":
        nus[size // 2:] += 9 * nus[size // 2 - 1]
    amps = rng.choice([-1.0, 1.0], size) * (nus ** -draw(st.floats(0.25, 1.0)) if kind == "decaying"
                                            else 1.0)
    return CosineSeries.from_support(nus, amps, int(nus[-1]))


_P2_SUPPORTS = st.one_of(_wide_p2_support(), _slowly_decaying_support(65, 400).map(CosineSeries))


class TestFirstOrderBand:
    """The last-row test and the first-order bound of the high band about h = t clear only rows
    of the p = 2 table whose value lies below the h = t row's, so the table keeps its bits."""

    @given(ser=_P2_SUPPORTS, k=st.sampled_from([1, 2, 3]),
           h_samples=st.sampled_from([17, 33, 257]), extra=st.integers(1, 64))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cleared_rows_lie_below_the_h_t_row(self, monkeypatch, ser, k, h_samples, extra):
        settled, cleared = [], []  # (t, shifts of the rows cleared) per stage
        last_row, first_order = function_model._last_row_clears, function_model._first_order_band

        def last_row_spy(grid, *args):
            out = last_row(grid, *args)
            settled.extend((row[-1], row[1:-1]) for row in grid[out])  # every 0 < h < t
            return out

        def first_order_spy(f, k, ts, grid, cand, *args):
            before = cand.copy()
            first_order(f, k, ts, grid, cand, *args)
            i, j = np.nonzero(before & ~cand)
            cleared.extend(zip(ts[i], grid[i, j, None]))

        with monkeypatch.context() as patch:
            patch.setattr(function_model, "_last_row_clears", last_row_spy)
            patch.setattr(function_model, "_first_order_band", first_order_spy)
            ModulusTable(ser, k, 2.0, h_samples).omega_upto(int(ser.max_freq / math.pi) + extra)
        freqs, amps = ser.support()
        w = amps * amps
        for rows in (settled, cleared):
            for t, hs in rows[::max(1, len(rows) // 32)]:
                top = function_model._sin_form_terms(np.array([t]), freqs, k)[0] @ w
                assert max(row @ w for row in function_model._sin_form_terms(hs, freqs, k)) < top

    @given(ser=_P2_SUPPORTS, k=st.sampled_from([1, 2, 3]),
           h_samples=st.sampled_from([17, 33, 257]), extra=st.integers(1, 64))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_is_the_table_without_the_stages(self, monkeypatch, ser, k, h_samples, extra):
        nu_max = int(ser.max_freq / math.pi) + extra
        got = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
        with monkeypatch.context() as patch:
            patch.setattr(function_model, "_last_row_clears",
                          lambda grid, top, *args: np.zeros(top.shape, bool))
            patch.setattr(function_model, "_first_order_band", lambda *args: None)
            want = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
        assert got.tolist() == want.tolist()

    @given(ser=_P2_SUPPORTS, k=st.sampled_from([1, 2, 3]),
           h_samples=st.sampled_from([17, 33, 257]), extra=st.integers(1, 64))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_is_the_table_without_the_first_order_stage(self, monkeypatch, ser, k,
                                                              h_samples, extra):
        nu_max = int(ser.max_freq / math.pi) + extra
        with monkeypatch.context() as patch:
            # the last-row test is out of both tables, so the first-order stage gets every
            # candidate of the row bounds, those of the t the last-row test settles too
            patch.setattr(function_model, "_last_row_clears",
                          lambda grid, top, *args: np.zeros(top.shape, bool))
            got = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
            patch.setattr(function_model, "_first_order_band", lambda *args: None)
            want = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("s, size, k, settled, left", [
        (2.0, 4096, 1, 1023, 0), (1.5, 2048, 3, 99, 50), (2.0, 4096, 3, 0, 0)])
    def test_few_rows_pass_the_stages_on_the_benchmark_tables(
            self, monkeypatch, s, size, k, settled, left):
        counts = {"settled": 0, "handed": 0, "left": 0}
        last_row, first_order = function_model._last_row_clears, function_model._first_order_band

        def last_row_spy(*args):
            out = last_row(*args)
            counts["settled"] += int(out.sum())
            return out

        def first_order_spy(*args):  # args[4] holds the candidates
            counts["handed"] += int(args[4].sum())
            first_order(*args)
            counts["left"] += int(args[4].sum())

        monkeypatch.setattr(function_model, "_last_row_clears", last_row_spy)
        monkeypatch.setattr(function_model, "_first_order_band", first_order_spy)
        ModulusTable(power_law_series(s, size), k, 2.0).omega_upto(1024)
        # the row bounds hand the first-order stage 1, 10,469 and 6,174 candidate rows; the t
        # with t max_freq <= pi are moment rows, which reach no last-row test
        assert counts["settled"] == settled
        assert counts["left"] == left <= 0.01 * counts["handed"]

    @pytest.mark.parametrize("s, size, k, sines, moments, left", [
        (1.5, 2048, 3, 651, 373, 50), (2.0, 4096, 1, 1024, 0, 0), (2.0, 4096, 3, 1024, 0, 0)])
    def test_sine_rows_on_the_benchmark_tables(self, monkeypatch, moment_rows, s, size, k, sines,
                                               moments, left):
        rows, sin_form_terms = {"h = t": 0, "candidate": 0}, function_model._sin_form_terms

        def spy(hs, freqs, k, *scale):  # only the h = t rows are scaled (_tiny_scale)
            if freqs.size == size:
                rows["h = t" if scale else "candidate"] += np.size(hs)
            return sin_form_terms(hs, freqs, k, *scale)

        monkeypatch.setattr(function_model, "_sin_form_terms", spy)
        ModulusTable(power_law_series(s, size), k, 2.0).omega_upto(1024)
        # the h = t rows with t max_freq <= pi (nu >= 652 on power:1.5:2048) are moment rows,
        # and the candidate rows that the first-order stage leaves take their sines
        assert (rows, sum(moment_rows)) == ({"h = t": sines, "candidate": left}, moments)


class TestP2TableBlocks:
    """_p2_table sums its sine rows in chunks of at most _BLOCK_ENTRIES entries and prunes in
    blocks of _PRUNE_ENTRIES // h_samples t's; neither size moves a value's bits."""

    @given(ser=_P2_SUPPORTS, k=st.sampled_from([1, 2, 3]), h_samples=st.sampled_from([17, 257]),
           extra=st.integers(1, 64))
    @settings(max_examples=10, deadline=None)
    def test_one_row_chunks_and_one_t_blocks_give_the_same_table(self, ser, k, h_samples, extra):
        # nu_max past max_freq / pi: rows with t max_freq <= pi too, moment rows or sine rows
        nu_max = int(ser.max_freq / math.pi) + extra
        want = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(function_model, "_BLOCK_ENTRIES", 1)
            mp.setattr(function_model, "_PRUNE_ENTRIES", 1)
            got = ModulusTable(ser, k, 2.0, h_samples).omega_upto(nu_max)
        assert got.tolist() == want.tolist()

    def test_empty_support_gives_zeros(self):
        # the amplitude scale took the largest of no amplitudes, a ValueError
        got = function_model._p2_table(CosineSeries([0.0, 0.0, 0.0]), 1, np.array([0.5, 0.25]), 257)
        assert got.tolist() == [0.0, 0.0]


_MOMENT_SUPPORTS = st.one_of(st.sampled_from([power_law_series(2.0, 4096),
                                              power_law_series(1.5, 2048)]),
                             _signed_support(65, 300).map(CosineSeries))


class TestMomentRows:
    """Where t max_freq <= pi, a support wider than _MOMENT_TERMS takes the row h = t from the
    moment expansion wherever its certificate holds, in the table and in modulus_p2_exact alike."""

    @given(ser=_MOMENT_SUPPORTS, k=st.sampled_from([1, 2, 3]), u=st.floats(2.0**-20, math.pi))
    @settings(max_examples=30, deadline=None)
    def test_certified_rows_match_the_sine_row_and_mpmath(self, ser, k, u):
        freqs, amps = ser.support()
        t = u / ser.max_freq
        assume(freqs[-1] * t <= math.pi)
        value, ok = function_model._moment_rows(ser, k, np.array([float(freqs[-1]) * t]))
        sine = math.sqrt(math.pi * float(
            function_model._sin_form_terms(np.array([t]), freqs, k)[0] @ (amps * amps)))
        assert modulus_p2_exact(ser, k, t) == (value[0] if ok[0] else sine)
        if ok[0]:
            assert value[0] == pytest.approx(sine, rel=1e-14, abs=0.0)
            assert value[0] == pytest.approx(oracles.mp_modulus_p2(freqs, amps, k, t, 2),
                                             rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s, size", [(2.0, 4096), (1.5, 2048)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_laws_take_moment_rows_up_to_pi(self, s, size, k):
        # every t with t max_freq <= pi is certified on both benchmark power laws at k <= 3
        ser = power_law_series(s, size)
        u = size / np.arange(math.ceil(size / math.pi), 16385)
        assert function_model._moment_rows(ser, k, u)[1].all()


class TestP2AmplitudeRange:
    """Past 2^+-256 the p = 2 kernels scale the amplitudes by a power of two, exactly, as the
    grid kernel does, so that a^2 stays in the float range."""

    @pytest.mark.parametrize("size", [200, 40])
    @pytest.mark.parametrize("amp", [1e200, 1e-200])
    def test_extreme_amplitudes_match_the_grid_modulus(self, size, amp):
        # 1e200: a^2 overflowed, to NaN at t = 1, inf at t = 0.001 and NaN in omega_upto(3);
        # 200 frequencies take the table kernel, 40 the exact block and the one-row path
        rng = np.random.default_rng(5)
        freqs = np.cumsum(rng.integers(1, 4, size))
        ser = CosineSeries.from_support(freqs, rng.uniform(0.1, 1.0, size) * amp, int(freqs[-1]))
        ts, n = [1.0, 0.001, 1 / 2, 1 / 3], auto_grid_size(ser)
        want = [modulus(ser, ModulusRequest(1, t, 2.0, 17), n) for t in ts]
        got = [modulus_p2_exact(ser, 1, t, 17) for t in ts]
        table = ModulusTable(ser, 1, 2.0, 17).omega_upto(3).tolist()
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert table == pytest.approx([want[0], *want[2:]], rel=1e-12, abs=0.0)


class TestModulusP2Monotone:
    """When t max_freq <= pi every factor sin^2(nu h / 2) grows on [0, t], so the h = t
    row alone is the sup."""

    @given(coeffs=_signed_support(1, 300), k=st.sampled_from([1, 2, 3]),
           u=st.floats(1e-3, 1.0), h_samples=st.sampled_from([17, 33, 257]))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_oracle(self, coeffs, k, u, h_samples):
        t = u * math.pi / coeffs.size
        got = modulus_p2_exact(CosineSeries(coeffs), k, t, h_samples)
        want = oracles.modulus_p2_h_scan(coeffs, k, t, h_samples)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_one_term_past_its_peak_is_scanned(self, k):
        # nu t = 1.2 pi: sin^2(nu h / 2) peaks at h = pi / nu < t, 5% above the h = t row at k = 1
        ser, t = harmonic(5), 1.2 * math.pi / 5
        got = modulus_p2_exact(ser, k, t)
        assert got > oracles.modulus_p2_h_scan(ser.coeffs, k, t, 2) * (1 + 1e-3)
        assert got == pytest.approx(oracles.modulus_p2_h_scan(ser.coeffs, k, t, 257),
                                    rel=1e-12, abs=0.0)

    # past _MOMENT_TERMS frequencies the last row is a moment row, without sines
    @pytest.mark.parametrize("ser,t,sines,moments", [
        (power_law_series(1.5, 2048), 1.0 / 652, [], [1]),
        (CosineSeries(np.ones(64)), math.pi / 64, [(1, 64)], [])], ids=["dense", "exact_block"])
    def test_evaluates_the_last_row_only(self, sin_form_calls, moment_rows, ser, t, sines, moments):
        modulus_p2_exact(ser, 3, t)
        assert sin_form_calls == sines
        assert moment_rows == moments

    def test_tiny_t_evaluates_one_moment_row(self, sin_form_calls, moment_rows):
        # the scaled sine row of a support of at most _MOMENT_TERMS frequencies is
        # test_tiny_t_matches_mpmath[exact_block]
        rng = np.random.default_rng(7)
        freqs = np.cumsum(rng.integers(1, 5, 200))
        ser = CosineSeries.from_support(freqs, rng.uniform(0.01, 1.0, 200), int(freqs[-1]))
        modulus_p2_exact(ser, 1, 1e-200, 17)
        assert (sin_form_calls, moment_rows) == ([], [1])

    @pytest.mark.parametrize("k", [19, 30])
    def test_tiny_t_at_high_order_matches_mpmath(self, k):
        # nu_max t = 8e-11: the shift scale lifts the largest sine factor only to 2**-27,
        # and (2**-27)**(2k) underflows from k = 19 (the kernel returned 0 at k = 30)
        rng = np.random.default_rng(11)
        freqs = np.arange(1, 81)
        amps = rng.uniform(0.1, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        ser = CosineSeries.from_support(freqs, amps, 80)
        want = oracles.mp_modulus_p2(freqs, amps, k, 1e-12, 17)
        assert want > 2.0**-1022
        assert modulus_p2_exact(ser, k, 1e-12, 17) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_bucket_ratios_are_cached_read_only(self):
        ratios = function_model._bucket_ratios(3, 257)
        assert ratios.shape == (256, function_model._RATIO_BUCKETS)
        assert function_model._bucket_ratios(3, 257) is ratios
        with pytest.raises(ValueError):
            ratios[1, 1] = 0.0


class TestShiftSamplesBound:
    def test_request_and_kernel_refuse_too_many_shifts(self):
        with pytest.raises(ConstraintViolation, match="at most 1048577"):
            ModulusRequest(k=1, t=0.5, p=2.0, h_samples=MAX_H_SAMPLES + 1)
        with pytest.raises(DomainError, match="at most 1048577"):
            modulus_p2_exact(power_law_series(2.0, 256), 1, 0.5, MAX_H_SAMPLES + 1)

    def test_largest_accepted_count(self):
        ModulusRequest(k=1, t=0.5, p=2.0, h_samples=MAX_H_SAMPLES)
        # nu t <= pi, so only the h = t row is built
        got = modulus_p2_exact(harmonic(2), 2, 0.5, MAX_H_SAMPLES)
        assert got == pytest.approx((2.0 * math.sin(0.5)) ** 2 * SQRT_PI, rel=1e-13)


def _harmonic_past_peak():
    # 2 |sin(h)| peaks at h = pi / 2, inside the shift range, and is 7% lower at h = t
    return np.array([0.0, 1.0]), 1.95


@pytest.fixture
def irfft_rows(monkeypatch):
    """Number of rows of each np.fft.irfft call made while the test runs."""
    rows = []
    real = np.fft.irfft

    def counting(x, *args, **kwargs):
        rows.append(x.shape[0] if x.ndim > 1 else 1)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    return rows


class TestModulusPruned:
    """The grid modulus evaluates on the grid only the shift rows whose coefficient bound
    reaches the best row so far; its value must be the sup over every row."""

    @given(coeffs=_signed_support(1, 120), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True),
           p=st.sampled_from([1.05, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0]),
           h_samples=st.sampled_from([17, 33, 257]), oversample=st.sampled_from([1, 2, 4]))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_scan(self, coeffs, k, t, p, h_samples, oversample):
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8) * oversample
        got = modulus(ser, ModulusRequest(k=k, t=t, p=p, h_samples=h_samples), n)
        want = oracles.modulus_grid_full_scan(coeffs, k, t, p, h_samples, n)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("case", [_dirichlet_case, _harmonic_past_peak],
                             ids=["dirichlet", "harmonic_past_peak"])
    def test_sup_off_the_last_row(self, case, p):
        coeffs, t = case()
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser)
        got = modulus(ser, ModulusRequest(k=1, t=t, p=p), n)
        # two shift samples are h = 0 and h = t
        assert got > oracles.modulus_grid_full_scan(coeffs, 1, t, p, 2, n) * (1 + 1e-3)
        assert got == pytest.approx(oracles.modulus_grid_full_scan(coeffs, 1, t, p, 257, n),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_tying_the_last_row_are_evaluated(self, irfft_rows, m, k):
        # |2 sin((2m + 1) h)|^k peaks at h = t = pi / 2 and at m more shift rows; at p = 2
        # each row's bound is its own value, so only the slack keeps the tied rows
        coeffs = np.zeros(4 * m + 2)
        coeffs[-1] = 0.7
        req = ModulusRequest(k=k, t=math.pi / 2, p=2.0, h_samples=8 * (2 * m + 1) + 1)
        got = modulus(CosineSeries(coeffs), req, 64)
        assert got == pytest.approx(0.7 * 2.0 ** k * SQRT_PI, rel=1e-14)
        assert sum(irfft_rows) == m + 1

    def test_power_law_at_p3_evaluates_few_rows(self, irfft_rows):
        # two grid rows, the h = t row included, and one irfft row for the slope bound
        modulus(power_law_series(2.0, 256), ModulusRequest(k=1, t=1.0 / 16, p=3.0), 4096)
        assert sum(irfft_rows) <= 3

    def test_spectrum_batch_memory_is_capped_at_large_grids(self, irfft_rows):
        # 64 harmonics of random sign spread up to 2**20: at p = 7 the sup-norm bound is
        # loose, so most rows survive
        rng = np.random.default_rng(5)
        coeffs = np.zeros(2**20 - 1)
        coeffs[rng.choice(coeffs.size, 64, replace=False)] = rng.choice([-1.0, 1.0], 64)
        ser = CosineSeries(coeffs)
        tracemalloc.start()
        try:
            modulus(ser, ModulusRequest(k=1, t=math.pi, p=7.0, h_samples=17), 2**21)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(irfft_rows) > 8
        # batches of one row at n = 2**21: 2**20 + 1 complex spectrum entries (16 MiB) and
        # its 16 MiB of samples; the peak is about 33 MiB
        assert peak < 160 * 2**20

    def test_power_law_at_p3_neighbour_bounds_leave_few_rows(self, irfft_rows):
        # the bound of each row alone leaves 100 rows to evaluate here
        modulus(power_law_series(2.0, 256), ModulusRequest(k=1, t=1.0 / 16, p=3.0), 4096)
        assert sum(irfft_rows) <= 20

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_k1_sup_one_row_past_an_anchor(self, p):
        # |2 sin(6 h)| peaks 0.045 shifts past row 209 = 13 * 16 + 1, 0.5 shifts before
        # the last row and 1.045 past the anchor row 208: row 209's neighbour bound from
        # that anchor is value(208) + the bound of row 1, and with row 0's bound (0)
        # there, row 209 fell below the last row and was pruned
        coeffs, t = harmonic(12).coeffs, 11 * 256 * math.pi / (255.5 * 12)
        n = auto_grid_size(CosineSeries(coeffs))
        got = modulus(CosineSeries(coeffs), ModulusRequest(k=1, t=t, p=p), n)
        last = oracles.modulus_grid_full_scan(coeffs, 1, t, p, 2, n)
        assert got > last * (1 + 1e-4)
        assert got == pytest.approx(oracles.modulus_grid_full_scan(coeffs, 1, t, p, 257, n),
                                    rel=1e-12, abs=0.0)

    def test_power_law_table_at_p3_evaluates_few_rows(self, irfft_rows):
        # omega(1 / nu) for nu = 1..256: 519 grid rows, 2.03 per call, the h = t rows included,
        # and one irfft row for the slope bound
        ser = power_law_series(2.0, 256)
        for nu in range(1, 257):
            modulus(ser, ModulusRequest(k=1, t=1.0 / nu, p=3.0), 4096)
        assert sum(irfft_rows) <= 520

    @given(coeffs=_signed_support(120, 400), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True), p=st.sampled_from([1.5, 3.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_matches_full_scan_across_anchor_blocks(self, coeffs, k, t, p):
        # 257 shifts make 16 blocks of 16 rows between anchors
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8)
        got = modulus(ser, ModulusRequest(k=k, t=t, p=p, h_samples=257), n)
        want = oracles.modulus_grid_full_scan(coeffs, k, t, p, 257, n)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _shifted_difference(coeffs, n, h, k):
    """Delta_h^k f on the n-point grid, summed pointwise from shifted direct syntheses."""
    return sum((-1) ** (k - j) * math.comb(k, j) * oracles.direct_synthesis(coeffs, n, j * h)
               for j in range(k + 1))


@given(coeffs=_signed_support(1, 40), k=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([1.05, 1.5, 2.0, 3.0, 4.0, 7.0]), t=st.floats(1e-12, math.pi),
       block=st.integers(0, 15), offset=st.integers(1, 15), oversample=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_secant_bound_covers_the_rows_between_block_ends(coeffs, k, p, t, block, offset,
                                                         oversample):
    # a row strictly inside one 16-shift block of the 257-row grid (its upper end h = t in the
    # last block), with the ends taken as their values and as their row bounds
    ser = CosineSeries(coeffs)
    n = auto_grid_size(ser, 8) * oversample
    freqs, amps = ser.support()
    req = ModulusRequest(k=k, t=t, p=p, h_samples=257)
    hs = function_model.shift_grid(t, 257)
    a, j, b = 16 * block, 16 * block + offset, 16 * block + 16
    value = {c: oracles.brute_lp_norm(_shifted_difference(coeffs, n, hs[c], k), p)
             for c in (a, j, b, 256)}
    c2 = function_model._c2(np.array([t]), np.array([value[256]]), freqs, amps, req)[0]
    assume(not math.isnan(c2))
    rows = np.append(function_model._row_bounds(hs, freqs, amps, req, 64), value[256])
    # rounding of the 2^k pointwise syntheses of each row, whose cosine arguments reach
    # 5 pi nu_max
    slack = 1e-13 * 2.0 ** k * float(np.sum(np.abs(amps))) * freqs[-1]
    for ends in ((value[a], value[b]), (rows[a], rows[b])):
        bound = function_model._secant_bounds(hs[j], hs[a], hs[b], *ends, c2)
        assert value[j] <= bound * (1.0 + 1e-12) + slack


@st.composite
def _straddling_case(draw):
    """A signed support of 2 to 300 frequencies and a step bound t with pi / t between
    its lowest and its highest frequency, so both bands of the row bound are used."""
    coeffs = draw(_signed_support(2, 300))
    freqs = np.flatnonzero(coeffs) + 1
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    return coeffs, math.pi / (freqs[0] + u * (freqs[-1] - freqs[0]))


def _own_moduli_bounds(hs, freqs, amps, k, p):
    """_holder_bounds of the rows hs from their own moduli |2 sin(nu h / 2)|^k, unscaled."""
    sq = function_model._sin_form_terms(hs, freqs, k)
    return function_model._holder_bounds(sq @ (amps * amps), np.sqrt(sq) @ np.abs(amps), p)


@given(case=_straddling_case(), k=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([1.5, 2.0, 3.0, 7.0]), h_samples=st.sampled_from([16, 17, 257]))
@settings(max_examples=60, deadline=None)
def test_row_bounds_cover_the_hoelder_bound_of_each_row(case, k, p, h_samples):
    coeffs, t = case
    freqs, amps = CosineSeries(coeffs).support()
    req = ModulusRequest(k=k, t=t, p=p, h_samples=h_samples)
    hs = function_model.shift_grid(t, h_samples)
    got = function_model._row_bounds(hs, freqs, amps, req, 5)
    assert np.all(got >= _own_moduli_bounds(hs[:-1], freqs, amps, k, p) * (1.0 - 1e-12))


class TestBooleanOrder:
    # bool is an int subclass, but True is not a difference order; ClassParams refuses it too
    def test_request_refuses_bool_order(self):
        with pytest.raises(ConstraintViolation, match="positive integer, got True"):
            ModulusRequest(True, 0.5, 3.0)

    def test_p2_kernel_refuses_bool_order(self):
        with pytest.raises(DomainError, match="positive integer, got True"):
            modulus_p2_exact(power_law_series(2.0, 64), True, 0.5)

    def test_difference_refuses_bool_order(self):
        with pytest.raises(DomainError, match="positive integer, got True"):
            difference(synthesize(power_law_series(2.0, 8), 32), 0.3, True)

    def test_monotone_bracket_refuses_bool_order(self):
        with pytest.raises(DomainError, match="positive integer, got True"):
            modulus_bounds_monotone(power_law_series(2.0, 64), 4, True, 2.0)


def _evaluated_row(coeffs, n, h, k):
    """Delta_h^k f on the n-point grid, built as the grid modulus builds its rows."""
    nus = np.arange(1, coeffs.size + 1)
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[nus] = 0.5 * n * coeffs * (np.exp(1j * nus * h) - 1.0) ** k
    return np.fft.irfft(spec, n=n)


class TestSlopeCap:
    """At p > 2 the grid modulus caps the sup factor of its row bounds by 2^(k-1) h L,
    L = _slope_bound >= sup |f'|; two rows differ by at most k 2^(k-1) |h - h0| L."""

    @given(coeffs=_signed_support(1, 120), oversample=st.sampled_from([1, 2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_slope_bound_covers_a_16_times_denser_grid(self, coeffs, oversample):
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8) * oversample
        nus = np.arange(1, coeffs.size + 1)
        spec = np.zeros(8 * n + 1, dtype=complex)
        spec[nus] = 8j * n * nus * coeffs  # f' on 16 n points
        assert function_model._slope_bound(ser, n) >= np.abs(np.fft.irfft(spec, n=16 * n)).max()

    @given(coeffs=_signed_support(1, 60), k=st.sampled_from([1, 2, 3]),
           h=st.floats(1e-300, math.pi), oversample=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_evaluated_rows_lie_within_the_cap(self, coeffs, k, h, oversample):
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8) * oversample
        cap = 2.0 ** (k - 1) * h * function_model._slope_bound(ser, n)
        assert np.abs(_evaluated_row(coeffs, n, h, k)).max() <= cap

    @given(coeffs=_signed_support(1, 40), k=st.sampled_from([1, 2, 3]),
           h=st.floats(0.0, math.pi), h0=st.floats(0.0, math.pi),
           oversample=st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_row_difference_lies_within_the_cap(self, coeffs, k, h, h0, oversample):
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8) * oversample
        freqs, amps = ser.support()
        slope = function_model._slope_bound(ser, n)
        gap = _shifted_difference(coeffs, n, h, k) - _shifted_difference(coeffs, n, h0, k)
        slack = 1e-13 * 2.0 ** k * float(np.sum(np.abs(amps))) * freqs[-1]
        if math.isfinite(slope):  # off near the alias limit
            assert np.abs(gap).max() <= k * 2.0 ** (k - 1) * abs(h - h0) * slope + slack

    @pytest.mark.parametrize("n", [16, 64, 4096])
    def test_supports_near_the_alias_limit_switch_the_cap_off(self, n):
        # (pi F / n)^2 < 2 holds up to F = 0.45 n
        top = int(n * math.sqrt(2.0) / math.pi)
        assert math.isfinite(function_model._slope_bound(harmonic(top), n))
        for f in range(top + 1, n // 2):
            assert function_model._slope_bound(harmonic(f), n) == math.inf

    def test_power_law_table_at_p3_evaluates_few_rows(self, irfft_rows):
        # omega(1 / nu) for nu = 1..256: 5.04 grid rows per call, the h = t row included,
        # and one irfft row for the slope bound; 13.02 without the cap
        ser = power_law_series(2.0, 256)
        for nu in range(1, 257):
            modulus(ser, ModulusRequest(k=1, t=1.0 / nu, p=3.0), 4096)
        assert sum(irfft_rows) / 256 <= 5.1


class TestGridFloatRange:
    """Rows whose powers |x|^p would leave the float range are scaled by powers of two."""

    def test_tiny_step_bound_is_linear(self):
        ser = power_law_series(2.0, 256)
        at = [modulus(ser, ModulusRequest(k=1, t=t, p=3.0), 4096) for t in (1e-160, 1e-100)]
        assert at[0] == pytest.approx(1e-60 * at[1], rel=1e-12, abs=0.0)

    def test_order_600_is_finite(self):
        ser = power_law_series(2.0, 256)
        got = modulus(ser, ModulusRequest(k=600, t=0.5, p=3.0, h_samples=17), 4096)
        want = oracles.modulus_grid_full_scan(ser.coeffs, 600, 0.5, 3.0, 17, 4096)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @given(coeffs=_signed_support(1, 40), m=st.integers(-1000, 1000),
           k=st.sampled_from([1, 2, 3]), t=st.floats(1e-12, math.pi),
           p=st.sampled_from([1.5, 2.0, 3.0, 4.0]))
    @settings(max_examples=30, deadline=None)
    def test_homogeneous_under_powers_of_two(self, coeffs, m, k, t, p):
        ser = CosineSeries(coeffs)
        n = auto_grid_size(ser, 8)
        req = ModulusRequest(k=k, t=t, p=p, h_samples=33)
        want = math.ldexp(modulus(ser, req, n), m)
        assume(want >= 2.0**-1000)  # below, the scaled value itself loses digits
        got = modulus(CosineSeries(np.ldexp(coeffs, m)), req, n)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _c2_with_the_last_row_unscaled(freqs, amps, k, t):
    """_c2 at t, p = 3, on the amplitudes times the least 2^(8 m), m >= 0, under which the h = t
    row is not scaled.  With the amplitudes as given that row is scaled here, and _c2 is NaN."""
    ts, req = np.array([t]), ModulusRequest(k=k, t=t, p=3.0)
    assert math.isnan(function_model._c2(ts, np.ones(1), freqs, amps, req)[0])
    amps = next(a for a in (np.ldexp(amps, 8 * m) for m in range(128))
                if not function_model._scaled_rows(ts, freqs, a, req)[0])
    spec = np.zeros((1, 4096 // 2 + 1), dtype=complex)
    return function_model._c2(ts, function_model._grid_norms(ts, freqs, amps, req, 4096, spec),
                              freqs, amps, req)[0]


class TestGridTinyStep:
    """At tiny t the grid bounds scale their sine factors by a power of two, so that their
    powers do not underflow below the rows they bound."""

    @pytest.mark.parametrize("k, t", [(1, 1e-160), (2, 1e-100), (3, 1e-70)])
    def test_bounds_are_positive_and_homogeneous_of_degree_k(self, k, t):
        ser = power_law_series(2.0, 256)
        freqs, amps = ser.support()
        slope = function_model._slope_bound(ser, 4096)

        def bounds(t):
            req = ModulusRequest(k=k, t=t, p=3.0)
            hs = function_model.shift_grid(t, 257)
            return function_model._row_bounds(hs, freqs, amps, req, 512, slope)[1:]

        small, large = bounds(t), bounds(1e10 * t)
        assert np.all(small > 0.0)
        np.testing.assert_allclose(large, small * 1e10 ** k, rtol=1e-12, atol=0.0)
        assert 0.0 < _c2_with_the_last_row_unscaled(freqs, amps, k, t) < math.inf

    @pytest.mark.parametrize("k, t", [(2, 1e-100), (3, 1e-70)])
    def test_value_matches_full_scan(self, k, t):
        ser = power_law_series(2.0, 256)
        got = modulus(ser, ModulusRequest(k=k, t=t, p=3.0), 4096)
        want = oracles.modulus_grid_full_scan(ser.coeffs, k, t, 3.0, 257, 4096)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def _rng11_support():
    # the 80-frequency support of test_tiny_t_at_high_order_matches_mpmath
    rng = np.random.default_rng(11)
    freqs = np.arange(1, 81)
    return freqs, rng.uniform(0.1, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)


class TestHighOrderUnderflow:
    """At moderate t and high k the moduli are normal floats while the powers
    (2 sin(nu h / 2))^(2k) of their factors are not; both kernels then scale the factors
    after the sine, as at tiny t."""

    @pytest.mark.parametrize("k, t", [(100, 1.25e-4), (25, 2.0**-27 / 80)])
    def test_p2_matches_mpmath(self, k, t):
        # nu_max t = 0.01 and 2**-27: 0.01**200 and 2**-1350 underflow, and the kernel returned 0
        freqs, amps = _rng11_support()
        want = oracles.mp_modulus_p2(freqs, amps, k, t, 17)
        assert want > 2.0**-1022
        got = modulus_p2_exact(CosineSeries.from_support(freqs, amps, 80), k, t, 17)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_p2_table_scales_each_t_as_the_one_t_kernel(self):
        # 100 frequencies fill the p = 2 table in blocks; from nu = 1000 on, nu_max t <= 0.1
        rng = np.random.default_rng(3)
        ser = CosineSeries.from_support(np.arange(1, 101), rng.uniform(0.1, 1.0, 100), 100)
        got = ModulusTable(ser, 100, 2.0, h_samples=17).omega_upto(10_000)
        nus = [1, 31, 1000, 10_000]
        assert [got[nu - 1] for nu in nus] == [modulus_p2_exact(ser, 100, 1.0 / nu, 17) for nu in nus]
        assert got[-1] > 2.0**-1022

    @pytest.mark.parametrize("k, x", [(100, 0.01), (60, 0.001)])
    def test_grid_bounds_cover_the_rows_and_are_homogeneous_of_degree_k(self, k, x):
        # t = x / 256 on power:2:256: every row bound and neighbour bound was 0
        ser = power_law_series(2.0, 256)
        freqs, amps = ser.support()
        slope = function_model._slope_bound(ser, 4096)

        def bounds(t):
            req = ModulusRequest(k=k, t=t, p=3.0)
            hs = function_model.shift_grid(t, 257)
            rows = function_model._row_bounds(hs, freqs, amps, req, 512, slope)
            spec = np.zeros((hs.size, 4096 // 2 + 1), dtype=complex)
            return rows, function_model._grid_norms(hs, freqs, amps, req, 4096, spec)

        rows, values = bounds(x / 256)
        assert np.all(rows >= values[:-1])
        # rows 0 to 16 lie below the float range, at k = 100
        assert np.all(rows[values[:-1] > 0.0] > 0.0)
        assert 0.0 < _c2_with_the_last_row_unscaled(freqs, amps, k, x / 256) < math.inf
        half = bounds(x / 512)[0]
        normal = half >= 2.0**-1022
        # 2 sin(y / 2) / y = 1 - y^2 / 24 + ..., y <= x, to the power 2k: within 1e-3
        np.testing.assert_allclose(rows[normal], np.ldexp(half[normal], k), rtol=1e-3, atol=0.0)
        assert modulus(ser, ModulusRequest(k=k, t=x / 256, p=3.0), 4096) == pytest.approx(
            oracles.modulus_grid_full_scan(ser.coeffs, k, x / 256, 3.0, 257, 4096),
            rel=1e-12, abs=0.0)


@st.composite
def _straddling_block(draw):
    """A signed support of 2 to 300 frequencies and 1 to 4 step bounds t, each with pi / t
    between its lowest and its highest frequency."""
    coeffs = draw(_signed_support(2, 300))
    freqs = np.flatnonzero(coeffs) + 1
    us = np.array(draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=4)))
    return coeffs, math.pi / (freqs[0] + us * (freqs[-1] - freqs[0]))


class TestGridTable:
    """The grid omega table fills its missing nu in blocks through _grid_table, whose
    one-t call is modulus; its row bounds take no sines but the h = t row's, and a row takes
    its own (_own_bounds) only right before its FFT."""

    @given(coeffs=_signed_support(1, 400), k=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([1.5, 3.0, 4.0]), h_samples=st.sampled_from([17, 257]),
           extra=st.integers(1, 24))
    @settings(max_examples=8, deadline=None)
    # one frequency at k = 2: the one-t call's one-entry multiplier array took np.power's
    # rounding, and the table's np.square's, at nu = 1
    @example(coeffs=np.array([0.33203125]), k=2, p=4.0, h_samples=17, extra=1)
    def test_block_fill_is_modulus_bit_for_bit(self, coeffs, k, p, h_samples, extra):
        # nu_max lies past max_freq / pi, where the high band empties, and past the first
        # block edge (2**14 // max(N, h_samples) nu per block)
        ser = CosineSeries(coeffs)
        block, split = 2**14 // max(ser.support()[0].size, h_samples), int(ser.max_freq / math.pi)
        nu_max = max(split, block) + extra
        got = ModulusTable(ser, k, p, h_samples).omega_upto(nu_max)
        # every 7th nu, and both sides of each edge, each by one modulus call
        nus = sorted({*range(1, nu_max + 1, 7), block, block + 1, max(split, 1), split + 1, nu_max})
        one = ModulusTable(ser, k, p, h_samples)
        assert [got[nu - 1] for nu in nus] == [one.omega_at(nu) for nu in nus]

    @given(case=_straddling_block(), k=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([1.5, 2.0, 3.0, 7.0]), h_samples=st.sampled_from([16, 17, 257]))
    @settings(max_examples=60, deadline=None)
    def test_sine_free_high_band_covers_the_hoelder_bound_of_each_row(self, case, k, p, h_samples):
        coeffs, ts = case
        ser = CosineSeries(coeffs)
        freqs, amps = ser.support()
        n = auto_grid_size(ser, 8)
        req = ModulusRequest(k=k, t=float(ts[0]), p=p, h_samples=h_samples)
        hs = function_model.shift_grid(ts, h_samples)
        free = function_model._row_bounds(hs, freqs, amps, req, 5)
        for row, free_row in zip(hs, free):
            want = _own_moduli_bounds(row[:-1], freqs, amps, k, p)
            assert np.all(free_row >= want * (1.0 - 1e-12))
        # the gate's bound, from each row's own sines, covers the row's grid value and
        # lies below the sine-free one
        rows, t = hs[:, :-1].ravel(), np.repeat(ts, h_samples - 1)
        own = function_model._own_bounds(rows, t, freqs, amps, req, math.inf)
        spec = np.zeros((rows.size, n // 2 + 1), dtype=complex)
        values = function_model._grid_norms(rows, freqs, amps, req, n, spec)
        assert np.all(values <= own * (1.0 + function_model._BOUND_SLACK))
        assert np.all(own <= free.ravel() * (1.0 + 1e-12))

    def test_power_law_table_at_p3_evaluates_no_more_rows(self, irfft_rows):
        # 519 grid rows, the h = t rows included, and one irfft for the slope bound
        ModulusTable(power_law_series(2.0, 256), 1, 3.0).omega_upto(256)
        assert sum(irfft_rows) <= 520

    def test_power_law_table_at_p3_peak_memory(self):
        # batches of 2**20 // n rows, each with a fresh spectrum, peaked at 9.6 MiB
        ser = power_law_series(2.0, 256)
        ser.support()
        tracemalloc.start()
        try:
            ModulusTable(ser, 1, 3.0).omega_upto(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.8 * 2**20

    @given(coeffs=_signed_support(1, 300), k=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([1.5, 2.0, 3.0, 4.0]), h_samples=st.sampled_from([17, 257]),
           nu_max=st.integers(1, 48))
    @settings(max_examples=12, deadline=None)
    def test_one_row_batches_give_the_same_table(self, coeffs, k, p, h_samples, nu_max):
        # each row's irfft, |x|^p and sum are its own, whatever else shares its batch
        ser = CosineSeries(coeffs)
        want = ModulusTable(ser, k, p, h_samples).omega_upto(nu_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(function_model, "_BATCH_SAMPLES", 1)
            got = ModulusTable(ser, k, p, h_samples).omega_upto(nu_max)
        assert got.tolist() == want.tolist()

    @given(coeffs=_signed_support(1, 120), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True), p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
           log_n=st.integers(3, 16))
    @settings(max_examples=12, deadline=None)
    # np.einsum, which summed the rows at p = 2, rounds a lone row past 8192 samples otherwise
    @example(coeffs=np.ones(6), k=1, t=1.0, p=2.0, log_n=14)
    def test_one_row_batches_give_the_same_modulus(self, coeffs, k, t, p, log_n):
        ser = CosineSeries(coeffs)
        n, req = max(auto_grid_size(ser, 8), 2**log_n), ModulusRequest(k=k, t=t, p=p)
        want = modulus(ser, req, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(function_model, "_BATCH_SAMPLES", 1)
            assert modulus(ser, req, n) == want


class TestSecantBand:
    """The grid table bounds each candidate row by the secant of its two neighbouring anchors
    plus a curvature term; at p != 2 the row h1 = t - S is the top anchor, evaluated, and the
    rows h1 < h < t take the secant of h1 and t.  It clears only rows below the best row, so
    the table keeps its bits, and it clears most rows near t on power laws."""

    @given(coeffs=_signed_support(1, 400), k=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([1.5, 3.0, 4.0]), h_samples=st.sampled_from([17, 257]),
           extra=st.integers(1, 24))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_table_is_the_table_without_the_stage(self, monkeypatch, coeffs, k, p, h_samples,
                                                  extra):
        # nu_max lies past max_freq / pi, where the sup moves to h = t; a NaN C2 turns off the
        # top anchor and every secant bound, so the row bounds and the gate alone are left
        ser = CosineSeries(coeffs)
        nu_max = int(ser.max_freq / math.pi) + extra
        got = ModulusTable(ser, k, p, h_samples).omega_upto(nu_max)
        with monkeypatch.context() as patch:
            patch.setattr(function_model, "_c2", lambda t, *args: np.full(t.size, np.nan))
            want = ModulusTable(ser, k, p, h_samples).omega_upto(nu_max)
        assert got.tolist() == want.tolist()

    @given(coeffs=_signed_support(1, 120), k=st.sampled_from([1, 2, 3]),
           p=st.sampled_from([1.5, 3.0, 4.0]), h_samples=st.sampled_from([17, 257]),
           extra=st.integers(1, 24), oversample=st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bound_covers_the_evaluated_rows(self, monkeypatch, coeffs, k, p, h_samples, extra,
                                             oversample):
        ser = CosineSeries(coeffs)
        freqs, amps = ser.support()
        n, req = auto_grid_size(ser, 8) * oversample, ModulusRequest(k, 1.0, p, h_samples)
        bounded = []  # (h, bound) of every row h0 < h < t the stage bounds
        secant = function_model._secant_bounds

        def spy(h, *args):
            bound = secant(h, *args)
            bounded.extend(zip(h, bound))
            return bound

        monkeypatch.setattr(function_model, "_secant_bounds", spy)
        nus = np.arange(1, int(ser.max_freq / math.pi) + extra + 1)
        function_model._grid_table(ser, req, 1.0 / nus, n)
        for h, bound in bounded[::max(1, len(bounded) // 32)]:
            spec = np.zeros((1, n // 2 + 1), dtype=complex)
            value = function_model._grid_norms(np.array([h]), freqs, amps, req, n, spec)[0]
            assert value <= bound * (1.0 + function_model._BOUND_SLACK)

    @given(coeffs=_signed_support(1, 40), m=st.integers(-300, 300),
           k=st.sampled_from([1, 2, 3, 60]), t=st.floats(1e-300, math.pi),
           p=st.sampled_from([1.5, 3.0, 7.0]),
           ut=st.sampled_from([0.0, 1e-300, 1.0, 1e300, math.inf, math.nan]))
    @settings(max_examples=100, deadline=None)
    def test_c2_is_nan_exactly_where_the_stage_is_off(self, coeffs, m, k, t, p, ut):
        # off where C2 or u(t) is not a positive finite float or the h = t row is scaled;
        # fewer than 2 shifts of S is _grid_table's own test, where it places the top anchor
        freqs, amps = CosineSeries(coeffs).support()
        amps, ts, req = np.ldexp(amps, m), np.array([t]), ModulusRequest(k=k, t=t, p=p)
        got = function_model._c2(ts, np.array([ut]), freqs, amps, req)[0]
        want = oracles.mp_c2(freqs, amps, k, t, p)
        e = float(mpmath.log(want, 2))
        assume(not (-1100 < e < -1000 or 1000 < e < 1100))  # where C2's rounding decides
        on = (0.0 < ut < math.inf and -1000 <= e <= 1000
              and not function_model._scaled_rows(ts, freqs, amps, req)[0])
        assert math.isnan(got) != on
        if on:
            assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_table_with_scaled_last_rows_is_the_full_scan(self):
        # amplitudes up to 2^254, which _amp_scale keeps, put p u past 900 on every h = t row
        # at p = 4: _c2 is NaN there, and neither secant bound applies
        ser = CosineSeries(np.ldexp(power_law_series(2.0, 64).coeffs, 254))
        freqs, amps = ser.support()
        nus = np.arange(1, 41)
        req = ModulusRequest(k=2, t=1.0, p=4.0, h_samples=33)
        assert function_model._scaled_rows(1.0 / nus, freqs, amps, req).all()
        got = ModulusTable(ser, 2, 4.0, h_samples=33).omega_upto(40)
        assert got.tolist() == [oracles.modulus_grid_full_scan(ser.coeffs, 2, 1.0 / nu, 4.0, 33,
                                                               4096) for nu in nus]

    @pytest.mark.parametrize("k, p, rows", [(1, 3.0, 519), (2, 4.0, 566), (3, 3.0, 732),
                                            (2, 1.5, 1249), (3, 1.5, 1244)])
    def test_power_law_tables_evaluate_few_rows(self, irfft_rows, k, p, rows):
        # 519, 566, 732, 1,250 and 1,245 grid rows, the h = t rows included, and at p > 2 one
        # irfft for the slope bound
        ModulusTable(power_law_series(2.0, 256), k, p).omega_upto(256)
        assert sum(irfft_rows) <= rows + 1

    def test_rough_k1_table_evaluates_few_rows(self, irfft_rows):
        # a rough series at k = 1, where C2 step^2 exceeds the values at small nu: 1,277 grid
        # rows and one irfft for the slope bound
        ModulusTable(power_law_series(1.5, 2048), 1, 3.0).omega_upto(64)
        assert sum(irfft_rows) <= 1278
