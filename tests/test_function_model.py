import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsmooth import (
    AliasError,
    CosineSeries,
    DomainError,
    GridFunction,
    ModulusRequest,
    difference,
    lp_norm,
    modulus,
    modulus_p2_exact,
    power_law_series,
    synthesize,
)
from trigsmooth import function_model
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
def screened(monkeypatch):
    """(candidate rows in, candidate rows left) of each _screen call made while the test runs."""
    calls = []
    real = function_model._screen

    def counting(freqs, w, k, ts, grid, cand, top):
        before = int(cand.sum())
        real(freqs, w, k, ts, grid, cand, top)
        calls.append((before, int(cand.sum())))

    monkeypatch.setattr(function_model, "_screen", counting)
    return calls


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


class TestModulusP2Pruned:
    """Supports wider than the exact block take the pruned path, which must return the
    same grid sup as a scan of every shift row."""

    @given(coeffs=_signed_support(65, 300), k=st.sampled_from([1, 2, 3]),
           t=st.floats(0.0, math.pi, exclude_min=True), h_samples=st.sampled_from([17, 33, 257]))
    @settings(max_examples=40, deadline=None)
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

    def test_power_law_evaluates_few_full_rows(self, sin_form_calls):
        ser = power_law_series(1.5, 2048)
        for nu in range(1, 1025):
            modulus_p2_exact(ser, 3, 1.0 / nu)
        # full rows, the h = t row included; bounding the low band by the lowest 64
        # frequencies alone kept 46.3 per call
        full_rows = sum(rows for rows, cols in sin_form_calls if cols == 2048)
        assert full_rows / 1024 < 15

    @pytest.mark.parametrize("seed", range(8))
    def test_rows_tying_the_last_row_are_evaluated(self, sin_form_calls, screened, seed):
        # odd frequencies from 101 at t = pi: 2 |sin(nu t / 2)| = 2, so g(t) = 4^k sum a^2,
        # which is also the bound of every row with h >= 2 / 101; only the slack keeps
        # those rows as candidates when rounding puts the bound below g(t)
        rng = np.random.default_rng(seed)
        freqs = np.arange(101, 261, 2)
        amps = rng.uniform(0.1, 1.0, freqs.size) * rng.choice([-1.0, 1.0], freqs.size)
        got = modulus_p2_exact(CosineSeries.from_support(freqs, amps, 259), 2, math.pi, 17)
        assert got == pytest.approx(4.0 * math.sqrt(math.pi * np.sum(amps * amps)), rel=1e-14)
        # the 15 rows with h > 0 all reach the screen, which proves each below g(t), so
        # only the h = t row takes its sines
        assert screened == [(15, 0)]
        assert sum(rows for rows, cols in sin_form_calls if cols == freqs.size) == 1

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

    @pytest.mark.parametrize("ser,t", [(power_law_series(1.5, 2048), 1.0 / 652),
                                       (CosineSeries(np.ones(64)), math.pi / 64)],
                             ids=["dense", "exact_block"])
    def test_evaluates_the_last_row_only(self, sin_form_calls, ser, t):
        modulus_p2_exact(ser, 3, t)
        assert sin_form_calls == [(1, ser.support()[0].size)]

    def test_tiny_t_evaluates_one_scaled_row(self, sin_form_calls):
        rng = np.random.default_rng(7)
        freqs = np.cumsum(rng.integers(1, 5, 200))
        ser = CosineSeries.from_support(freqs, rng.uniform(0.01, 1.0, 200), int(freqs[-1]))
        modulus_p2_exact(ser, 1, 1e-200, 17)
        assert sin_form_calls == [(1, 200)]

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
        modulus(power_law_series(2.0, 256), ModulusRequest(k=1, t=1.0 / 16, p=3.0), 4096)
        assert sum(irfft_rows) < 257 // 2

    def test_spectrum_batch_memory_is_capped_at_large_grids(self, irfft_rows):
        # 64 harmonics of random sign spread up to 2**20: at p = 7 the sup-norm bound is
        # loose, so most rows survive and the batches are full
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
        # one batch: about 2**22 complex spectrum entries (64 MiB) and its 64 MiB of rows
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
        # omega(1 / nu) for nu = 1..256: 13.02 grid rows per call, the h = t row included
        ser = power_law_series(2.0, 256)
        for nu in range(1, 257):
            modulus(ser, ModulusRequest(k=1, t=1.0 / nu, p=3.0), 4096)
        assert sum(irfft_rows) / 256 <= 13.1

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
       p=st.sampled_from([1.05, 1.5, 2.0, 3.0, 4.0, 7.0]),
       h=st.floats(0.0, math.pi), h0=st.floats(0.0, math.pi), oversample=st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_difference_bound_covers_the_row_difference(coeffs, k, p, h, h0, oversample):
    ser = CosineSeries(coeffs)
    n = auto_grid_size(ser, 8) * oversample
    freqs, amps = ser.support()
    bound = function_model._difference_bounds(np.array([h]), np.array([h0]), freqs, amps, k, p)[0]
    gap = _shifted_difference(coeffs, n, h, k) - _shifted_difference(coeffs, n, h0, k)
    # rounding of the 2^k pointwise syntheses, whose cosine arguments reach 5 pi nu_max
    slack = 1e-13 * 2.0 ** k * float(np.sum(np.abs(amps))) * freqs[-1]
    assert oracles.brute_lp_norm(gap, p) <= bound * (1.0 + 1e-12) + slack


@st.composite
def _straddling_case(draw):
    """A signed support of 2 to 300 frequencies and a step bound t with pi / t between
    its lowest and its highest frequency, so both bands of the row bound are used."""
    coeffs = draw(_signed_support(2, 300))
    freqs = np.flatnonzero(coeffs) + 1
    u = draw(st.floats(0.0, 1.0, exclude_max=True))
    return coeffs, math.pi / (freqs[0] + u * (freqs[-1] - freqs[0]))


@given(case=_straddling_case(), k=st.sampled_from([1, 2, 3]),
       p=st.sampled_from([1.5, 2.0, 3.0, 7.0]), h_samples=st.sampled_from([16, 17, 257]))
@settings(max_examples=60, deadline=None)
def test_row_bounds_cover_the_hoelder_bound_of_each_row(case, k, p, h_samples):
    coeffs, t = case
    freqs, amps = CosineSeries(coeffs).support()
    req = ModulusRequest(k=k, t=t, p=p, h_samples=h_samples)
    hs = function_model.shift_grid(t, h_samples)
    got = function_model._row_bounds(hs, freqs, amps, req, 5)
    want = function_model._holder_bounds(function_model._sin_form_terms(hs[:-1], freqs, k), amps, p)
    assert np.all(got >= want * (1.0 - 1e-12))


@given(case=_straddling_case(), p=st.sampled_from([1.5, 2.0, 3.0, 7.0]), block=st.integers(0, 15))
@settings(max_examples=60, deadline=None)
def test_row_bound_at_the_offset_covers_the_k1_difference_bound(case, p, block):
    # every pair of shift rows (j, j0) within one anchor block of the 257-row grid, its
    # two anchors included
    coeffs, t = case
    freqs, amps = CosineSeries(coeffs).support()
    req = ModulusRequest(k=1, t=t, p=p, h_samples=257)
    hs = function_model.shift_grid(t, 257)
    bound = function_model._row_bounds(hs, freqs, amps, req, 64)
    j, j0 = (a.ravel() for a in np.meshgrid(*2 * [np.arange(16 * block, 16 * block + 17)]))
    diff = function_model._difference_bounds(hs[j], hs[j0], freqs, amps, 1, p)
    assert np.all(diff <= bound[np.abs(j - j0)] * (1.0 + 1e-12))


class TestBooleanOrder:
    # bool is an int subclass, but True is not a difference order; ClassParams refuses it too
    def test_request_refuses_bool_order(self):
        with pytest.raises(ConstraintViolation, match="positive integer, got True"):
            ModulusRequest(True, 0.5, 3.0)

    def test_p2_kernel_refuses_bool_order(self):
        with pytest.raises(DomainError, match="positive integer, got True"):
            modulus_p2_exact(power_law_series(2.0, 64), True, 0.5)
