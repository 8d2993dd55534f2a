import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsmooth import (
    CosineSeries,
    DivideByZeroError,
    DomainError,
    PowerLawTail,
    TagError,
    best_approx,
    dyadic_best_approx_curve,
    lacunary_E_bounds,
    lacunary_geometric_series,
    lacunary_series,
    lp_norm,
    modulus_bounds_monotone,
    modulus_p2_exact,
    monotone_coefficient_form,
    power_law_series,
    synthesize,
    validate_params,
    zygmund_norm_bounds,
)
from trigsmooth.approximation import l2_tail_sq, power_sum_tail

import oracles

SQRT_PI = math.sqrt(math.pi)


def harmonic(nu, amp=1.0):
    coeffs = np.zeros(nu)
    coeffs[nu - 1] = amp
    return CosineSeries(coeffs)


class TestBestApprox:
    def test_polynomial_is_reproduced(self):
        assert best_approx(harmonic(5), 6, 2.0).value == 0.0

    def test_single_term_tail(self):
        res = best_approx(harmonic(5), 5, 2.0)
        assert res.value == pytest.approx(SQRT_PI, rel=1e-14)
        assert res.kind == "exact_p2"

    def test_power_tail_against_brute_force(self):
        ser = power_law_series(2.0, 512)
        want = math.sqrt(math.pi * oracles.brute_power_tail(4.0, 8))
        assert best_approx(ser, 8, 2.0).value == pytest.approx(want, rel=1e-10)

    def test_parseval_equals_partial_sum_quadrature(self):
        rng = np.random.default_rng(17)
        ser = CosineSeries(rng.random(64))
        for n in (1, 3, 17, 50):
            exact = best_approx(ser, n, 2.0).value
            resid = np.array(ser.coeffs)
            resid[: n - 1] = 0.0
            quad = lp_norm(synthesize(CosineSeries(resid), 256), 2.0)
            assert exact == pytest.approx(quad, rel=1e-10)

    def test_surrogate_kind_for_other_p(self):
        res = best_approx(harmonic(5), 3, 3.0)
        assert res.kind == "partial_sum_surrogate"
        assert res.value > 0

    def test_non_increasing_and_homogeneous(self):
        rng = np.random.default_rng(23)
        ser = CosineSeries(rng.random(32))
        vals = [best_approx(ser, n, 2.0).value for n in range(1, 34)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        doubled = CosineSeries(2.0 * ser.coeffs)
        for n in (1, 8, 30):
            assert best_approx(doubled, n, 2.0).value == pytest.approx(
                2.0 * best_approx(ser, n, 2.0).value, rel=1e-14)


class TestDyadicCurve:
    def test_zero_series(self):
        curve = dyadic_best_approx_curve(CosineSeries(np.zeros(4)), 4, 2.0)
        assert not curve.values.any()

    def test_lacunary_geometric_tail_closed_form(self):
        levels = 20
        ser = lacunary_geometric_series(0.5, levels)
        curve = dyadic_best_approx_curve(ser, 8, 2.0)
        for n, value in curve.entries:
            mu = n.bit_length() - 1
            want = math.sqrt(math.pi * math.fsum(4.0 ** (-j) for j in range(mu, levels)))
            assert value == pytest.approx(want, rel=1e-13)
        # deep storage makes the finite sum match the infinite closed form closely
        inf_form = math.sqrt(math.pi * 4.0 ** (-8) * 4.0 / 3.0)
        assert curve.values[-1] == pytest.approx(inf_form, rel=1e-6)

    def test_non_increasing(self):
        rng = np.random.default_rng(4)
        ser = CosineSeries(rng.random(64))
        curve = dyadic_best_approx_curve(ser, 7, 2.0)
        assert all(a >= b - 1e-15 for a, b in zip(curve.values, curve.values[1:]))

    def test_level_beyond_int64_names_the_level_limit(self):
        ser = lacunary_series(np.full(10, 0.5))
        with pytest.raises(DomainError, match="64 levels"):
            dyadic_best_approx_curve(ser, 63, 2.0)
        assert dyadic_best_approx_curve(ser, 62, 2.0).ns[-1] == 2 ** 62


class TestModulusBracket:
    def test_brute_force_agreement(self):
        ser = power_law_series(2.0, 4096)
        n, k, p = 16, 1, 2.0
        br = modulus_bounds_monotone(ser, n, k, p)
        head = (1.0 / n) * math.sqrt(math.fsum(
            nu ** (-2.0 * 2) * nu ** ((k + 1) * p - 2) for nu in range(1, n + 1)))
        tail = math.sqrt(oracles.brute_power_tail(2.0 * p - (p - 2), n + 1))
        assert br.value == pytest.approx(head + tail, rel=1e-8)

    def test_zero_series(self):
        ser = CosineSeries(np.zeros(16), tag="monotone")
        assert modulus_bounds_monotone(ser, 4, 1, 2.0).value == 0.0

    def test_scaling(self):
        ser = power_law_series(2.0, 256)
        scaled = ser.scaled(3.0)
        a = modulus_bounds_monotone(ser, 8, 1, 2.0).value
        b = modulus_bounds_monotone(scaled, 8, 1, 2.0).value
        assert b == pytest.approx(3.0 * a, rel=1e-13)

    def test_tag_error(self):
        with pytest.raises(TagError):
            modulus_bounds_monotone(CosineSeries(np.ones(4)), 2, 1, 2.0)

    def test_bracket_tracks_the_modulus_within_recorded_interval(self):
        # ratio omega(1/n) / bracket stays in a fixed positive band (regression)
        recorded = {1.5: (1.40, 1.55), 2.0: (1.48, 1.80), 3.0: (1.65, 1.82)}
        for s, (lo, hi) in recorded.items():
            ser = power_law_series(s, 4096)
            for n in (4, 8, 16, 32, 64, 128, 256, 512):
                ratio = modulus_p2_exact(ser, 1, 1.0 / n) / modulus_bounds_monotone(ser, n, 1, 2.0).value
                assert lo < ratio < hi, (s, n, ratio)


class TestZygmundBounds:
    def test_p2_ratio_is_sqrt_pi(self):
        ser = lacunary_series([1.0])  # f = cos x
        rep = zygmund_norm_bounds(ser, 2.0)
        assert rep.ratio == pytest.approx(SQRT_PI, rel=1e-14)

    def test_zero_series_signals_divide_by_zero(self):
        with pytest.raises(DivideByZeroError):
            zygmund_norm_bounds(CosineSeries(np.zeros(8), tag="lacunary"), 2.0)

    def test_tag_error(self):
        with pytest.raises(TagError):
            zygmund_norm_bounds(CosineSeries(np.ones(4)), 2.0)

    def test_p4_ratios_stay_in_recorded_interval(self):
        rng = np.random.default_rng(2024)
        ratios = []
        for _ in range(10):
            ser = lacunary_series(rng.random(12) + 0.05)
            ratios.append(zygmund_norm_bounds(ser, 4.0).ratio)
        # frozen empirical bracket for this seeded family
        assert 1.40 < min(ratios) and max(ratios) < 1.55

    @pytest.mark.parametrize("p,lo,hi", [(1.5, 2.10, 2.25), (3.0, 1.45, 1.60)])
    def test_other_p_recorded_intervals(self, p, lo, hi):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ser = lacunary_series(rng.random(10) + 0.1)
            assert lo < zygmund_norm_bounds(ser, p).ratio < hi


class TestLacunaryEBounds:
    def test_p2_ratio_exact(self):
        ser = lacunary_geometric_series(0.5, 16)
        for n in (0, 1, 3, 7):
            rep = lacunary_E_bounds(ser, n, 2.0)
            assert rep.ratio == pytest.approx(SQRT_PI, rel=1e-12)

    def test_empty_tail(self):
        ser = lacunary_series([1.0, 0.5])
        rep = lacunary_E_bounds(ser, 5, 2.0)
        assert rep.e_value == 0.0 and rep.l2_tail == 0.0 and rep.ratio is None

    def test_geometric_tail_value(self):
        ser = lacunary_geometric_series(0.5, 20)
        rep = lacunary_E_bounds(ser, 3, 2.0)
        want = math.sqrt(math.pi * 4.0 ** (-3) * 4.0 / 3.0)
        assert rep.e_value == pytest.approx(want, rel=1e-9)


def _coeff(coeffs, tail, nu):
    if nu <= len(coeffs):
        return coeffs[nu - 1]
    return tail.c * nu ** (-tail.s) if tail is not None else 0.0


def _tail_sum(tail, power, weight_exp, start):
    """sum_{nu >= start} (c nu^-s)^power nu^weight_exp, the closed-form part beyond storage."""
    if tail is None:
        return 0.0
    return power_sum_tail(tail.c ** power, tail.s * power - weight_exp, start)


@st.composite
def _monotone_with_trailing_zeros(draw):
    head = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), max_size=32))
    return sorted(head, reverse=True) + [0.0] * draw(st.integers(0, 16))


class TestStoredSumsAgainstBruteForce:
    """The sums over stored coefficients against term-by-term math.fsum over nu; the
    closed-form tail beyond storage is shared with the code under test."""

    @given(coeffs=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False)),
                           max_size=48),
           start=st.integers(1, 60))
    @settings(deadline=None)
    def test_l2_tail_with_interior_zeros(self, coeffs, start):
        want = math.fsum(a * a for nu, a in enumerate(coeffs, start=1) if nu >= start)
        got = l2_tail_sq(CosineSeries(np.asarray(coeffs, dtype=float)), start)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @given(coeffs=_monotone_with_trailing_zeros(),
           tail=st.one_of(st.none(), st.builds(PowerLawTail, c=st.floats(0.0, 2.0),
                                               s=st.floats(2.0, 4.0))),
           n=st.integers(1, 60), p=st.floats(1.1, 4.0), theta=st.floats(0.5, 3.0),
           r=st.floats(0.1, 0.6), lam=st.floats(0.1, 0.3))
    @settings(deadline=None)
    def test_monotone_sums_with_trailing_zeros(self, coeffs, tail, n, p, theta, r, lam):
        ser = CosineSeries(np.asarray(coeffs, dtype=float), tag="monotone", tail=tail)
        n_stored, k = len(coeffs), 1
        beyond = max(n + 1, n_stored + 1)

        want_l2 = (math.fsum(a * a for a in coeffs[n - 1:])
                   + _tail_sum(tail, 2.0, 0.0, max(n, n_stored + 1)))
        assert l2_tail_sq(ser, n) == pytest.approx(want_l2, rel=1e-12, abs=0.0)

        head = math.fsum(_coeff(coeffs, tail, nu) ** p * nu ** ((k + 1) * p - 2)
                         for nu in range(1, n + 1))
        tail_p = (math.fsum(coeffs[nu - 1] ** p * nu ** (p - 2) for nu in range(n + 1, n_stored + 1))
                  + _tail_sum(tail, p, p - 2, beyond))
        want_br = n ** (-float(k)) * head ** (1.0 / p) + tail_p ** (1.0 / p)
        assert modulus_bounds_monotone(ser, n, k, p).value == pytest.approx(want_br, rel=1e-12,
                                                                             abs=0.0)

        th = theta
        e_tail = r * th + th - th / p - 1.0
        e_head = (r + lam) * th + th - th / p - 1.0
        head = math.fsum(_coeff(coeffs, tail, nu) ** th * nu ** e_head for nu in range(1, n + 1))
        tail_th = (math.fsum(coeffs[nu - 1] ** th * nu ** e_tail
                             for nu in range(n + 1, n_stored + 1))
                   + _tail_sum(tail, th, e_tail, beyond))
        want_cf = (tail_th + n ** (-lam * th) * head) ** (1.0 / th)
        params = validate_params(p=p, theta=theta, r=r, lam=lam, k=k)
        assert monotone_coefficient_form(ser, params, n) == pytest.approx(want_cf, rel=1e-12,
                                                                           abs=0.0)


class TestPowerSumTailAccuracy:
    @pytest.mark.parametrize("q", [1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0])
    def test_hurwitz_zeta_against_mpmath(self, q):
        # scipy's zeta is off by up to 2.3e-11 at zeta(8, 36); this pins that error
        for start in (2, 10, 36, 100, 1025, 4097):
            want = float(mpmath.zeta(q, start))
            assert power_sum_tail(1.0, q, start) == pytest.approx(want, rel=1e-10, abs=0.0)
