import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsmooth import (
    CosineSeries,
    DomainError,
    MajorantPhi,
    ModulusTable,
    PowerLawTail,
    TagError,
    best_approx,
    dyadic_approx_form,
    integral_form,
    lacunary_coefficient_form,
    lacunary_geometric_series,
    lacunary_log_power_profile,
    lacunary_series,
    membership_of_values,
    membership_test,
    modulus_bounds_monotone,
    modulus_p2_exact,
    monotone_coefficient_form,
    power_law_series,
    series_form,
    validate_params,
)
from trigsmooth.approximation import _head_sum, _tail_sum
from trigsmooth.core import FunctionalCurve
from trigsmooth.functionals import dyadic_record, integral_record, series_record

import oracles


def hurwitz_zeta(s: float, a: float) -> float:
    """zeta(s, a) from mpmath at 300 digits; at its default 15 it is off by 2.3e-11 at (8, 36)."""
    with mpmath.workdps(300):
        return float(mpmath.zeta(float(s), float(a)))


PARAMS = validate_params(p=2.0, theta=1.0, r=0.5, lam=0.3, k=1)
PARAMS_T2 = validate_params(p=2.0, theta=2.0, r=0.5, lam=0.3, k=1)


class TestIntegralForm:
    def test_zero_series(self):
        ser = CosineSeries(np.zeros(8))
        assert integral_form(ser, PARAMS, 1.0 / 5.0) == 0.0

    def test_theta_homogeneity(self):
        ser = CosineSeries(np.array([1.0, 0.3]))
        scaled = CosineSeries(2.5 * ser.coeffs)
        a = integral_form(ser, PARAMS, 1.0 / 9.0)
        b = integral_form(scaled, PARAMS, 1.0 / 9.0)
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_rejects_delta_off_the_harmonic_grid(self):
        from trigsmooth import DomainError
        with pytest.raises(DomainError):
            integral_form(CosineSeries(np.ones(2)), PARAMS, 0.3)

    def test_cell_frozen_value_against_refined_quadrature(self):
        # single-cosine fixture at delta = 1/9; the refinement splits every
        # harmonic cell into 10 sub-cells with the modulus frozen per sub-cell.
        # The wide cells near t = 1 make the one-point rule overshoot by ~13%,
        # so the agreement bound is 15%.
        ser = CosineSeries(np.array([1.0]))
        delta, quad_points = 1.0 / 9.0, 2048
        coarse = integral_form(ser, PARAMS, delta, quad_points=quad_points)
        th, r, lam = PARAMS.theta, PARAMS.r, PARAMS.lam
        n = 8

        def refined_cells(lo, hi, a):
            total = 0.0
            for nu in range(lo, hi + 1):
                edges = np.linspace(1.0 / (nu + 1), 1.0 / nu, 11)
                for i in range(10):
                    w = (edges[i] ** (-a) - edges[i + 1] ** (-a)) / a
                    om = modulus_p2_exact(ser, PARAMS.k, float(edges[i + 1]))
                    total += om ** th * w
            return total

        first = refined_cells(n + 1, quad_points, r * th)
        second = refined_cells(1, n, (r + lam) * th)
        # identical truncation policy on both sides: remainder from a power fit
        nus = np.arange(quad_points // 2, quad_points + 1, dtype=float)
        terms = np.array([
            modulus_p2_exact(ser, PARAMS.k, 1.0 / nu) ** th
            * ((nu + 1) ** (r * th) - nu ** (r * th)) / (r * th) for nu in nus])
        q = -np.polyfit(np.log(nus), np.log(terms), 1)[0]
        remainder = terms[-1] * nus[-1] ** q * hurwitz_zeta(q, nus[-1] + 1)
        refined = (first + remainder + delta ** (lam * th) * second) ** (1.0 / th)
        assert coarse == pytest.approx(refined, rel=0.15)


class TestSeriesForm:
    def test_zero_series(self):
        assert series_form(CosineSeries(np.zeros(8)), PARAMS, 4) == 0.0

    def test_head_bookkeeping_at_n_equal_one(self):
        # at n = 1 the head is the single term omega(1)^theta with no n^{-lam*theta}
        # attenuation, so the value cannot depend on lambda (the tail never does)
        ser = CosineSeries(np.array([1.0, 0.4]))
        table = ModulusTable(ser, PARAMS.k, PARAMS.p)
        j_lam_03 = series_form(ser, PARAMS, 1, nu_max=512, table=table)
        other = validate_params(p=2.0, theta=1.0, r=0.5, lam=0.45, k=1)
        j_lam_045 = series_form(ser, other, 1, nu_max=512, table=table)
        assert j_lam_03 == j_lam_045
        # while at n = 2 the attenuation does bite
        assert (series_form(ser, PARAMS, 2, nu_max=512, table=table)
                != series_form(ser, other, 2, nu_max=512, table=table))
        # and the head term is exactly omega(1)^theta: stripping the tail +
        # remainder (shared with a head-free reconstruction) leaves it
        nus = np.arange(2, 513, dtype=float)
        tail_terms = np.array([table.omega_at(int(nu)) ** PARAMS.theta
                               * nu ** (PARAMS.r * PARAMS.theta - 1) for nu in nus])
        head = j_lam_03 ** PARAMS.theta - float(np.sum(tail_terms))
        assert head >= table.omega_at(1) ** PARAMS.theta - 1e-12
        assert head == pytest.approx(table.omega_at(1) ** PARAMS.theta, rel=0.25)

    def test_theta_homogeneity(self):
        ser = CosineSeries(np.array([0.5, 0.25, 0.125]))
        scaled = CosineSeries(4.0 * ser.coeffs)
        a = series_form(ser, PARAMS_T2, 2, nu_max=256)
        b = series_form(scaled, PARAMS_T2, 2, nu_max=256)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_grid_omega_path_for_other_exponents(self):
        params = validate_params(p=3.0, theta=1.0, r=0.5, lam=0.3, k=1)
        ser = CosineSeries(np.array([1.0, 0.5, 0.25]))
        table = ModulusTable(ser, params.k, params.p, h_samples=33)
        assert table.path == "grid"
        value = series_form(ser, params, 2, nu_max=64, table=table)
        assert math.isfinite(value) and value > 0.0

    def test_matches_integral_form_within_constant(self):
        # theta = 2 decays fast enough that the extrapolated remainder stays
        # below 1% of the tail, so the comparison is not dominated by it
        ser = power_law_series(2.0, 256)
        table = ModulusTable(ser, PARAMS_T2.k, PARAMS_T2.p)
        ratios = []
        for n in (2, 4):
            j = series_form(ser, PARAMS_T2, n, nu_max=768, table=table)
            i = integral_form(ser, PARAMS_T2, 1.0 / (n + 1), quad_points=768, table=table)
            ratios.append(j / i)
        assert max(ratios) / min(ratios) < 1.3
        assert all(0.5 < r < 2.0 for r in ratios)


class TestMonotoneCoefficientForm:
    def test_zero_series(self):
        ser = CosineSeries(np.zeros(8), tag="monotone")
        assert monotone_coefficient_form(ser, PARAMS, 4) == 0.0

    def test_tag_error(self):
        with pytest.raises(TagError):
            monotone_coefficient_form(CosineSeries(np.ones(4)), PARAMS, 2)

    def test_h_class_threshold_sequence_is_bounded(self):
        # a_nu = nu^-(r + alpha + 1 - 1/p) with alpha < lambda: the functional
        # times n^alpha stays within a fixed band
        alpha = 0.2
        expo = PARAMS.r + alpha + 1.0 - 1.0 / PARAMS.p
        ser = power_law_series(expo, 4096)
        vals = [monotone_coefficient_form(ser, PARAMS, n) * n ** alpha
                for n in (4, 16, 64, 256, 1024)]
        assert max(vals) / min(vals) < 2.0

    def test_besov_convergent_case_uniformly_bounded(self):
        # s*theta beats r*theta + theta - theta/p, so the full sum converges and
        # the functional is uniformly bounded in n by that brute-force sum
        ser = power_law_series(2.0, 4096)
        th, r, p = PARAMS.theta, PARAMS.r, PARAMS.p
        e_tail = r * th + th - th / p - 1.0
        full_sum = oracles.brute_power_tail(2.0 * th - e_tail, 1)
        ns = [4, 32, 256, 1024]
        vals = [monotone_coefficient_form(ser, PARAMS, n) for n in ns]
        assert all(v <= full_sum ** (1.0 / th) * (1 + 1e-9) for v in vals)
        rep = membership_of_values(ns, vals, MajorantPhi.constant())
        assert rep.verdict == "bounded"

    def test_tail_against_brute_force(self):
        ser = power_law_series(1.5, 2048)
        n = 64
        got = monotone_coefficient_form(ser, PARAMS, n)
        th, r, lam, p = PARAMS.theta, PARAMS.r, PARAMS.lam, PARAMS.p
        tail = oracles.brute_power_tail(1.5 * th - (r * th + th - th / p - 1.0), n + 1)
        head = math.fsum(nu ** (-1.5 * th) * nu ** ((r + lam) * th + th - th / p - 1.0)
                         for nu in range(1, n + 1))
        want = (tail + n ** (-lam * th) * head) ** (1.0 / th)
        assert got == pytest.approx(want, rel=1e-10)


class TestLacunaryCoefficientForm:
    def test_zero_series(self):
        ser = CosineSeries(np.zeros(8), tag="lacunary")
        assert lacunary_coefficient_form(ser, PARAMS, 4) == 0.0

    def test_tag_error(self):
        with pytest.raises(TagError):
            lacunary_coefficient_form(CosineSeries(np.ones(4)), PARAMS, 2)

    def test_moving_one_level_between_sums(self):
        # crossing m = 2^n moves exactly the mu = n term between head and tail
        ser = lacunary_geometric_series(0.5, 12)
        th, r, lam = PARAMS.theta, PARAMS.r, PARAMS.lam
        for n in (2, 3, 5):
            m = 2 ** n
            below = lacunary_coefficient_form(ser, PARAMS, m - 1) ** th
            at = lacunary_coefficient_form(ser, PARAMS, m) ** th
            a_n = 0.5 ** n
            term_tail = a_n ** th * (2.0 ** n) ** (r * th)
            term_head = a_n ** th * (2.0 ** n) ** ((r + lam) * th)
            head_below = sum(0.5 ** (mu * th) * 2.0 ** (mu * (r + lam) * th)
                             for mu in range(0, n))
            tail_from = sum(0.5 ** (mu * th) * 2.0 ** (mu * r * th) for mu in range(n + 1, 12))
            assert below == pytest.approx(term_tail + tail_from
                                          + float(m - 1) ** (-lam * th) * head_below, rel=1e-12)
            assert at == pytest.approx(tail_from + float(m) ** (-lam * th)
                                       * (head_below + term_head), rel=1e-12)

    def test_reduced_form_equals_unreduced_frequency_sum(self):
        ser = lacunary_geometric_series(0.5, 14)
        th, r, lam = PARAMS.theta, PARAMS.r, PARAMS.lam
        coeffs = ser.coeffs
        nus = np.arange(1, coeffs.size + 1, dtype=float)
        for m in (3, 8, 100, 1000):
            tail = float(np.sum(coeffs[m:] ** th * nus[m:] ** (r * th)))
            head = float(np.sum(coeffs[:m] ** th * nus[:m] ** ((r + lam) * th)))
            want = (tail + float(m) ** (-lam * th) * head) ** (1.0 / th)
            got = lacunary_coefficient_form(ser, PARAMS, m)
            assert got == pytest.approx(want, rel=1e-12)


class TestDyadicApproxForm:
    def test_zero_series(self):
        ser = CosineSeries(np.zeros(8))
        assert dyadic_approx_form(ser, PARAMS, 2) == 0.0

    def test_single_harmonic_only_level_zero_survives(self):
        ser = CosineSeries(np.array([1.0]))
        th, lam = PARAMS.theta, PARAMS.lam
        for n in (1, 2, 4):
            want = (2.0 ** (-n * lam * th) * math.pi ** (th / 2.0)) ** (1.0 / th)
            assert dyadic_approx_form(ser, PARAMS, n) == pytest.approx(want, rel=1e-13)

    def test_matches_brute_force_double_sum(self):
        ser = lacunary_geometric_series(0.5, 20)
        params = validate_params(p=2.0, theta=1.0, r=0.5, lam=0.25, k=1)
        th, r, lam = params.theta, params.r, params.lam
        levels = 20
        a = 0.5 ** np.arange(levels)
        for n in (1, 3, 6):
            e = [math.sqrt(math.pi * math.fsum(float(a[j]) ** 2 for j in range(mu, levels)))
                 if mu < levels else 0.0 for mu in range(levels + 2)]
            tail = math.fsum(2.0 ** (mu * r * th) * e[mu] ** th
                             for mu in range(n + 1, levels + 2))
            head = math.fsum(2.0 ** (mu * (r + lam) * th) * e[mu] ** th
                             for mu in range(0, n + 1))
            want = (tail + 2.0 ** (-n * lam * th) * head) ** (1.0 / th)
            got = dyadic_approx_form(ser, params, n, max_level=levels + 1)
            assert got == pytest.approx(want, rel=1e-9)


class TestTruncationRecords:
    @settings(max_examples=20, deadline=None)
    @given(coeffs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
           c=st.floats(0.125, 8.0), theta=st.sampled_from([0.5, 1.0, 2.0]),
           n=st.sampled_from([2, 4]))
    def test_forms_scale_by_c_and_fractions_do_not_move(self, coeffs, c, theta, n):
        base = np.array(sorted(coeffs, reverse=True))
        # a power-law tail below the last stored coefficient keeps every E_{2^mu} > 0,
        # so the dyadic record extrapolates a nonzero remainder
        tail_c = base[-1] * base.size ** 2
        params = validate_params(p=2.0, theta=theta, r=0.5, lam=0.3, k=1)
        sers = [CosineSeries(a * base, tag="monotone", tail=PowerLawTail(c=a * tail_c, s=2.0))
                for a in (1.0, c)]
        tables = [ModulusTable(ser, params.k, params.p) for ser in sers]
        recs = [[integral_record(ser, params, 1.0 / (n + 1), quad_points=64, table=table),
                 series_record(ser, params, n, nu_max=64, table=table),
                 dyadic_record(ser, params, n.bit_length() - 1)]
                for ser, table in zip(sers, tables)]
        assert recs[1][2].fraction > 0.0
        for plain, scaled in zip(*recs):
            assert scaled.value == pytest.approx(c * plain.value, rel=1e-9)
            assert scaled.fraction == pytest.approx(plain.fraction, rel=1e-9)
        assert (monotone_coefficient_form(sers[1], params, n)
                == pytest.approx(c * monotone_coefficient_form(sers[0], params, n), rel=1e-12))

    def test_float_forms_return_the_record_value(self):
        ser = CosineSeries(np.array([1.0, 0.5]))
        table = ModulusTable(ser, PARAMS_T2.k, PARAMS_T2.p)
        rec = series_record(ser, PARAMS_T2, 4, nu_max=64, table=table)
        assert rec.fraction > 0.0
        assert series_form(ser, PARAMS_T2, 4, nu_max=64, table=table) == rec.value
        assert (integral_form(ser, PARAMS_T2, 0.2, quad_points=64, table=table)
                == integral_record(ser, PARAMS_T2, 0.2, quad_points=64, table=table).value)
        assert dyadic_approx_form(ser, PARAMS_T2, 2) == dyadic_record(ser, PARAMS_T2, 2).value

    def test_finite_rank_tail_has_fraction_zero(self):
        rec = dyadic_record(CosineSeries(np.array([1.0])), PARAMS, 1)
        assert rec.fraction == 0.0 and rec.value > 0.0

    def test_divergent_coefficient_tail_is_inf_without_a_warning(self):
        ser = CosineSeries(power_law_series(2.0, 256).coeffs, tag="monotone",
                           tail=PowerLawTail(c=1.0, s=0.75))
        assert monotone_coefficient_form(ser, PARAMS, 4) == math.inf


class TestMembership:
    def test_zero_curve_is_bounded(self):
        curve = FunctionalCurve(np.array([2, 4, 8]), np.zeros(3))
        rep = membership_test(curve, MajorantPhi.power(0.5))
        assert rep.sup_ratio == 0.0 and rep.verdict == "bounded"

    def test_curve_equal_to_majorant(self):
        ns = np.array([2, 4, 8, 16, 32])
        phi = MajorantPhi.power(0.5)
        values = np.array([phi(1.0 / int(n)) for n in ns])
        rep = membership_test(FunctionalCurve(ns, values), phi)
        assert rep.sup_ratio == pytest.approx(1.0, rel=1e-14)
        assert rep.verdict == "bounded"

    def test_slow_growth_is_flagged(self):
        ns = np.array([2 ** j for j in range(1, 11)])
        phi = MajorantPhi.power(0.5)
        values = np.array([float(n) ** 0.1 * phi(1.0 / int(n)) for n in ns])
        rep = membership_test(FunctionalCurve(ns, values), phi)
        assert rep.verdict == "unbounded-trend"
        assert rep.tail_slope == pytest.approx(0.1, abs=1e-6)

    def test_divergent_values_get_their_own_verdict(self):
        rep = membership_of_values([2, 4, 8], [1.0, math.inf, 2.0], MajorantPhi.constant())
        assert rep.verdict == "divergent"

    def test_vanishing_majorant_signals_divide_by_zero(self):
        from trigsmooth import DivideByZeroError
        phi = MajorantPhi.tabulated([0.01, 0.25, 0.9], [1.0, 0.0, 1.0])
        curve = FunctionalCurve(np.array([2, 4]), np.array([1.0, 1.0]))
        with pytest.raises(DivideByZeroError):
            membership_test(curve, phi)


class TestMonotoneDominance:
    def test_enlarging_a_coefficient_cannot_decrease_any_functional(self):
        rng = np.random.default_rng(31)
        base = np.sort(rng.random(32))[::-1].copy()
        ser = CosineSeries(base, tag="monotone")
        for _ in range(5):
            idx = int(rng.integers(0, 16))
            bumped_arr = base.copy()
            bumped_arr[idx] += base[idx] * 0.5
            # re-monotonise; every coefficient still >= the original
            bumped_arr = np.maximum.accumulate(bumped_arr[::-1])[::-1]
            bumped = CosineSeries(bumped_arr, tag="monotone")
            for n in (2, 4):
                assert (monotone_coefficient_form(bumped, PARAMS, n)
                        >= monotone_coefficient_form(ser, PARAMS, n) - 1e-12)
        # omega-side forms share the property: check one instance
        small = CosineSeries(np.array([1.0, 0.5]))
        big = CosineSeries(np.array([1.0, 0.9]))
        assert (series_form(big, PARAMS, 2, nu_max=64)
                >= series_form(small, PARAMS, 2, nu_max=64) - 1e-12)


class TestSixtyOneLevels:
    """a_mu = 2^{-mu r} (mu+1)^{-(alpha+1/theta)} stored on the levels mu = 0..60, that is
    on the frequencies 1..2**60: the sequence of lacunary_log_power_profile."""

    R, ALPHA, LAM = 1.0, 0.5, 0.25

    def series(self, theta):
        mus = np.arange(61, dtype=float)
        return lacunary_series(2.0 ** (-mus * self.R) * (mus + 1.0) ** (-(self.ALPHA + 1.0 / theta)))

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_coefficient_form_matches_the_closed_profile(self, theta):
        params = validate_params(p=2.0, theta=theta, r=self.R, lam=self.LAM, k=2)
        ser = self.series(theta)
        ns = [1, 2, 5, 10, 20, 30, 40, 50, 59, 60]
        prof = lacunary_log_power_profile(self.R, self.ALPHA, theta, self.LAM, ns)
        # the profile sums the levels mu >= 61 too; each contributes (mu+1)^-(alpha theta + 1)
        missing = float(hurwitz_zeta(self.ALPHA * theta + 1.0, 62))
        for n, d in zip(prof.ns, prof.d_values):
            want = (d ** theta - missing) ** (1.0 / theta)
            got = lacunary_coefficient_form(ser, params, 2 ** int(n))
            assert got == pytest.approx(want, rel=1e-12)

    def test_p2_forms_run_in_under_a_mebibyte(self):
        params = validate_params(p=2.0, theta=1.0, r=self.R, lam=self.LAM, k=2)
        tracemalloc.start()
        try:
            ser = self.series(1.0)
            values = [modulus_p2_exact(ser, 2, 2.0 ** -j) for j in (0, 10, 40, 60)]
            values += [best_approx(ser, 2 ** mu, 2.0).value for mu in (0, 30, 60, 61)]
            values += [dyadic_approx_form(ser, params, n) for n in (0, 10, 40)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values))
        assert peak < 2**20

    @pytest.mark.parametrize("k", [1, 2])
    def test_modulus_p2_exact_matches_mpmath(self, k):
        # nu h reaches 2**60 * pi, so the float sine must reduce huge arguments exactly
        ser = self.series(1.0)
        freqs, amps = ser.support()
        for t in (math.pi, 1.0, 1e-3, 2.0 ** -40):
            want = oracles.mp_modulus_p2(freqs, amps, k, t, 33)
            assert modulus_p2_exact(ser, k, t, 33) == pytest.approx(want, rel=1e-12)


def _brute_head(coeffs, n, q, e):
    return math.fsum(a ** q * nu ** e for nu, a in enumerate(coeffs[:n], 1) if a != 0.0)


def _brute_tail(coeffs, start, q, e):
    return math.fsum(a ** q * nu ** e for nu, a in enumerate(coeffs, 1) if nu >= start and a != 0.0)


@st.composite
def _tail_free_support(draw):
    """(series, q): a general support with gaps at q = 2, a monotone support (1..m, then
    zeros up to n_stored) or a lacunary one with vanishing levels, at any q."""
    kind = draw(st.sampled_from(["general", "monotone", "lacunary"]))
    amp = st.floats(1e-3, 10.0)
    if kind == "general":
        n_stored = draw(st.integers(1, 300))
        freqs = sorted(draw(st.sets(st.integers(1, n_stored), max_size=60)))
        amps = [draw(amp) * draw(st.sampled_from([-1.0, 1.0])) for _ in freqs]
        return CosineSeries.from_support(freqs, amps, n_stored), 2.0
    q = draw(st.floats(0.25, 4.0))
    if kind == "monotone":
        n_stored = draw(st.integers(1, 300))
        amps = sorted(draw(st.lists(amp, max_size=n_stored)), reverse=True)
        coeffs = np.concatenate((amps, np.zeros(n_stored - len(amps))))
        return CosineSeries(coeffs, tag="monotone"), q
    levels = draw(st.lists(st.one_of(st.just(0.0), amp), min_size=1, max_size=14))
    return lacunary_series(levels), q


class TestSharedPowerSums:
    """_head_sum and _tail_sum, the sums under both coefficient forms, the modulus
    bracket and l2_tail_sq."""

    @settings(max_examples=150, deadline=None)
    @given(_tail_free_support(), st.floats(-3.0, 3.0), st.integers(0, 2), st.data())
    def test_tail_free_sums_match_brute_force(self, case, e, where, data):
        # n below, at and above n_stored
        ser, q = case
        n = (data.draw(st.integers(1, max(ser.n_stored - 1, 1))), ser.n_stored,
             data.draw(st.integers(ser.n_stored + 1, 2 * ser.n_stored + 2)))[where]
        coeffs = ser.coeffs
        assert _head_sum(ser, n, q, e) == pytest.approx(_brute_head(coeffs, n, q, e), rel=1e-13)
        assert (_tail_sum(ser, n + 1, q, e)
                == pytest.approx(_brute_tail(coeffs, n + 1, q, e), rel=1e-13))

    @pytest.mark.parametrize("c, s, q, e", [(1.0, 2.0, 2.0, 0.0), (2.5, 1.5, 1.0, 0.25),
                                            (0.5, 0.75, 3.0, -0.5), (1.0, 1.2, 1.5, 0.5)])
    @pytest.mark.parametrize("start", [1, 17, 64, 65, 300])
    def test_power_law_tail_against_hurwitz_zeta(self, c, s, q, e, start):
        n_stored = 64
        coeffs = c * np.arange(1, n_stored + 1, dtype=float) ** -s
        ser = CosineSeries(coeffs, tail=PowerLawTail(c, s))
        want = (_brute_tail(coeffs, start, q, e)
                + c ** q * hurwitz_zeta(s * q - e, max(start, n_stored + 1)))
        assert _tail_sum(ser, start, q, e) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [64, 65, 100, 1000])
    def test_head_extends_through_the_tail_model(self, n):
        c, s, q, e = 2.5, 1.5, 1.5, 0.75
        coeffs = np.arange(1, 65, dtype=float) ** -2.0  # stored part off the tail model
        ser = CosineSeries(coeffs, tail=PowerLawTail(c, s))
        want = _brute_head(coeffs, n, q, e) + math.fsum(
            (c * nu ** -s) ** q * nu ** e for nu in range(65, n + 1))
        assert _head_sum(ser, n, q, e) == pytest.approx(want, rel=1e-13)

    def test_head_past_the_dense_limit_is_refused(self):
        from trigsmooth import DomainError
        from trigsmooth.core import DENSE_LIMIT
        ser = power_law_series(2.0, 8)
        with pytest.raises(DomainError, match="exceed the limit"):
            _head_sum(ser, DENSE_LIMIT + 1, 1.0, 0.0)

    @pytest.mark.parametrize("s", [0.75, 1.0])
    def test_divergent_tail_gives_inf_in_the_form(self, s):
        # p = 2, theta = 1, r = 1/2: the form's tail exponent is s
        ser = CosineSeries(np.arange(1, 9, dtype=float) ** -s, tag="monotone",
                           tail=PowerLawTail(1.0, s))
        assert monotone_coefficient_form(ser, PARAMS, 4) == math.inf

    @pytest.mark.parametrize("s, p", [(0.6, 3.0), (0.75, 4.0)])
    def test_divergent_tail_gives_inf_in_the_bracket(self, s, p):
        # the bracket's tail exponent s p - (p - 2) is 0.8 and 1
        ser = CosineSeries(np.arange(1, 9, dtype=float) ** -s, tag="monotone",
                           tail=PowerLawTail(1.0, s))
        bracket = modulus_bounds_monotone(ser, 4, 1, p)
        assert bracket.tail_term == math.inf and math.isfinite(bracket.head_term)

    @pytest.mark.parametrize("n", [4, 8, 100])
    def test_zero_amplitude_tail_adds_nothing(self, n):
        coeffs = np.arange(1, 9, dtype=float) ** -0.75
        bare = CosineSeries(coeffs, tag="monotone")
        ser = CosineSeries(coeffs, tag="monotone", tail=PowerLawTail(0.0, 0.75))
        assert monotone_coefficient_form(ser, PARAMS, n) == pytest.approx(
            monotone_coefficient_form(bare, PARAMS, n), rel=1e-14)
        assert modulus_bounds_monotone(ser, n, 1, 3.0).value == pytest.approx(
            modulus_bounds_monotone(bare, n, 1, 3.0).value, rel=1e-14)
        assert math.isfinite(monotone_coefficient_form(ser, PARAMS, n))


class TestOmegaRangeLimit:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_omega_upto_refuses_more_than_dense_limit_before_any_kernel_call(
            self, monkeypatch, p):
        from trigsmooth import DomainError, functionals
        from trigsmooth.core import DENSE_LIMIT

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(functionals, "modulus_p2_exact", kernel)
        monkeypatch.setattr(functionals, "modulus", kernel)
        table = ModulusTable(power_law_series(2.0, 16), 1, p)
        with pytest.raises(DomainError, match=f"exceeds the limit of {DENSE_LIMIT}"):
            table.omega_upto(DENSE_LIMIT + 1)
        with pytest.raises(DomainError, match="exceeds the limit"):
            series_form(power_law_series(2.0, 16), PARAMS, DENSE_LIMIT // 4 + 1)


class TestOmegaAtDomain:
    # omega_at read its cache at nu - 1 unchecked: after omega_upto(8), nu = 0 gave
    # omega(1/8) and nu = -2 omega(1/6), and a fresh table raised a bare IndexError at 0
    @pytest.mark.parametrize("nu", [0, -2])
    def test_filled_table_refuses_nu_below_1(self, nu):
        table = ModulusTable(power_law_series(2.0, 256), 1, 3.0)
        table.omega_upto(8)
        with pytest.raises(DomainError, match=f"positive integer nu, got {nu}$"):
            table.omega_at(nu)

    def test_fresh_table_refuses_nu_0(self):
        with pytest.raises(DomainError, match="positive integer nu, got 0$"):
            ModulusTable(power_law_series(2.0, 256), 1, 3.0).omega_at(0)

    # omega_upto sliced its cache by [:nu_max] unchecked: after omega_upto(8), nu_max = -2
    # gave omega(1/1)..omega(1/6), True one value, and 2.0 a bare TypeError
    @pytest.mark.parametrize("nu_max", [-2, -1, True, False, 2.0, np.float64(3.0)])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_filled_table_refuses_nu_max_not_an_int_from_0(self, nu_max, p):
        table = ModulusTable(power_law_series(2.0, 256), 1, p)
        table.omega_upto(8)
        message = re.escape(f"integer nu_max >= 0, got {nu_max!r}") + "$"
        with pytest.raises(DomainError, match=message):
            table.omega_upto(nu_max)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_nu_max_0_gives_an_empty_table(self, p):
        table = ModulusTable(power_law_series(2.0, 256), 1, p)
        assert table.omega_upto(0).size == 0
        table.omega_upto(8)
        assert table.omega_upto(0).size == 0
        assert table.omega_upto(np.int64(3)).tolist() == table.omega_upto(8)[:3].tolist()


class TestGridTableRangeLimit:
    def test_omega_upto_refuses_more_than_dense_limit_before_the_grid_table_kernel(
            self, monkeypatch):
        from trigsmooth import DomainError, functionals
        from trigsmooth.core import DENSE_LIMIT

        def kernel(*args, **kwargs):
            raise AssertionError("a kernel ran")

        monkeypatch.setattr(functionals, "_grid_table", kernel)
        monkeypatch.setattr(functionals, "modulus", kernel)
        table = ModulusTable(power_law_series(2.0, 16), 1, 3.0)
        with pytest.raises(DomainError, match=f"exceeds the limit of {DENSE_LIMIT}"):
            table.omega_upto(DENSE_LIMIT + 1)
        # the patched name is the one the table fills through
        with pytest.raises(AssertionError, match="a kernel ran"):
            table.omega_upto(4)


@st.composite
def _wide_support(draw):
    """65 to 512 signed coefficients nu^(-s), s in [0, 1.5], on frequencies at most 3
    apart, drawn from a seeded generator; the flat ones put the sup of many rows off
    h = t."""
    size, s = draw(st.integers(65, 512)), draw(st.floats(0.0, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nus = np.cumsum(rng.integers(1, 4, size))
    amps = nus ** (-s) * rng.choice([-1.0, 1.0], size)
    return CosineSeries.from_support(nus, amps, int(nus[-1]))


class TestBlockFilledTable:
    """Supports wider than 64 frequencies fill the p = 2 table in blocks of nu, through the
    bounds of the candidate rows; each value must be modulus_p2_exact's bit for bit."""

    @given(ser=_wide_support(), k=st.sampled_from([1, 2, 3]), extra=st.integers(1, 64))
    @settings(max_examples=15, deadline=None)
    def test_block_fill_is_modulus_p2_exact(self, ser, k, extra):
        # nu_max lies past max_freq / pi, where the rows stop being pruned, and past the
        # first block edge of the larger supports (2**14 // 512 = 32 nu per block)
        split = int(ser.max_freq / math.pi)
        nu_max = split + extra
        got = ModulusTable(ser, k, 2.0, h_samples=17).omega_upto(nu_max)
        assert got.tolist() == [modulus_p2_exact(ser, k, 1.0 / nu, 17)
                                for nu in range(1, nu_max + 1)]
        for nu in (1, max(split, 1)):
            assert got[nu - 1] == pytest.approx(
                oracles.modulus_p2_h_scan(ser.coeffs, k, 1.0 / nu, 17), rel=1e-12, abs=0.0)

    def test_interior_sups_take_their_sines(self, monkeypatch):
        # flat amplitudes on nu = 1..100: below t = 4.5 / 100 the sup sits at an interior
        # row, near h = 4.5 / 100, which no bound may clear before its sines
        from trigsmooth import function_model
        rows = []
        real = function_model._sin_form_terms

        def counting(hs, freqs, *args):
            rows.append(np.size(hs) if np.size(freqs) == 100 else 0)
            return real(hs, freqs, *args)

        monkeypatch.setattr(function_model, "_sin_form_terms", counting)
        ser = CosineSeries(np.ones(100))
        got = ModulusTable(ser, 1, 2.0).omega_upto(40)
        assert sum(rows) > 40  # the 40 rows h = t, and the candidates no bound cleared
        for nu in (1, 7, 20):
            want = oracles.modulus_p2_h_scan(ser.coeffs, 1, 1.0 / nu, 257)
            assert got[nu - 1] == pytest.approx(want, rel=1e-12, abs=0.0)
            assert got[nu - 1] > oracles.modulus_p2_h_scan(ser.coeffs, 1, 1.0 / nu, 2) * (1 + 1e-3)

    @pytest.mark.parametrize("k", [1, 3])
    def test_partial_fills_match_one_fill(self, k):
        ser = power_law_series(1.5, 512)  # rows are pruned below nu = 163
        table = ModulusTable(ser, k, 2.0)
        first = table.omega_at(5)
        part = table.omega_upto(300)
        assert part[4] == first
        assert part.tolist() == ModulusTable(ser, k, 2.0).omega_upto(300).tolist()
        assert table.omega_upto(120).tolist() == part[:120].tolist()
        assert [table.omega_at(nu) for nu in (1, 300, 301)] == [
            modulus_p2_exact(ser, k, 1.0 / nu) for nu in (1, 300, 301)]
