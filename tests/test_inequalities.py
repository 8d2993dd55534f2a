import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsmooth import (
    DomainError,
    IneqCase,
    PreconditionError,
    check_hardy_lower,
    check_hardy_upper,
    check_jensen,
    check_reverse_copson,
    check_two_sided_asymp,
)
from trigsmooth.inequalities import (
    _exact_sums,
    canonical_copson_sweep,
    case_rng,
    geometric_sequence,
    log_power_sequence,
    power_sequence,
    random_monotone_sequence,
)

import oracles


def spike(n, at):
    seq = np.zeros(n)
    seq[at - 1] = 1.0
    return seq


class TestJensen:
    def test_single_support_point_gives_equality(self):
        v = check_jensen(spike(16, 3), 1.0, 2.0)
        assert v.ratio == pytest.approx(1.0, abs=1e-15)

    def test_two_term_hand_case(self):
        v = check_jensen(np.array([1.0, 1.0]), 1.0, 2.0)
        assert v.lhs == pytest.approx(math.sqrt(2.0))
        assert v.rhs == pytest.approx(2.0)
        assert v.lhs <= v.rhs

    def test_requires_ordered_exponents(self):
        with pytest.raises(DomainError):
            check_jensen(np.ones(4), 2.0, 1.0)

    def test_many_random_cases_never_violate(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            exps = np.sort(rng.uniform(0.05, 4.0, size=2))
            alpha, beta = float(exps[0]), float(exps[1]) + 1e-3
            v = check_jensen(rng.random(int(rng.integers(1, 40))), alpha, beta)
            assert v.lhs <= v.rhs * (1.0 + 1e-12)


class TestHardyUpper:
    def test_zero_sequence_is_vacuous(self):
        case = IneqCase(seq=np.zeros(32), alpha=1.0, lam_exp=0.5, p=2.0, m=2, n=32)
        v = check_hardy_upper(case, "tail")
        assert v.lhs == v.rhs == 0.0 and v.ratio == 0.0

    def test_spike_tail_closed_form(self):
        # spike at nu = m: both sides reduce to the mu = m term, ratio m^{-p}
        m, n, lam, p = 3, 64, 0.7, 2.0
        case = IneqCase(seq=spike(n, m), alpha=1.2, lam_exp=lam, p=p, m=m, n=n)
        v = check_hardy_upper(case, "tail")
        assert v.lhs == pytest.approx(m ** 0.2 * m ** (lam * p), rel=1e-13)
        assert v.ratio == pytest.approx(float(m) ** (-p), rel=1e-13)

    def test_spike_head_closed_form(self):
        # spike at nu = n makes only the mu = n term survive in both sums
        m, n, lam, p = 2, 32, -0.3, 1.5
        case = IneqCase(seq=spike(n, n), alpha=0.8, lam_exp=lam, p=p, m=m, n=n)
        v = check_hardy_upper(case, "head")
        assert v.ratio == pytest.approx(float(n) ** (-p), rel=1e-13)

    def test_requires_p_at_least_one(self):
        case = IneqCase(seq=np.ones(8), alpha=1.0, lam_exp=0.0, p=0.5, m=1, n=8)
        with pytest.raises(DomainError):
            check_hardy_upper(case)

    def test_ratios_stabilise_for_power_sequences(self):
        for variant in ("tail", "head"):
            ratios = []
            for n in (32, 128, 512, 1024):
                case = IneqCase(seq=power_sequence(n, 1.5), alpha=1.0, lam_exp=0.0,
                                p=2.0, m=2, n=n)
                ratios.append(check_hardy_upper(case, variant).ratio)
            assert max(ratios) <= 2.0 * ratios[-1]


class TestHardyLower:
    def test_zero_sequence_is_vacuous(self):
        case = IneqCase(seq=np.zeros(16), alpha=0.5, lam_exp=0.0, p=0.5, m=1, n=16)
        v = check_hardy_lower(case, "head")
        assert v.lhs == v.rhs == 0.0

    def test_spike_closed_form(self):
        m, n, lam, p = 4, 64, 0.25, 0.5
        case = IneqCase(seq=spike(n, m), alpha=1.0, lam_exp=lam, p=p, m=m, n=n)
        v = check_hardy_lower(case, "tail")
        assert v.ratio == pytest.approx(float(m) ** (-p), rel=1e-13)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
    def test_sweep_min_ratio_positive(self, p):
        ratios = []
        for n in (32, 128, 512):
            case = IneqCase(seq=power_sequence(n, 2.0), alpha=0.5, lam_exp=-0.25,
                            p=p, m=2, n=n)
            for variant in ("tail", "head"):
                ratios.append(check_hardy_lower(case, variant).ratio)
        assert min(ratios) > 0.0

    def test_rejects_large_p(self):
        case = IneqCase(seq=np.ones(8), alpha=1.0, lam_exp=0.0, p=2.0, m=1, n=8)
        with pytest.raises(DomainError):
            check_hardy_lower(case)


class TestReverseCopson:
    def test_gap_requirement_enforced(self):
        case = IneqCase(seq=power_sequence(16, 2.0), alpha=1.0, lam_exp=0.0,
                        p=2.0, m=2, n=16)
        with pytest.raises(PreconditionError):
            check_reverse_copson(case, "tail")

    def test_monotonicity_enforced_by_default(self):
        seq = np.ones(64)
        seq[-1] = 5.0
        case = IneqCase(seq=seq, alpha=1.0, lam_exp=0.0, p=2.0, m=2, n=64)
        with pytest.raises(PreconditionError):
            check_reverse_copson(case, "tail")

    def test_power_law_case_against_high_precision_oracle(self):
        seq = power_sequence(64, 2.0)
        case = IneqCase(seq=seq, alpha=1.0, lam_exp=0.0, p=2.0, m=2, n=64)
        v = check_reverse_copson(case, "tail")
        assert v.ratio > 0.0
        want = oracles.mp_copson_tail_ratio(seq, 1.0, 0.0, 2.0, 2, 64)
        assert v.ratio == pytest.approx(want, rel=1e-12)

    def test_constant_sequence_polynomial_sums(self):
        # constant sequence, lam_exp = 0, p = 1: all sums are polynomial in the
        # index ranges and can be rebuilt directly
        n, m, alpha = 16, 1, 1.0
        case = IneqCase(seq=np.ones(n), alpha=alpha, lam_exp=0.0, p=1.0, m=m, n=n)
        v = check_reverse_copson(case, "tail")
        lhs = math.fsum(float(n - mu + 1) for mu in range(m, n + 1))
        rhs = math.fsum(float(mu) for mu in range(8 * m, n + 1))
        assert v.lhs == pytest.approx(lhs, rel=1e-14)
        assert v.rhs == pytest.approx(rhs, rel=1e-14)

    def test_small_p_clause_uses_shifted_ranges(self):
        case = IneqCase(seq=power_sequence(64, 1.5), alpha=0.5, lam_exp=0.25,
                        p=0.5, m=2, n=64)
        v = check_reverse_copson(case, "tail")
        assert v.direction == "upper"
        assert "4m" in v.clause
        with pytest.raises(PreconditionError):
            check_reverse_copson(
                IneqCase(seq=power_sequence(7, 1.5), alpha=0.5, lam_exp=0.25,
                         p=0.5, m=2, n=7), "tail")

    def test_adversarial_spike_degrades_ratio(self):
        # negative control: a non-monotone spike can fall below the monotone
        # sweep minimum; recorded, not asserted as an inequality
        sweep_min = min(v.ratio for _, v in canonical_copson_sweep())
        seq = np.full(64, 1e-9)
        seq[-1] = 1.0
        case = IneqCase(seq=seq, alpha=1.0, lam_exp=0.0, p=2.0, m=2, n=64)
        v = check_reverse_copson(case, "tail", require_monotone=False)
        assert v.ratio < sweep_min


class TestTwoSidedAsymp:
    def test_spike_at_one(self):
        case = IneqCase(seq=spike(32, 1), alpha=0.7, lam_exp=0.3, p=2.0, m=1, n=32)
        lower, upper = check_two_sided_asymp(case, "tail")
        assert lower.ratio == pytest.approx(1.0, rel=1e-14)
        assert upper.ratio == lower.ratio

    def test_power_law_sweep_ratios_finite_positive(self):
        for p in (0.5, 1.0, 2.0):
            case = IneqCase(seq=power_sequence(256, 2.0), alpha=0.5, lam_exp=-0.25,
                            p=p, m=1, n=256)
            for variant in ("tail", "head"):
                lower, upper = check_two_sided_asymp(case, variant)
                assert 0.0 < lower.ratio < math.inf

    def test_scaling_invariance(self):
        seq = geometric_sequence(64, 0.9)
        a = check_two_sided_asymp(
            IneqCase(seq=seq, alpha=1.0, lam_exp=0.5, p=1.5, m=1, n=64), "tail")[0]
        b = check_two_sided_asymp(
            IneqCase(seq=7.0 * seq, alpha=1.0, lam_exp=0.5, p=1.5, m=1, n=64), "tail")[0]
        assert b.ratio == pytest.approx(a.ratio, rel=1e-13)


class TestHomogeneityAndFamilies:
    def test_all_checkers_are_p_homogeneous(self):
        seq = power_sequence(64, 1.5)
        for factor in (0.5, 3.0):
            c1 = IneqCase(seq=seq, alpha=1.0, lam_exp=0.0, p=2.0, m=2, n=64)
            c2 = IneqCase(seq=factor * seq, alpha=1.0, lam_exp=0.0, p=2.0, m=2, n=64)
            assert (check_hardy_upper(c2, "tail").ratio
                    == pytest.approx(check_hardy_upper(c1, "tail").ratio, rel=1e-13))
            assert (check_reverse_copson(c2, "head").ratio
                    == pytest.approx(check_reverse_copson(c1, "head").ratio, rel=1e-13))

    def test_random_monotone_generator(self):
        seq = random_monotone_sequence(case_rng(0, 5), 128)
        assert seq.shape == (128,)
        assert np.all(np.diff(seq) <= 0) and seq.min() >= 0

    def test_families_are_monotone(self):
        for seq in (power_sequence(64), geometric_sequence(64), log_power_sequence(64)):
            assert np.all(np.diff(seq) <= 0)

    def test_case_rng_reproducible(self):
        a = case_rng(42, 3).random(5)
        b = case_rng(42, 3).random(5)
        np.testing.assert_array_equal(a, b)


class TestExactSums:
    """The batched sum behind every outer sum is math.fsum, bit for bit."""

    @staticmethod
    def fsum_or_error(column):
        try:
            return math.fsum(column.tolist()).hex()
        except OverflowError:
            return OverflowError

    @staticmethod
    def matrix(kind, width, count, rng):
        shape = (width, count)
        if kind == "uniform":
            return rng.random(shape)
        if kind == "power_law":
            return rng.random(shape) * np.arange(1.0, width + 1.0)[:, None] ** rng.uniform(-4, 4)
        if kind == "exponents":   # from the smallest subnormal 2^-1074 up to 2^900
            return np.ldexp(rng.random(shape), rng.integers(-1074, 901, size=shape))
        if kind == "zeros":
            return np.where(rng.random(shape) < 0.5, 0.0, rng.random(shape))
        if kind == "overflow":
            return np.ldexp(rng.random(shape), 1023)
        # exact and near ties: 1 + 2^-53 is halfway between 1 and its successor
        terms = np.zeros(shape)
        for j in range(count):
            extra = ([], [2.0 ** -200], [-0.0], [2.0 ** -1074])[rng.integers(4)]
            tie = [1.0, 2.0 ** -53, *extra]
            rows = rng.choice(width, size=min(width, len(tie)), replace=False)
            terms[rows, j] = tie[:len(rows)]
        return terms

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["uniform", "power_law", "exponents", "zeros", "ties",
                                 "overflow"]),
           width=st.integers(0, 3000), count=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_fsum_bit_for_bit(self, kind, width, count, seed):
        terms = self.matrix(kind, width, count, np.random.default_rng(seed))
        want = [self.fsum_or_error(terms[:, j]) for j in range(count)]
        if OverflowError in want:
            with pytest.raises(OverflowError):
                _exact_sums(terms)
        else:
            assert [x.hex() for x in _exact_sums(terms).tolist()] == want

    @pytest.mark.parametrize("tie", [[1.0, 2.0 ** -53], [1.0, 2.0 ** -53, 2.0 ** -200],
                                     [2.0 ** -1074] * 3, [0.0, -0.0]])
    def test_ties_and_zero_sums(self, tie):
        terms = np.array(tie)[:, None]
        assert _exact_sums(terms).tolist()[0].hex() == math.fsum(tie).hex()

    def test_power_law_sums_are_certified_without_fsum(self, monkeypatch):
        calls = []
        monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or 0.0)
        weights = np.arange(1.0, 2048.0)[:, None] ** -1.5
        terms = np.random.default_rng(3).random((2047, 16)) * weights
        _exact_sums(terms)
        assert calls == []
