import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsmooth import (
    ClassParams,
    ConstraintViolation,
    CosineSeries,
    DomainError,
    FunctionalCurve,
    GridFunction,
    MajorantPhi,
    PowerLawTail,
    lacunary_geometric_series,
    lacunary_series,
    phi_eval,
    phi_property_check,
    power_law_series,
    validate_params,
)
from trigsmooth.core import DENSE_LIMIT


class TestValidateParams:
    def test_accepts_valid_tuple(self):
        p = validate_params(p=2.0, theta=1.0, r=0.5, lam=0.3, k=1)
        assert p.k == 1 and p.lam == 0.3

    def test_rejects_k_below_r_plus_lambda(self):
        with pytest.raises(ConstraintViolation):
            validate_params(p=2.0, theta=1.0, r=0.7, lam=0.4, k=1)

    def test_rejects_p_boundary(self):
        with pytest.raises(ConstraintViolation):
            validate_params(p=1.0, theta=1.0, r=0.5, lam=0.3, k=1)

    @pytest.mark.parametrize("field,value", [
        ("theta", 0.0), ("r", -1.0), ("lam", 0.0), ("k", 0),
    ])
    def test_rejects_nonpositive(self, field, value):
        kwargs = dict(p=2.0, theta=1.0, r=0.1, lam=0.1, k=3)
        kwargs[field] = value
        with pytest.raises(ConstraintViolation):
            validate_params(**kwargs)

    @given(
        p=st.floats(min_value=0.5, max_value=8.0),
        theta=st.floats(min_value=-1.0, max_value=4.0),
        r=st.floats(min_value=-1.0, max_value=3.0),
        lam=st.floats(min_value=-1.0, max_value=3.0),
        k=st.integers(min_value=-1, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_constraint_set(self, p, theta, r, lam, k):
        should_pass = (1.0 < p) and theta > 0 and r > 0 and lam > 0 and k >= 1 and k > r + lam
        if should_pass:
            validate_params(p=p, theta=theta, r=r, lam=lam, k=k)
        else:
            with pytest.raises(ConstraintViolation):
                validate_params(p=p, theta=theta, r=r, lam=lam, k=k)


class TestClassParamsConstruction:
    """ClassParams checks its own fields: constructing it directly is validate_params."""

    @pytest.mark.parametrize("field,value", [
        ("k", True), ("k", 1), ("p", 1.0), ("theta", math.nan),
    ])
    def test_direct_construction_raises_as_validate_params(self, field, value):
        # base k = 2 > r + lambda = 1.5; k = 1 breaks k > r + lambda
        kwargs = dict(p=2.0, theta=1.0, r=0.75, lam=0.75, k=2)
        kwargs[field] = value
        with pytest.raises(ConstraintViolation) as direct:
            ClassParams(**kwargs)
        with pytest.raises(ConstraintViolation) as checked:
            validate_params(**kwargs)
        assert str(direct.value) == str(checked.value)

    def test_fields_stored_as_float_and_int(self):
        params = ClassParams(p=np.int64(3), theta=2, r=np.float32(0.5), lam=1, k=np.int64(2))
        for name in ("p", "theta", "r", "lam"):
            assert type(getattr(params, name)) is float
        assert type(params.k) is int
        assert params == validate_params(p=3, theta=2, r=0.5, lam=1, k=2)


class TestPhiEval:
    def test_power_half_at_quarter(self):
        assert phi_eval(MajorantPhi.power(0.5), 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_constant(self):
        assert phi_eval(MajorantPhi.constant(), 0.1) == 1.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_inv_log_at_exp_minus_four(self, alpha):
        val = phi_eval(MajorantPhi.inv_log(alpha), math.exp(-4.0))
        assert val == pytest.approx(4.0 ** (-alpha), rel=1e-14)

    def test_inv_log_clamped_near_one(self):
        phi = MajorantPhi.inv_log(1.0)
        assert phi_eval(phi, 0.5) == 1.0
        assert phi_eval(phi, 1.0 / math.e + 1e-6) == 1.0

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error_outside_unit_interval(self, delta):
        with pytest.raises(DomainError):
            phi_eval(MajorantPhi.power(1.0), delta)

    def test_tabulated_interpolates_linearly(self):
        phi = MajorantPhi.tabulated([0.1, 0.5, 0.9], [1.0, 3.0, 5.0])
        assert phi_eval(phi, 0.3) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            phi_eval(phi, 0.05)

    def test_power_monotone_increasing(self):
        phi = MajorantPhi.power(0.7)
        grid = np.geomspace(1e-6, 0.99, 64)
        vals = [phi_eval(phi, float(d)) for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inv_log_monotone_increasing_below_inv_e(self):
        phi = MajorantPhi.inv_log(1.5)
        grid = np.geomspace(1e-8, 1.0 / math.e * 0.999, 64)
        vals = [phi_eval(phi, float(d)) for d in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestPhiPropertyCheck:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_power_constants(self, alpha):
        rep = phi_property_check(MajorantPhi.power(alpha))
        assert rep.c1 == pytest.approx(1.0, abs=1e-12)
        assert rep.c2 == pytest.approx(2.0 ** alpha, abs=1e-12)
        assert rep.passed

    def test_power_constants_match_pairwise_brute_force(self):
        phi = MajorantPhi.power(0.5)
        rep = phi_property_check(phi, grid_size=64)
        grid = np.geomspace(1e-8, 0.999, 64)
        vals = [phi_eval(phi, float(d)) for d in grid]
        c1_brute = max(vals[i] / vals[j] for i in range(64) for j in range(i, 64))
        assert rep.c1 == pytest.approx(c1_brute, rel=1e-12)

    def test_constant_is_one_one(self):
        rep = phi_property_check(MajorantPhi.constant())
        assert rep.c1 == 1.0 and rep.c2 == 1.0 and rep.passed

    def test_inv_log_quasi_monotone_with_finite_doubling(self):
        rep = phi_property_check(MajorantPhi.inv_log(1.0))
        assert rep.c1 == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(rep.c2) and rep.c2 > 1.0
        # doubling constant peaks where the clamp meets the log branch
        assert rep.c2 <= 1.0 + math.log(2.0) + 1e-9
        assert rep.passed

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            phi_property_check(MajorantPhi.constant(), grid_size=8)


class TestCosineSeries:
    def test_monotone_tag_rejects_increase(self):
        with pytest.raises(ConstraintViolation):
            CosineSeries(np.array([0.5, 1.0]), tag="monotone")

    def test_monotone_tag_rejects_negative(self):
        with pytest.raises(ConstraintViolation):
            CosineSeries(np.array([1.0, -0.5]), tag="monotone")

    def test_lacunary_tag_rejects_off_support(self):
        coeffs = np.zeros(8)
        coeffs[2] = 1.0  # frequency 3 is not a power of two
        with pytest.raises(ConstraintViolation):
            CosineSeries(coeffs, tag="lacunary")

    def test_general_tag_allows_signs(self):
        s = CosineSeries(np.array([1.0, -2.0, 0.5]))
        assert s.max_freq == 3

    def test_tail_requires_square_summable_exponent(self):
        with pytest.raises(ConstraintViolation):
            PowerLawTail(c=1.0, s=0.5)

    def test_lacunary_view_round_trip(self):
        ser = lacunary_series([1.0, 0.5, 0.25, 0.125])
        assert ser.max_freq == 8
        np.testing.assert_allclose(ser.lacunary_view(), [1.0, 0.5, 0.25, 0.125])

    def test_lacunary_geometric(self):
        ser = lacunary_geometric_series(0.5, 5)
        np.testing.assert_allclose(ser.lacunary_view(), 0.5 ** np.arange(5))

    def test_coeff_consults_tail(self):
        ser = power_law_series(2.0, 16)
        assert ser.coeff(10) == pytest.approx(0.01)
        assert ser.coeff(100) == pytest.approx(1e-4)

    def test_coeffs_are_immutable(self):
        ser = power_law_series(2.0, 16)
        with pytest.raises(ValueError):
            ser.coeffs[0] = 5.0

    def test_support_arrays_are_read_only(self):
        freqs, amps = CosineSeries(np.array([0.0, 2.0, 0.0, -1.0])).support()
        np.testing.assert_array_equal(freqs, [2, 4])
        np.testing.assert_array_equal(amps, [2.0, -1.0])
        with pytest.raises(ValueError):
            freqs[0] = 1
        with pytest.raises(ValueError):
            amps[0] = 5.0

    def test_monotone_tag_rejects_interior_zero(self):
        with pytest.raises(ConstraintViolation):
            CosineSeries(np.array([1.0, 0.0, 0.5]), tag="monotone")

    def test_from_support_rejects_unordered_frequencies(self):
        with pytest.raises(ConstraintViolation):
            CosineSeries.from_support([4, 2], [1.0, 1.0], 4)
        with pytest.raises(ConstraintViolation):
            CosineSeries.from_support([2, 8], [1.0, 1.0], 4)

    def test_lacunary_levels_up_to_63(self):
        ser = lacunary_series(np.ones(63))
        assert ser.max_freq == 2**62 and ser.n_stored == 2**62
        np.testing.assert_array_equal(ser.lacunary_view(), np.ones(63))
        for build in (lambda: lacunary_series(np.ones(64)),
                      lambda: lacunary_geometric_series(0.5, 64)):
            with pytest.raises(DomainError):
                build()

    def test_dense_view_refused_above_the_limit(self):
        ser = lacunary_series(np.ones(26))  # n_stored = 2**25
        with pytest.raises(DomainError):
            ser.coeffs
        with pytest.raises(DomainError):
            power_law_series(2.0, 16).coeffs_upto(DENSE_LIMIT + 1)


@st.composite
def _dense_and_tail(draw):
    """A dense coefficient array with interior and trailing zeros, shaped so that
    each tag holds for some draws, and an optional power-law tail."""
    size = draw(st.integers(0, 40))
    # v + 0.0 turns a drawn -0.0 into +0.0: zeros are not stored, so they come back as +0.0
    vals = draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False).map(lambda v: v + 0.0),
                         min_size=size, max_size=size))
    zeros = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    x = np.array([0.0 if z else v for v, z in zip(vals, zeros)])
    shape = draw(st.sampled_from(["signed", "non_increasing", "powers_of_two"]))
    if shape == "non_increasing":
        x = -np.sort(-np.abs(x))
    elif shape == "powers_of_two":
        nus = np.arange(1, size + 1)
        x = np.where((nus & (nus - 1)) == 0, np.abs(x), 0.0)
    x = np.concatenate([x, np.zeros(draw(st.integers(0, 5)))])
    tail = draw(st.one_of(st.none(), st.builds(PowerLawTail, st.floats(0.0, 10.0),
                                                st.floats(0.6, 4.0))))
    return x, tail


class TestSparseStorage:
    @given(case=_dense_and_tail())
    @settings(max_examples=200, deadline=None)
    def test_dense_round_trip(self, case):
        x, tail = case
        nus = np.arange(1, x.size + 1)
        holds = {"general": True,
                 "monotone": bool(np.all(x >= 0) and np.all(np.diff(x) <= 0)),
                 "lacunary": bool(np.all(x >= 0) and np.all(x[(nus & (nus - 1)) != 0] == 0)
                                  and tail is None)}
        for tag, ok in holds.items():
            if not ok:
                with pytest.raises(ConstraintViolation):
                    CosineSeries(x, tag=tag, tail=tail)
                continue
            ser = CosineSeries(x, tag=tag, tail=tail)
            assert ser.coeffs.tobytes() == x.tobytes()
            for n in (0, x.size // 2, x.size, x.size + 7):
                beyond = (tail.coeffs(np.arange(x.size + 1, n + 1)) if tail is not None
                          else np.zeros(max(n - x.size, 0)))
                want = np.concatenate([x[:n], beyond])
                assert ser.coeffs_upto(n).tobytes() == want.tobytes()
            for nu in range(1, x.size + 8):
                want = x[nu - 1] if nu <= x.size else (tail.coeff(nu) if tail else 0.0)
                assert ser.coeff(nu) == want


class TestGridAndCurve:
    def test_grid_requires_power_of_two(self):
        with pytest.raises(ConstraintViolation):
            GridFunction(np.zeros(12))

    def test_grid_requires_minimum_size(self):
        with pytest.raises(ConstraintViolation):
            GridFunction(np.zeros(4))

    def test_curve_requires_increasing_n(self):
        with pytest.raises(ConstraintViolation):
            FunctionalCurve(np.array([2, 2]), np.array([1.0, 1.0]))

    def test_curve_rejects_negative_values(self):
        with pytest.raises(ConstraintViolation):
            FunctionalCurve(np.array([1, 2]), np.array([1.0, -1.0]))

    def test_curve_entries(self):
        c = FunctionalCurve(np.array([1, 2, 4]), np.array([3.0, 2.0, 1.0]))
        assert c.entries == [(1, 3.0), (2, 2.0), (4, 1.0)]
