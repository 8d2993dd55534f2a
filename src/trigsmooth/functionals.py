"""The smoothness-class functional in its four equivalent forms, and membership
tests against a majorant.

All four forms sample the same object at scale 1/n:

- integral form: (int_0^d t^{-r*th-1} w^th dt + d^{l*th} int_d^1 t^{-(r+l)*th-1} w^th dt)^{1/th},
  evaluated at d = 1/(n+1) on the harmonic partition [1/(nu+1), 1/nu] with the
  modulus frozen at w(1/nu) on each cell;
- series form over moduli: (sum_{nu>n} w(1/nu)^th nu^{r*th-1}
  + n^{-l*th} sum_{nu<=n} w(1/nu)^th nu^{(r+l)*th-1})^{1/th};
- coefficient forms: the same shape with w(1/nu)^th nu^{-1} replaced by
  a_nu^th nu^shift, shift = th - th/p - 1 for monotone series and 0 for lacunary
  ones, both summed by _coefficient_form;
- the dyadic best-approximation form.

Infinite sums are truncated with a fitted power-law remainder added back. The
record functions (integral_record, series_record, dyadic_record) return the value
with the remainder's fraction of the tail's partial sum, so a caller can hold it
to a budget; the float forms return the value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximation import _head_sum, _tail_sum, best_approx, power_sum_tail
from .core import DENSE_LIMIT, ClassParams, CosineSeries, FunctionalCurve, MajorantPhi, is_order
from .errors import DomainError, TagError
from .function_model import (_EXACT_BLOCK, DEFAULT_H_SAMPLES, ModulusRequest, _grid_table,
                             _p2_table, auto_grid_size, modulus, modulus_p2_exact)

#: smallest truncation range used by the omega-based forms
MIN_NU_MAX = 1024
#: least-squares slope threshold of the boundedness verdict
DEFAULT_SLOPE_TOL = 0.02


@dataclass(frozen=True)
class Truncated:
    """A form truncated at a finite range: its value, and the extrapolated remainder
    as a fraction of the tail's partial sum (0 with no remainder, inf when the tail
    cannot be extrapolated convergently)."""

    value: float
    fraction: float


class ModulusTable:
    """Cached evaluations of w(1/nu) for one (series, k, p) triple, NaN until evaluated.

    Uses the closed-form Parseval path at p = 2 and the quadrature grid path
    otherwise; ``path`` records which one, for reproducibility.  omega_upto fills its
    missing nu in blocks through _grid_table, or at p = 2, k < 512 and a support wider
    than _EXACT_BLOCK through _p2_table, each value bit for bit omega_at's.
    """

    def __init__(self, series: CosineSeries, k: int, p: float,
                 h_samples: int = DEFAULT_H_SAMPLES):
        self.series = series
        self.k = int(k)
        self.p = float(p)
        self.h_samples = int(h_samples)
        self.path = "p2_exact" if p == 2.0 else "grid"
        self._request = ModulusRequest(self.k, 1.0, self.p, self.h_samples)  # checks k, p, shifts
        self._grid_n = auto_grid_size(series)
        self._omega = np.empty(0)
        self._blocked = p != 2.0 or (self.k < 512 and series.support()[0].size > _EXACT_BLOCK)

    def omega_at(self, nu: int) -> float:
        """w(1/nu) for a positive integer nu; DomainError for any other nu."""
        if not is_order(nu):
            raise DomainError(f"omega_at needs a positive integer nu, got {nu!r}")
        if nu > self._omega.size:  # NaN until evaluated
            self._omega = np.pad(self._omega, (0, nu - self._omega.size), constant_values=np.nan)
        val = self._omega.item(nu - 1)
        if math.isnan(val):
            if self.path == "p2_exact":
                val = modulus_p2_exact(self.series, self.k, 1.0 / nu, self.h_samples)
            else:
                val = modulus(self.series, ModulusRequest(self.k, 1.0 / nu, self.p, self.h_samples),
                              self._grid_n)
            self._omega[nu - 1] = val
        return val

    def omega_upto(self, nu_max: int) -> np.ndarray:
        """w(1/nu) for nu = 1..nu_max; DomainError unless nu_max is an int in [0, DENSE_LIMIT]."""
        if not is_order(nu_max, 0):
            raise DomainError(f"omega_upto needs an integer nu_max >= 0, got {nu_max!r}")
        if nu_max > DENSE_LIMIT:
            raise DomainError(f"omega range {nu_max} exceeds the limit of {DENSE_LIMIT} entries")
        if nu_max > self._omega.size:
            self._omega = np.pad(self._omega, (0, nu_max - self._omega.size), constant_values=np.nan)
        if not self._blocked:
            return np.array([self.omega_at(nu) for nu in range(1, nu_max + 1)])
        missing = np.flatnonzero(np.isnan(self._omega[:nu_max]))
        if missing.size:
            ts = 1.0 / (missing + 1)
            self._omega[missing] = (_grid_table(self.series, self._request, ts, self._grid_n)
                                    if self.path == "grid" else
                                    _p2_table(self.series, self.k, ts, self.h_samples))
        return self._omega[:nu_max].copy()


def _power_law_remainder(nus: np.ndarray, terms: np.ndarray) -> tuple[float, float]:
    """Estimate sum of the term sequence beyond nus[-1] from a log-log fit.

    Returns (remainder, fitted_decay_exponent).  A finite-rank tail (trailing
    zeros) gives remainder 0; a fitted exponent too close to 1 gives inf,
    signalling that the truncated series cannot be extrapolated convergently.
    """
    if terms.size == 0 or terms[-1] == 0.0:
        return 0.0, math.inf
    window = (nus >= nus[-1] // 2) & (terms > 0)
    if int(window.sum()) < 4:
        window = terms > 0
    if int(window.sum()) < 2:
        return 0.0, math.inf
    slope = np.polyfit(np.log(nus[window]), np.log(terms[window]), 1)[0]
    q = -float(slope)
    if q <= 1.02:
        return math.inf, q
    last_nu = float(nus[-1])
    scale = float(terms[-1]) * last_nu ** q
    return power_sum_tail(scale, q, last_nu + 1.0), q


def _truncated(partial: float, remainder: float, rest: float, th: float) -> Truncated:
    """(partial + remainder + rest)^{1/th}; a nonzero remainder comes with partial > 0."""
    total = partial + remainder + rest
    return Truncated(float(total ** (1.0 / th)), remainder / partial if remainder else 0.0)


def _delta_to_n(delta: float) -> int:
    n_float = 1.0 / delta - 1.0
    n = int(round(n_float))
    if n < 1 or abs(n_float - n) > 1e-9 * max(1.0, abs(n_float)):
        raise DomainError(f"delta must equal 1/(n+1) for an integer n >= 1, got {delta}")
    return n


def _segment_weights(nus: np.ndarray, a: float) -> np.ndarray:
    """int over [1/(nu+1), 1/nu] of t^(-a-1) dt = ((nu+1)^a - nu^a) / a."""
    return ((nus + 1.0) ** a - nus ** a) / a


def _point_weights(nus: np.ndarray, a: float) -> np.ndarray:
    """nu^(a-1), the series-form counterpart of _segment_weights."""
    return nus ** (a - 1.0)


def _omega_form(series: CosineSeries, params: ClassParams, n: int, nu_max: int | None,
                range_name: str, table: ModulusTable | None, weights,
                head_scale: float) -> Truncated:
    """(sum_{nu>n} w(1/nu)^th weights(nu, r*th) + remainder
    + head_scale * sum_{nu<=n} w(1/nu)^th weights(nu, (r+l)*th))^{1/th}.

    The tail is truncated at nu_max, by default max(4n, MIN_NU_MAX), with a power-law
    extrapolation of the remainder; a nu_max below 4n is a DomainError naming it range_name.
    """
    nu_max = nu_max if nu_max is not None else max(4 * n, MIN_NU_MAX)
    if nu_max < 4 * n:
        raise DomainError(f"{range_name} must be at least 4n = {4 * n}")
    th, r, lam = params.theta, params.r, params.lam
    if table is None:
        table = ModulusTable(series, params.k, params.p)
    omega = table.omega_upto(nu_max)

    nus_tail = np.arange(n + 1, nu_max + 1, dtype=float)
    tail_terms = omega[n:] ** th * weights(nus_tail, r * th)
    partial = float(np.sum(tail_terms))
    remainder, _ = _power_law_remainder(nus_tail, tail_terms)

    nus_head = np.arange(1, n + 1, dtype=float)
    head = float(np.sum(omega[:n] ** th * weights(nus_head, (r + lam) * th)))
    return _truncated(partial, remainder, head_scale * head, th)


def integral_record(series: CosineSeries, params: ClassParams, delta: float,
                    quad_points: int | None = None,
                    table: ModulusTable | None = None) -> Truncated:
    """Integral form of the class functional at delta = 1/(n+1), with its truncation.

    Both integrals are evaluated on the harmonic partition with the modulus frozen
    at w(1/nu) per cell; the singular integral is truncated at quad_points cells
    with a power-law extrapolation of the remainder.
    """
    return _omega_form(series, params, _delta_to_n(delta), quad_points, "quad_points", table,
                       _segment_weights, delta ** (params.lam * params.theta))


def integral_form(series: CosineSeries, params: ClassParams, delta: float,
                  quad_points: int | None = None, table: ModulusTable | None = None) -> float:
    """The value of integral_record."""
    return integral_record(series, params, delta, quad_points, table).value


def series_record(series: CosineSeries, params: ClassParams, n: int,
                  nu_max: int | None = None, table: ModulusTable | None = None) -> Truncated:
    """Series form over moduli of the class functional at scale 1/n, with its truncation."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return _omega_form(series, params, n, nu_max, "nu_max", table, _point_weights,
                       float(n) ** (-params.lam * params.theta))


def series_form(series: CosineSeries, params: ClassParams, n: int,
                nu_max: int | None = None, table: ModulusTable | None = None) -> float:
    """The value of series_record."""
    return series_record(series, params, n, nu_max, table).value


def _coefficient_form(series: CosineSeries, params: ClassParams, n: int, shift: float) -> float:
    """(sum_{nu>n} a_nu^th nu^{r*th+shift}
     + n^{-l*th} sum_{nu<=n} a_nu^th nu^{(r+l)*th+shift})^{1/th}, tail model included."""
    th, r, lam = params.theta, params.r, params.lam
    tail = _tail_sum(series, n + 1, th, r * th + shift)
    head = _head_sum(series, n, th, (r + lam) * th + shift)
    return float((tail + float(n) ** (-lam * th) * head) ** (1.0 / th))


def monotone_coefficient_form(series: CosineSeries, params: ClassParams, n: int) -> float:
    """Coefficient form for monotone series: _coefficient_form with shift th - th/p - 1;
    inf when the power-law tail's sum diverges (c > 0 and s*th <= r*th + th - th/p)."""
    if series.tag != "monotone":
        raise TagError(f"coefficient form requires tag 'monotone', got {series.tag!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    th = params.theta
    return _coefficient_form(series, params, n, th - th / params.p - 1.0)


def lacunary_coefficient_form(series: CosineSeries, params: ClassParams, m: int) -> float:
    """Coefficient form for lacunary series: _coefficient_form with shift 0, whose sums
    run over the levels mu with 2**mu > m (tail) and 2**mu <= m (head)."""
    if series.tag != "lacunary":
        raise TagError(f"lacunary form requires tag 'lacunary', got {series.tag!r}")
    if m < 1:
        raise DomainError("m must be >= 1")
    return _coefficient_form(series, params, m, 0.0)


def dyadic_record(series: CosineSeries, params: ClassParams, n: int,
                  max_level: int | None = None) -> Truncated:
    """Dyadic best-approximation form of the class functional at level n, with its
    truncation.

    (sum_{mu>n} 2^{mu*r*th} E_{2^mu}^th
     + 2^{-n*l*th} sum_{mu<=n} 2^{mu*(r+l)*th} E_{2^mu}^th)^{1/th},
    truncated at max_level with a geometric extrapolation of the tail from the
    empirical decay of the E-curve.
    """
    if n < 0:
        raise DomainError("level n must be >= 0")
    th, r, lam, p = params.theta, params.r, params.lam, params.p
    if max_level is None:
        spectrum_level = max(series.max_freq, 1).bit_length()
        max_level = max(n + 8, spectrum_level + 1)
    if max_level <= n:
        raise DomainError("max_level must exceed the requested level n")
    e_values = np.array([best_approx(series, 2 ** mu, p).value for mu in range(max_level + 1)])

    mus = np.arange(max_level + 1, dtype=float)
    tail_terms = 2.0 ** (mus[n + 1:] * r * th) * e_values[n + 1:] ** th
    partial = float(np.sum(tail_terms))

    remainder = 0.0
    if tail_terms.size and tail_terms[-1] > 0.0:
        if tail_terms.size >= 2 and tail_terms[-2] > 0.0:
            rho = float(tail_terms[-1] / tail_terms[-2])
        else:
            rho = 1.0
        if rho >= 0.999:
            remainder = math.inf
        else:
            remainder = float(tail_terms[-1]) * rho / (1.0 - rho)

    head = float(np.sum(2.0 ** (mus[: n + 1] * (r + lam) * th) * e_values[: n + 1] ** th))
    return _truncated(partial, remainder, 2.0 ** (-n * lam * th) * head, th)


def dyadic_approx_form(series: CosineSeries, params: ClassParams, n: int,
                       max_level: int | None = None) -> float:
    """The value of dyadic_record."""
    return dyadic_record(series, params, n, max_level).value


VERDICT_BOUNDED = "bounded"
VERDICT_UNBOUNDED = "unbounded-trend"
VERDICT_DIVERGENT = "divergent"


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of testing value(n) <= C * phi(1/n) along a curve.

    sup_ratio is the smallest empirical C on the sampled range; the verdict comes
    from the least-squares slope of log(ratio) against log(n) over the last half
    of the curve (bounded iff the slope does not exceed slope_tol).
    """

    phi: MajorantPhi
    sup_ratio: float
    tail_slope: float
    verdict: str


def membership_test(curve: FunctionalCurve, phi: MajorantPhi,
                    slope_tol: float = DEFAULT_SLOPE_TOL) -> MembershipReport:
    """Decide boundedness of curve values against the majorant phi(1/n)."""
    if len(curve) == 0:
        raise DomainError("membership test needs a non-empty curve")
    ratios = curve.ratio_against(phi)
    sup_ratio = float(ratios.max())
    start = curve.ns.size // 2
    tail_ns = curve.ns[start:].astype(float)
    tail_ratios = ratios[start:]
    pos = tail_ratios > 0
    if int(pos.sum()) >= 2:
        slope = float(np.polyfit(np.log(tail_ns[pos]), np.log(tail_ratios[pos]), 1)[0])
    else:
        slope = 0.0
    verdict = VERDICT_BOUNDED if slope <= slope_tol else VERDICT_UNBOUNDED
    return MembershipReport(phi=phi, sup_ratio=sup_ratio, tail_slope=slope, verdict=verdict)


def membership_of_values(ns, values, phi: MajorantPhi,
                         slope_tol: float = DEFAULT_SLOPE_TOL) -> MembershipReport:
    """Membership test tolerating divergent (non-finite) functional values."""
    values = np.asarray(values, dtype=float)
    ns = np.asarray(ns, dtype=np.int64)
    if not np.all(np.isfinite(values)):
        return MembershipReport(phi=phi, sup_ratio=math.inf, tail_slope=math.inf,
                                verdict=VERDICT_DIVERGENT)
    return membership_test(FunctionalCurve(ns, values), phi, slope_tol=slope_tol)


@dataclass(frozen=True)
class LacunaryLogPowerProfile:
    """Normalised tail/head profiles of the lacunary sequence
    a_mu = 2^{-mu r} (mu+1)^{-(alpha + 1/theta)}.

    t1(n) = n^alpha * (sum_{mu>n} a_mu^th 2^{mu r th})^{1/th} and
    t2(n) = n^{alpha+1/th} * (2^{-n l th} sum_{mu<=n} a_mu^th 2^{mu (r+l) th})^{1/th}
    are both bounded above and below; d holds the coefficient-form values at m = 2^n.
    """

    ns: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    d_ms: np.ndarray
    d_values: np.ndarray


def lacunary_log_power_profile(r: float, alpha: float, theta: float, lam: float,
                               n_values) -> LacunaryLogPowerProfile:
    """Exact level-space evaluation of the log-corrected lacunary sequence profiles.

    The weight a_mu^th 2^{mu r th} collapses to (mu+1)^{-(alpha th + 1)}, so the
    tail sums have the closed Hurwitz-zeta form and no truncation is involved.
    """
    for name, val in (("r", r), ("alpha", alpha), ("theta", theta), ("lambda", lam)):
        if not (math.isfinite(val) and val > 0):
            raise DomainError(f"{name} must be positive, got {val}")
    ns = np.asarray(sorted(int(n) for n in n_values), dtype=np.int64)
    if ns.size == 0 or ns[0] < 1:
        raise DomainError("n values must be positive integers")
    if ns.max() > 61:
        raise DomainError("levels above 61 overflow the 2**n curve index")
    q = alpha * theta + 1.0
    t1 = np.empty(ns.size)
    t2 = np.empty(ns.size)
    d_values = np.empty(ns.size)
    for i, n in enumerate(ns):
        tail = power_sum_tail(1.0, q, n + 2.0)
        mus = np.arange(0, n + 1, dtype=float)
        head = float(np.sum((mus + 1.0) ** (-q) * 2.0 ** (mus * lam * theta)))
        attenuated = 2.0 ** (-float(n) * lam * theta) * head
        t1[i] = float(n) ** alpha * tail ** (1.0 / theta)
        t2[i] = float(n) ** (alpha + 1.0 / theta) * attenuated ** (1.0 / theta)
        d_values[i] = (tail + attenuated) ** (1.0 / theta)
    d_ms = (2 ** ns.astype(object)).astype(np.int64)
    return LacunaryLogPowerProfile(ns=ns, t1=t1, t2=t2, d_ms=d_ms, d_values=d_values)
