"""Best approximation by trigonometric polynomials and the related two-sided
norm estimates for monotone and lacunary series.

E_n(f)_p is the distance in L_p from f to the polynomials of degree <= n - 1.
At p = 2 the Fourier partial sum is the exact minimiser, so E_n is the Parseval
tail (pi * sum_{nu >= n} a_nu^2)^(1/2) under this package's unnormalised norm.
For p != 2 the partial-sum error is used as a documented near-best surrogate
(an upper bound, within a p-dependent constant of the infimum for 1 < p < inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as hurwitz_zeta

from .core import ClassParams, CosineSeries, FunctionalCurve, _check_levels
from .errors import DivideByZeroError, DomainError, TagError
from .function_model import auto_grid_size, lp_norm, synthesize

EXACT_P2 = "exact_p2"
PARTIAL_SUM = "partial_sum_surrogate"


@dataclass(frozen=True)
class ApproxResult:
    n: int
    value: float
    kind: str


def power_sum_tail(c: float, q: float, start: int) -> float:
    """sum_{nu >= start} c * nu**(-q), via the Hurwitz zeta function (q > 1).

    scipy's Hurwitz zeta is not correctly rounded: against mpmath it is off by up
    to 2.3e-11 relative on q in {1.5, 2, 2.5, 3, 4, 6, 8} x start in
    {2, 10, 36, 100, 1025, 4097}, the worst case being zeta(8, 36).  Every
    closed-form power-law tail (the ones built here, and the one in
    functionals.lacunary_log_power_profile) and the fitted remainder
    functionals._power_law_remainder call the same function and inherit that error.
    """
    if c == 0.0:
        return 0.0
    if q <= 1.0:
        raise DomainError(f"power tail with exponent {q} <= 1 diverges")
    return float(c * hurwitz_zeta(q, start))


def l2_tail_sq(series: CosineSeries, start: int) -> float:
    """sum_{nu >= start} a_nu^2, stored part plus closed-form power-law tail."""
    if start < 1:
        raise DomainError("tail start must be >= 1")
    freqs, amps = series.support()
    stored = float(np.sum(amps[freqs >= start] ** 2))
    if series.tail is None:
        return stored
    t = series.tail
    return stored + power_sum_tail(t.c ** 2, 2.0 * t.s, max(start, series.n_stored + 1))


def best_approx(series: CosineSeries, n: int, p: float,
                grid_n: int | None = None) -> ApproxResult:
    """E_n(f)_p: exact Parseval value at p = 2, partial-sum surrogate otherwise.

    The surrogate synthesises the stored residual f - S_{n-1} f and takes its
    quadrature norm; the analytic tail is not synthesised.
    """
    if n < 1:
        raise DomainError("approximation degree bound n must be >= 1")
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent p must lie in (1, inf), got {p}")
    if p == 2.0:
        return ApproxResult(n=n, value=math.sqrt(math.pi * l2_tail_sq(series, n)), kind=EXACT_P2)
    freqs, amps = series.support()
    keep = freqs >= n
    resid_series = CosineSeries.from_support(freqs[keep], amps[keep], series.n_stored)
    gn = grid_n if grid_n is not None else auto_grid_size(resid_series)
    value = lp_norm(synthesize(resid_series, gn), p)
    return ApproxResult(n=n, value=value, kind=PARTIAL_SUM)


def dyadic_best_approx_curve(series: CosineSeries, max_level: int, p: float,
                             params: ClassParams | None = None) -> FunctionalCurve:
    """Curve (2**mu, E_{2**mu}(f)_p) for mu = 0..max_level."""
    if max_level < 1:
        raise DomainError("max_level must be >= 1")
    _check_levels(max_level + 1)
    ns = 2 ** np.arange(max_level + 1, dtype=np.int64)
    values = [best_approx(series, int(n), p).value for n in ns]
    return FunctionalCurve(ns=ns, values=np.asarray(values), label="E_dyadic", params=params)


@dataclass(frozen=True)
class ModulusBracket:
    """The expression n^{-k} (sum_{nu<=n} a_nu^p nu^{(k+1)p-2})^{1/p}
    + (sum_{nu>n} a_nu^p nu^{p-2})^{1/p} that brackets the modulus at t = 1/n
    for monotone series, up to existential constants.

    The constants multiplying ``value`` on either side are never asserted numerically.
    """

    head_term: float
    tail_term: float

    @property
    def value(self) -> float:
        return self.head_term + self.tail_term


def modulus_bounds_monotone(series: CosineSeries, n: int, k: int, p: float) -> ModulusBracket:
    """Coefficient-side bracket of the modulus at step 1/n for a monotone series."""
    if series.tag != "monotone":
        raise TagError(f"modulus bracket requires tag 'monotone', got {series.tag!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent p must lie in (1, inf), got {p}")
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"order k must be a positive integer, got {k}")

    head_coeffs = series.coeffs_upto(n)
    nus = np.arange(1, n + 1, dtype=float)
    head_sum = float(np.sum(head_coeffs ** p * nus ** ((k + 1) * p - 2)))
    head = n ** (-float(k)) * head_sum ** (1.0 / p)

    freqs, amps = series.support()
    beyond = freqs > n
    tail_sum = float(np.sum(amps[beyond] ** p * freqs[beyond] ** (p - 2)))
    if series.tail is not None:
        t = series.tail
        q = t.s * p - (p - 2)
        tail_sum += power_sum_tail(t.c ** p, q, max(n + 1, series.n_stored + 1))
    tail = tail_sum ** (1.0 / p)
    return ModulusBracket(head_term=head, tail_term=tail)


@dataclass(frozen=True)
class NormEquivalenceReport:
    l2_value: float
    lp_value: float
    ratio: float


def zygmund_norm_bounds(series: CosineSeries, p: float,
                        grid_n: int | None = None) -> NormEquivalenceReport:
    """Quadrature ||f||_p against the coefficient l2 norm of a lacunary series.

    At p = 2 the ratio equals sqrt(pi) exactly under the unnormalised norm;
    for other p the ratio is the empirical constant of the norm equivalence.
    """
    if series.tag != "lacunary":
        raise TagError(f"norm equivalence requires tag 'lacunary', got {series.tag!r}")
    l2 = math.sqrt(float(np.sum(series.support()[1] ** 2)))
    if l2 == 0.0:
        raise DivideByZeroError("zero lacunary series has no norm ratio")
    if p == 2.0:
        lp = math.sqrt(math.pi) * l2
    else:
        gn = grid_n if grid_n is not None else auto_grid_size(series)
        lp = lp_norm(synthesize(series, gn), p)
    return NormEquivalenceReport(l2_value=l2, lp_value=lp, ratio=lp / l2)


@dataclass(frozen=True)
class TailApproxReport:
    l2_tail: float
    e_value: float
    ratio: float | None


def lacunary_E_bounds(series: CosineSeries, n: int, p: float) -> TailApproxReport:
    """E_{2**n}(f)_p against the coefficient tail (sum_{mu >= n} a_mu^2)^(1/2)."""
    if series.tag != "lacunary":
        raise TagError(f"lacunary tail bounds require tag 'lacunary', got {series.tag!r}")
    if n < 0:
        raise DomainError("level n must be >= 0")
    l2_tail = math.sqrt(l2_tail_sq(series, 2 ** n))
    e_value = best_approx(series, 2 ** n, p).value
    ratio = e_value / l2_tail if l2_tail > 0 else None
    return TailApproxReport(l2_tail=l2_tail, e_value=e_value, ratio=ratio)
