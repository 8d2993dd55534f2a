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

from .core import CosineSeries, FunctionalCurve, _check_levels, is_order
from .errors import DivideByZeroError, DomainError, TagError
from .function_model import auto_grid_size, lp_norm, synthesize

EXACT_P2 = "exact_p2"
PARTIAL_SUM = "partial_sum_surrogate"


@dataclass(frozen=True)
class ApproxResult:
    value: float
    kind: str


#: terms of power_sum_tail summed directly before the Euler-Maclaurin tail takes over
_DIRECT_TERMS = 9
#: B_2k / (2k)! for k = 1..10, the Euler-Maclaurin tail coefficients
_EM_COEFFS = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), 1))


def power_sum_tail(c: float, q: float, start: float) -> float:
    """sum_{nu >= start} c * nu**(-q) for q > 1: c times the Hurwitz zeta(q, start).

    The first 9 terms are summed directly; the rest is the Euler-Maclaurin tail at
    a = start + 9 with B_2..B_20 (DLMF 25.11(iii)).  Against mpmath at 300 digits
    it is within 2.7e-16 relative on the grid of tests/test_approximation.py (q from
    1.02 to 40, start from 1 to 2**62) wherever the value does not underflow.  Every
    closed-form power-law tail and the fitted remainder of
    functionals._power_law_remainder go through this function.
    """
    if c == 0.0:
        return 0.0
    if q <= 1.0:
        raise DomainError(f"power tail with exponent {q} <= 1 diverges")
    a = float(start) + _DIRECT_TERMS
    head = math.fsum((start + j) ** -q for j in range(_DIRECT_TERMS))
    tail = a ** (1.0 - q) / (q - 1.0) + 0.5 * a ** -q
    term, inv_a2 = q * a ** (-q - 1.0), 1.0 / (a * a)  # term: (q)_{2k-1} a^{-q-2k+1}
    for k, coeff in enumerate(_EM_COEFFS, 1):
        tail += coeff * term
        term *= (q + 2 * k - 1) * (q + 2 * k) * inv_a2
    return float(c * (head + tail))


def _head_sum(series: CosineSeries, n: int, q: float, e: float) -> float:
    """sum_{nu <= n} a_nu^q nu^e over the support; past n_stored, over the dense
    coeffs_upto(n) with the tail model's terms (refused above DENSE_LIMIT)."""
    if series.tail is not None and n > series.n_stored:
        coeffs, nus = series.coeffs_upto(n), np.arange(1, n + 1)
    else:
        freqs, amps = series.support()
        m = freqs.searchsorted(n, side="right")
        coeffs, nus = amps[:m], freqs[:m]
    return float(np.sum(coeffs ** q * nus ** float(e)))  # int nu^e would wrap


def _tail_sum(series: CosineSeries, start: int, q: float, e: float) -> float:
    """sum_{nu >= start} a_nu^q nu^e over the support, plus the power-law tail in closed
    form from max(start, n_stored + 1): inf if it diverges (c > 0, s q - e <= 1)."""
    freqs, amps = series.support()
    i = freqs.searchsorted(start)
    terms = amps[i:] ** q
    if e:  # skip the no-op factor: l2_tail_sq (e = 0) runs per omega-table row
        terms = terms * freqs[i:] ** float(e)
    total, t = float(np.sum(terms)), series.tail
    if t is None or t.c == 0.0:
        return total
    if t.s * q - e <= 1.0:
        return math.inf
    return total + power_sum_tail(t.c ** q, t.s * q - e, max(start, series.n_stored + 1))


def l2_tail_sq(series: CosineSeries, start: int) -> float:
    """sum_{nu >= start} a_nu^2: _tail_sum at q = 2, e = 0."""
    if start < 1:
        raise DomainError("tail start must be >= 1")
    return _tail_sum(series, start, 2, 0)


def best_approx(series: CosineSeries, n: int, p: float) -> ApproxResult:
    """E_n(f)_p: exact Parseval value at p = 2, partial-sum surrogate otherwise.

    The surrogate synthesises the stored residual f - S_{n-1} f and takes its
    quadrature norm; the analytic tail is not synthesised.
    """
    if n < 1:
        raise DomainError("approximation degree bound n must be >= 1")
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent p must lie in (1, inf), got {p}")
    if p == 2.0:
        return ApproxResult(value=math.sqrt(math.pi * l2_tail_sq(series, n)), kind=EXACT_P2)
    freqs, amps = series.support()
    keep = freqs >= n
    resid_series = CosineSeries.from_support(freqs[keep], amps[keep], series.n_stored)
    value = lp_norm(synthesize(resid_series, auto_grid_size(resid_series)), p)
    return ApproxResult(value=value, kind=PARTIAL_SUM)


def dyadic_best_approx_curve(series: CosineSeries, max_level: int, p: float) -> FunctionalCurve:
    """Curve (2**mu, E_{2**mu}(f)_p) for mu = 0..max_level."""
    if max_level < 1:
        raise DomainError("max_level must be >= 1")
    _check_levels(max_level + 1)
    ns = 2 ** np.arange(max_level + 1, dtype=np.int64)
    values = [best_approx(series, int(n), p).value for n in ns]
    return FunctionalCurve(ns=ns, values=np.asarray(values))


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
    """Coefficient-side bracket of the modulus at step 1/n for a monotone series, from
    the shared power sums; the tail term is inf where the power-law tail diverges."""
    if series.tag != "monotone":
        raise TagError(f"modulus bracket requires tag 'monotone', got {series.tag!r}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent p must lie in (1, inf), got {p}")
    if not is_order(k):
        raise DomainError(f"order k must be a positive integer, got {k}")
    return ModulusBracket(
        head_term=n ** (-float(k)) * _head_sum(series, n, p, (k + 1) * p - 2) ** (1.0 / p),
        tail_term=_tail_sum(series, n + 1, p, p - 2) ** (1.0 / p))


@dataclass(frozen=True)
class NormEquivalenceReport:
    ratio: float


def zygmund_norm_bounds(series: CosineSeries, p: float) -> NormEquivalenceReport:
    """Quadrature ||f||_p against the coefficient l2 norm of a lacunary series.

    At p = 2 the ratio equals sqrt(pi) exactly under the unnormalised norm;
    for other p the ratio is the empirical constant of the norm equivalence.
    """
    if series.tag != "lacunary":
        raise TagError(f"norm equivalence requires tag 'lacunary', got {series.tag!r}")
    l2 = math.sqrt(l2_tail_sq(series, 1))
    if l2 == 0.0:
        raise DivideByZeroError("zero lacunary series has no norm ratio")
    if p == 2.0:
        lp = math.sqrt(math.pi) * l2
    else:
        lp = lp_norm(synthesize(series, auto_grid_size(series)), p)
    return NormEquivalenceReport(ratio=lp / l2)


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
