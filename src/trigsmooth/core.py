"""Domain types: cosine series, class parameters, majorant catalog, grids, curves.

Conventions used throughout the package:

- a cosine series is sum_{nu>=1} a_nu cos(nu x); there is no constant term;
- L_p norms on [0, 2*pi) carry no 1/(2*pi) normalisation, so ||cos||_2 = sqrt(pi);
- a "lacunary" series is supported on the frequencies 1, 2, 4, 8, ... and can be
  viewed either by frequency nu or by level mu with nu = 2**mu (level 0 is cos x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, DivideByZeroError, DomainError, TagError

TAGS = ("general", "monotone", "lacunary")
PHI_KINDS = ("power", "constant", "inv_log", "tabulated")

#: Largest dense coefficient array or spatial grid, in entries (128 MiB of float64).
DENSE_LIMIT = 2**24


@dataclass(frozen=True)
class PowerLawTail:
    """Analytic continuation a_nu = c * nu**(-s) for nu beyond the stored range.

    s > 1/2 keeps the tail square-summable, so the extended series stays in L_2.
    """

    c: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ConstraintViolation("tail amplitude c must be finite and >= 0")
        if not (math.isfinite(self.s) and self.s > 0.5):
            raise ConstraintViolation(f"tail exponent s must exceed 1/2, got {self.s}")

    def coeff(self, nu: int) -> float:
        return self.c * float(nu) ** (-self.s)

    def coeffs(self, nus: np.ndarray) -> np.ndarray:
        return self.c * np.asarray(nus, dtype=float) ** (-self.s)


def is_order(k, least: int = 1) -> bool:
    """Whether k is an integer >= least (1: a difference order) and not a bool (an int subclass)."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= least


@dataclass(frozen=True, init=False, eq=False)
class CosineSeries:
    """Stored coefficients a_1..a_N of a cosine series, plus an optional tail.

    Only the nonzero support is stored: ascending int64 ``freqs`` and their ``amps``,
    both read-only, with N = ``n_stored``.  ``coeffs`` is a dense view built on demand,
    whose entry i is the coefficient of cos((i+1) x).  The tail model, when present,
    describes coefficients beyond the stored range; it participates in coefficient-side
    computations (Parseval tails, coefficient functionals) but is never synthesised.
    Code outside this module reads the stored coefficients through ``support()``.
    """

    freqs: np.ndarray
    amps: np.ndarray
    n_stored: int
    tag: str = "general"
    tail: PowerLawTail | None = None

    def __init__(self, coeffs, tag: str = "general", tail: PowerLawTail | None = None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 1:
            raise ConstraintViolation("coeffs must be one-dimensional")
        self._store(np.arange(1, coeffs.size + 1), coeffs, coeffs.size, tag, tail)

    @classmethod
    def from_support(cls, freqs, amps, n_stored: int, tag: str = "general",
                     tail: PowerLawTail | None = None) -> "CosineSeries":
        """Series with a_nu = amps[i] at nu = freqs[i], strictly increasing in
        1..n_stored, and a_nu = 0 at every other nu up to n_stored."""
        series = object.__new__(cls)
        series._store(np.asarray(freqs, dtype=np.int64), np.asarray(amps, dtype=float),
                      n_stored, tag, tail)
        return series

    def _store(self, freqs: np.ndarray, amps: np.ndarray, n_stored: int, tag: str,
               tail: PowerLawTail | None) -> None:
        if freqs.ndim != 1 or freqs.shape != amps.shape or (freqs.size and (
                freqs[0] < 1 or freqs[-1] > n_stored or np.any(np.diff(freqs) <= 0))):
            raise ConstraintViolation("need one amplitude per frequency, frequencies "
                                      "increasing strictly within 1..n_stored")
        freqs, amps = freqs[amps != 0], amps[amps != 0]
        if not np.all(np.isfinite(amps)):
            raise ConstraintViolation("coefficients must all be finite")
        if tag not in TAGS:
            raise ConstraintViolation(f"unknown tag {tag!r}, expected one of {TAGS}")
        if tag in ("monotone", "lacunary") and amps.size and amps.min() < 0:
            raise ConstraintViolation(f"{tag} series requires non-negative coefficients")
        # non-negative and non-increasing means support 1..m with non-increasing amps
        if tag == "monotone" and freqs.size and (freqs[-1] != freqs.size
                                                 or np.any(np.diff(amps) > 0)):
            raise ConstraintViolation("monotone series requires non-increasing coefficients")
        if tag == "lacunary":
            if np.any(freqs & (freqs - 1)):
                raise ConstraintViolation("lacunary series must vanish off powers of two")
            if tail is not None:
                raise ConstraintViolation("a dense power-law tail is incompatible with lacunarity")
        freqs.setflags(write=False)
        amps.setflags(write=False)
        for name, value in (("freqs", freqs), ("amps", amps), ("n_stored", int(n_stored)),
                            ("tag", tag), ("tail", tail)):
            object.__setattr__(self, name, value)

    @property
    def coeffs(self) -> np.ndarray:
        """Dense read-only a_1..a_N, built on each access."""
        return self.coeffs_upto(self.n_stored)

    @property
    def max_freq(self) -> int:
        """Largest stored frequency with a nonzero coefficient (0 for the zero series)."""
        return int(self.freqs[-1]) if self.freqs.size else 0

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(frequencies, coefficients) of the nonzero stored part, ascending and read-only."""
        return self.freqs, self.amps

    def coeff(self, nu: int) -> float:
        """a_nu, consulting the tail model beyond the stored range."""
        if nu < 1:
            raise DomainError("frequencies start at nu = 1")
        if nu > self.n_stored:
            return self.tail.coeff(nu) if self.tail is not None else 0.0
        i = int(np.searchsorted(self.freqs, nu))
        return float(self.amps[i]) if i < self.freqs.size and self.freqs[i] == nu else 0.0

    def coeffs_upto(self, n: int) -> np.ndarray:
        """Dense read-only a_1..a_n, extending via the tail model when n exceeds storage."""
        if n > DENSE_LIMIT:
            raise DomainError(f"{n} dense coefficients exceed the limit of {DENSE_LIMIT} entries")
        out = np.zeros(n)
        m = np.searchsorted(self.freqs, n, side="right")
        out[self.freqs[:m] - 1] = self.amps[:m]
        if self.tail is not None and n > self.n_stored:
            out[self.n_stored:] = self.tail.coeffs(np.arange(self.n_stored + 1, n + 1))
        out.setflags(write=False)
        return out

    def lacunary_view(self) -> np.ndarray:
        """Level-indexed coefficients a_mu (frequency 2**mu) of a lacunary series."""
        if self.tag != "lacunary":
            raise TagError(f"lacunary view requires tag 'lacunary', got {self.tag!r}")
        out = np.zeros(self.n_stored.bit_length())
        out[[int(nu).bit_length() - 1 for nu in self.freqs]] = self.amps
        return out

    def scaled(self, c: float) -> "CosineSeries":
        if c < 0:
            raise DomainError("scaling that preserves the tag requires c >= 0")
        tail = PowerLawTail(c * self.tail.c, self.tail.s) if self.tail is not None else None
        return CosineSeries.from_support(self.freqs, c * self.amps, self.n_stored,
                                         tag=self.tag, tail=tail)


def power_law_series(s: float, n_terms: int, with_tail: bool = True) -> CosineSeries:
    """Monotone series a_nu = nu**(-s), stored to n_terms, optionally with analytic tail."""
    nus = np.arange(1, n_terms + 1, dtype=float)
    tail = PowerLawTail(1.0, s) if with_tail else None
    return CosineSeries(nus ** (-s), tag="monotone", tail=tail)


def _check_levels(levels: int) -> None:
    if levels > 63:
        raise DomainError(f"{levels} levels need frequency 2**{levels - 1}, beyond int64")


def lacunary_series(mu_coeffs) -> CosineSeries:
    """Lacunary series from level-indexed coefficients a_mu, stored as a support."""
    mu_coeffs = np.asarray(mu_coeffs, dtype=float)
    levels = mu_coeffs.size
    _check_levels(levels)
    return CosineSeries.from_support(2 ** np.arange(levels, dtype=np.int64), mu_coeffs,
                                     2 ** (levels - 1) if levels else 0, tag="lacunary")


def lacunary_geometric_series(ratio: float, levels: int) -> CosineSeries:
    """Lacunary series with a_mu = ratio**mu for mu = 0..levels-1."""
    if not (0 < ratio < 1):
        raise DomainError("geometric ratio must lie in (0, 1)")
    _check_levels(levels)
    return lacunary_series(ratio ** np.arange(levels, dtype=float))


def random_bandlimited_series(rng: np.random.Generator, max_freq: int = 64) -> CosineSeries:
    """General-tag series with i.i.d. uniform coefficients on frequencies 1..max_freq."""
    if max_freq < 0:
        raise DomainError(f"max_freq must be non-negative, got {max_freq}")
    return CosineSeries(rng.random(max_freq), tag="general")


@dataclass(frozen=True)
class ClassParams:
    """Smoothness-class parameters (p, theta, r, lambda, k) with k > r + lambda,
    checked on construction and stored as four floats and an int k."""

    p: float
    theta: float
    r: float
    lam: float
    k: int

    def __post_init__(self):
        p, theta, r, lam, k = self.p, self.theta, self.r, self.lam, self.k
        if not is_order(k):
            raise ConstraintViolation(f"k must be a positive integer, got {k!r}")
        for name, val in (("p", p), ("theta", theta), ("r", r), ("lambda", lam)):
            if not (isinstance(val, (int, float, np.floating, np.integer)) and math.isfinite(val)):
                raise ConstraintViolation(f"{name} must be a finite real, got {val!r}")
        if not (1.0 < p < math.inf):
            raise ConstraintViolation(f"p must lie in (1, inf), got {p}")
        if theta <= 0 or r <= 0 or lam <= 0:
            raise ConstraintViolation("theta, r and lambda must be positive")
        if not (k > r + lam):
            raise ConstraintViolation(f"need k > r + lambda, got k={k} <= {r + lam}")
        for name, val in zip(("p", "theta", "r", "lam", "k"), (p, theta, r, lam, k)):
            object.__setattr__(self, name, int(val) if name == "k" else float(val))


def validate_params(p: float, theta: float, r: float, lam: float, k: int) -> ClassParams:
    """Check the class-parameter constraints; return a ClassParams on success."""
    return ClassParams(p, theta, r, lam, k)


_INV_E = 1.0 / math.e


@dataclass(frozen=True)
class MajorantPhi:
    """Majorant from the closed catalog {delta**alpha, 1, (ln 1/delta)**(-alpha), tabulated}.

    The inverse-log kind is clamped to 1 on [1/e, 1) so it stays bounded and
    quasi-monotone on all of (0, 1).
    """

    kind: str
    alpha: float | None = None
    table: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in PHI_KINDS:
            raise ConstraintViolation(f"unknown majorant kind {self.kind!r}")
        if self.kind in ("power", "inv_log"):
            if self.alpha is None or not (math.isfinite(self.alpha) and self.alpha > 0):
                raise ConstraintViolation(f"kind {self.kind!r} needs alpha > 0")
        if self.kind == "tabulated":
            if self.table is None:
                raise ConstraintViolation("tabulated majorant needs a (deltas, values) table")
            deltas = np.asarray(self.table[0], dtype=float)
            values = np.asarray(self.table[1], dtype=float)
            if deltas.shape != values.shape or deltas.ndim != 1 or deltas.size < 2:
                raise ConstraintViolation("table must be two equal-length 1-D arrays")
            if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(values))):
                raise ConstraintViolation("table abscissae and values must be finite")
            if np.any(np.diff(deltas) <= 0) or deltas[0] <= 0 or deltas[-1] >= 1:
                raise ConstraintViolation("table abscissae must increase strictly inside (0, 1)")
            if np.any(values < 0) or not np.any(values > 0):
                raise ConstraintViolation("table values must be non-negative and not all zero")
            deltas.setflags(write=False)
            values.setflags(write=False)
            object.__setattr__(self, "table", (deltas, values))

    @classmethod
    def power(cls, alpha: float) -> "MajorantPhi":
        return cls("power", alpha=alpha)

    @classmethod
    def constant(cls) -> "MajorantPhi":
        return cls("constant")

    @classmethod
    def inv_log(cls, alpha: float) -> "MajorantPhi":
        return cls("inv_log", alpha=alpha)

    @classmethod
    def tabulated(cls, deltas, values) -> "MajorantPhi":
        return cls("tabulated", table=(np.asarray(deltas, float), np.asarray(values, float)))

    def __call__(self, delta: float) -> float:
        return phi_eval(self, delta)

    def label(self) -> str:
        if self.kind in ("power", "inv_log"):
            return f"{self.kind}({self.alpha:g})"
        return self.kind


def phi_eval(phi: MajorantPhi, delta: float) -> float:
    """Evaluate the majorant at a point of (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise DomainError(f"majorant argument must lie in (0, 1), got {delta}")
    if phi.kind == "power":
        return delta ** phi.alpha
    if phi.kind == "constant":
        return 1.0
    if phi.kind == "inv_log":
        if delta >= _INV_E:
            return 1.0
        return math.log(1.0 / delta) ** (-phi.alpha)
    deltas, values = phi.table
    if delta < deltas[0] or delta > deltas[-1]:
        raise DomainError(f"delta={delta} outside table range [{deltas[0]}, {deltas[-1]}]")
    return float(np.interp(delta, deltas, values))


def phi_values(phi: MajorantPhi, deltas: np.ndarray) -> np.ndarray:
    return np.array([phi_eval(phi, float(d)) for d in np.asarray(deltas, dtype=float)])


@dataclass(frozen=True)
class PhiCheckReport:
    c1: float
    c2: float
    passed: bool


def phi_property_check(phi: MajorantPhi, grid_size: int = 256) -> PhiCheckReport:
    """Smallest empirical quasi-monotonicity (C1) and doubling (C2) constants on a grid.

    C1 is the largest phi(d1)/phi(d2) over grid pairs d1 <= d2; C2 the largest
    phi(2 d)/phi(d) over grid points d <= 1/2.  Both are computed on a geometric
    delta-grid of the requested size over [1e-8, 0.999], cut to a table's range.
    """
    if grid_size < 16:
        raise DomainError("grid_size must be at least 16")
    delta_min, delta_max = 1e-8, 0.999
    if phi.kind == "tabulated":
        deltas_tab = phi.table[0]
        delta_min = max(delta_min, float(deltas_tab[0]))
        delta_max = min(delta_max, float(deltas_tab[-1]))
    grid = np.geomspace(delta_min, delta_max, grid_size)
    vals = phi_values(phi, grid)

    # quasi-monotonicity: divide each value by the running minimum to its right
    suffix_min = np.minimum.accumulate(vals[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(suffix_min > 0, vals / suffix_min, np.inf)
        ratios = np.where((vals == 0) & (suffix_min == 0), 1.0, ratios)
    c1 = float(np.max(ratios)) if ratios.size else 1.0

    doubling_pts = grid[(grid <= 0.5) & (2 * grid < delta_max)]
    if phi.kind == "tabulated":
        doubling_pts = doubling_pts[2 * doubling_pts <= phi.table[0][-1]]
    c2 = 1.0
    for d in doubling_pts:
        lo, hi = phi_eval(phi, float(d)), phi_eval(phi, float(2 * d))
        c2 = max(c2, hi / lo if lo > 0 else (math.inf if hi > 0 else 1.0))
    return PhiCheckReport(c1=c1, c2=c2, passed=math.isfinite(c1) and math.isfinite(c2))


@dataclass(frozen=True)
class GridFunction:
    """Uniform samples of a 2*pi-periodic function at x_j = 2*pi*j/N."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float, copy=True)
        if samples.ndim != 1:
            raise ConstraintViolation("samples must be one-dimensional")
        n = samples.size
        if n < 8 or n & (n - 1):
            raise ConstraintViolation(f"grid size must be a power of two >= 8, got {n}")
        if not np.all(np.isfinite(samples)):
            raise ConstraintViolation("samples must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def size(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class FunctionalCurve:
    """Sampled map n -> value for one of the class functionals."""

    ns: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ns = np.array(self.ns, dtype=np.int64, copy=True)
        values = np.array(self.values, dtype=float, copy=True)
        if ns.ndim != 1 or values.ndim != 1 or ns.size != values.size:
            raise ConstraintViolation("ns and values must be 1-D of equal length")
        if ns.size == 0:
            raise ConstraintViolation("a functional curve needs at least one entry")
        if ns[0] < 1 or np.any(np.diff(ns) <= 0):
            raise ConstraintViolation("n values must be positive and strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ConstraintViolation("curve values must be finite and non-negative")
        ns.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.ns.size)

    @property
    def entries(self) -> list[tuple[int, float]]:
        return [(int(n), float(v)) for n, v in zip(self.ns, self.values)]

    def ratio_against(self, phi: MajorantPhi) -> np.ndarray:
        """value(n) / phi(1/n) per entry."""
        phis = phi_values(phi, 1.0 / self.ns.astype(float))
        if np.any(phis == 0):
            raise DivideByZeroError("majorant vanishes at a curve point")
        return self.values / phis
