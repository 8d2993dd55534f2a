"""Brute-force verification of the discrete weighted-sum inequalities: the
power-mean (Jensen) inequality, Hardy-type upper/lower bounds for weighted
head/tail sums, their reverse (Copson/Leindler-type) forms for monotone
sequences with shifted index ranges, and the two-sided asymptotic form.

Every checker evaluates both sides of its inequality by direct summation
(inner sums as sequential cumulative sums, outer sums exactly rounded via
math.fsum) and reports the empirical ratio lhs/rhs.  The inequalities'
constants are existential and depend only on (alpha, lambda, p); sweeps
therefore track ratio stability, never a specific constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PreconditionError

DIRECTION_LOWER = "lower"   # lhs >= c * rhs; the empirical constant is a min over sweeps
DIRECTION_UPPER = "upper"   # lhs <= C * rhs; the empirical constant is a max over sweeps


@dataclass(frozen=True)
class IneqCase:
    """One inequality instance: a non-negative sequence plus (alpha, lambda, p, m, n)."""

    seq: np.ndarray
    alpha: float
    lam_exp: float
    p: float
    m: int
    n: int

    def __post_init__(self):
        seq = np.array(self.seq, dtype=float, copy=True)
        if seq.ndim != 1:
            raise DomainError("sequence must be one-dimensional")
        if seq.size < self.n:
            raise DomainError(f"sequence holds {seq.size} terms, case needs n = {self.n}")
        if seq.size and (not np.all(np.isfinite(seq)) or seq.min() < 0):
            raise DomainError("sequence terms must be finite and non-negative")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise DomainError(f"p must be positive, got {self.p}")
        if self.m < 1 or self.n < 1:
            raise DomainError("m and n must be positive integers")
        seq.setflags(write=False)
        object.__setattr__(self, "seq", seq)


@dataclass(frozen=True)
class IneqVerdict:
    lhs: float
    rhs: float
    ratio: float
    direction: str
    clause: str = ""


def _ratio(lhs: float, rhs: float) -> float:
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def _verdict(lhs, rhs, direction, clause=""):
    return IneqVerdict(lhs=lhs, rhs=rhs, ratio=_ratio(lhs, rhs), direction=direction,
                       clause=clause)


def _weighted(seq: np.ndarray, lam_exp: float, lo: int, n: int) -> np.ndarray:
    nus = np.arange(lo, n + 1, dtype=float)
    return seq[lo - 1: n] * nus ** lam_exp


def _suffix_sums(seq, lam_exp, lo, n):
    """S_mu = sum_{nu=mu}^{n} a_nu nu^lambda for mu = lo..n."""
    w = _weighted(seq, lam_exp, lo, n)
    return np.cumsum(w[::-1])[::-1]


def _prefix_sums(seq, lam_exp, lo, n):
    """P_mu = sum_{nu=lo}^{mu} a_nu nu^lambda for mu = lo..n."""
    return np.cumsum(_weighted(seq, lam_exp, lo, n))


def _outer(mus: np.ndarray, weight_exp: float, inner: np.ndarray, p: float) -> float:
    return math.fsum((mus ** weight_exp * inner ** p).tolist())


def _reference(case: IneqCase, mus: np.ndarray, weight_exp: float) -> float:
    a = case.seq[mus.astype(int) - 1]
    return math.fsum((mus ** weight_exp * (a * mus ** (case.lam_exp + 1.0)) ** case.p).tolist())


def check_jensen(seq, alpha: float, beta: float) -> IneqVerdict:
    """(sum a^beta)^(1/beta) <= (sum a^alpha)^(1/alpha) for 0 < alpha < beta.

    Constant-free: the empirical ratio never exceeds 1.
    """
    if not (0.0 < alpha < beta < math.inf):
        raise DomainError(f"need 0 < alpha < beta, got alpha={alpha}, beta={beta}")
    seq = np.asarray(seq, dtype=float)
    if seq.size and (not np.all(np.isfinite(seq)) or seq.min() < 0):
        raise DomainError("sequence terms must be finite and non-negative")
    lhs = math.fsum((seq ** beta).tolist()) ** (1.0 / beta)
    rhs = math.fsum((seq ** alpha).tolist()) ** (1.0 / alpha)
    return _verdict(lhs, rhs, DIRECTION_UPPER)


def _require_variant(variant: str) -> None:
    if variant not in ("tail", "head"):
        raise DomainError(f"variant must be 'tail' or 'head', got {variant!r}")


def _inner_and_weight(case: IneqCase, variant: str, lo: int) -> tuple[np.ndarray, float]:
    """Inner sums over [lo, n] and the outer weight exponent of a variant.

    tail: suffix sums with weight mu^{a-1}; head: prefix sums with weight mu^{-a-1}.
    """
    if variant == "tail":
        return _suffix_sums(case.seq, case.lam_exp, lo, case.n), case.alpha - 1.0
    return _prefix_sums(case.seq, case.lam_exp, lo, case.n), -case.alpha - 1.0


def _check_hardy(case: IneqCase, variant: str, direction: str, clause: str) -> IneqVerdict:
    _require_variant(variant)
    if not case.m < case.n:
        raise DomainError("need m < n")
    mus = np.arange(case.m, case.n + 1, dtype=float)
    inner, w = _inner_and_weight(case, variant, case.m)
    lhs = _outer(mus, w, inner, case.p)
    rhs = _reference(case, mus, w)
    return _verdict(lhs, rhs, direction, clause=clause)


def check_hardy_upper(case: IneqCase, variant: str = "tail") -> IneqVerdict:
    """Hardy-type upper bound, p >= 1.

    tail: sum_{mu=m}^{n} mu^{a-1} (sum_{nu=mu}^{n} a_nu nu^l)^p <= C * same with a_mu mu^{l+1};
    head: the mu^{-a-1} variant with inner sums from m up to mu.
    """
    if case.p < 1.0:
        raise DomainError(f"upper Hardy bound needs p >= 1, got {case.p}")
    return _check_hardy(case, variant, DIRECTION_UPPER, "p>=1")


def check_hardy_lower(case: IneqCase, variant: str = "tail") -> IneqVerdict:
    """Hardy-type lower bound, 0 < p <= 1: the same sums with the inequality reversed."""
    if not (0.0 < case.p <= 1.0):
        raise DomainError(f"lower Hardy bound needs 0 < p <= 1, got {case.p}")
    return _check_hardy(case, variant, DIRECTION_LOWER, "0<p<=1")


def _require_monotone(seq: np.ndarray) -> None:
    if np.any(np.diff(seq) > 0):
        raise PreconditionError("reverse inequality requires a non-increasing sequence")


def check_reverse_copson(case: IneqCase, variant: str = "tail",
                         require_monotone: bool = True) -> IneqVerdict:
    """Reverse Copson/Leindler-type inequality for monotone sequences.

    The index ranges are shifted exactly as stated: for p >= 1 (requires n >= 16m)
    the reference sum starts at 8m (tail) or 4m (head) and the bound is from below;
    for 0 < p <= 1 (requires n >= 4m) the shifted sums start at 4m and the bound
    is from above.  ``require_monotone=False`` lets adversarial (non-monotone)
    negative controls run; their ratios carry no guarantee.
    """
    _require_variant(variant)
    if require_monotone:
        _require_monotone(case.seq)
    is_tail = variant == "tail"
    mus_full = np.arange(case.m, case.n + 1, dtype=float)
    if case.p >= 1.0:
        if case.n < 16 * case.m:
            raise PreconditionError(f"p >= 1 clause needs n >= 16m, got n={case.n}, m={case.m}")
        inner, w = _inner_and_weight(case, variant, case.m)
        lhs = _outer(mus_full, w, inner, case.p)
        mus_ref = np.arange((8 if is_tail else 4) * case.m, case.n + 1, dtype=float)
        rhs = _reference(case, mus_ref, w)
        clause = "p>=1 n>=16m ref-from-8m" if is_tail else "p>=1 n>=16m ref-from-4m"
        return _verdict(lhs, rhs, DIRECTION_LOWER, clause=clause)

    if case.n < 4 * case.m:
        raise PreconditionError(f"0 < p <= 1 clause needs n >= 4m, got n={case.n}, m={case.m}")
    mus_shift = np.arange(4 * case.m, case.n + 1, dtype=float)
    inner, w = _inner_and_weight(case, variant, 4 * case.m)
    lhs = _outer(mus_shift, w, inner, case.p)
    rhs = _reference(case, mus_full, w)
    clause = "0<p<=1 n>=4m lhs-from-4m" if is_tail else "0<p<=1 n>=4m sums-from-4m"
    return _verdict(lhs, rhs, DIRECTION_UPPER, clause=clause)


def check_two_sided_asymp(case: IneqCase, variant: str = "tail") -> tuple[IneqVerdict, IneqVerdict]:
    """Two-sided bound for monotone sequences, sums running from mu = 1 to n.

    Returns (lower, upper) verdicts sharing the ratio middle/reference, whose
    min and max across sweeps bracket the existential constants.
    """
    _require_variant(variant)
    _require_monotone(case.seq)
    mus = np.arange(1, case.n + 1, dtype=float)
    inner, w = _inner_and_weight(case, variant, 1)
    middle = _outer(mus, w, inner, case.p)
    ref = _reference(replace(case, m=1), mus, w)
    lower = _verdict(middle, ref, DIRECTION_LOWER)
    upper = _verdict(middle, ref, DIRECTION_UPPER)
    return lower, upper


# ---------------------------------------------------------------------------
# sequence families and canonical sweeps
# ---------------------------------------------------------------------------

def power_sequence(n: int, s: float = 2.0) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float) ** (-s)


def geometric_sequence(n: int, q: float = 0.9) -> np.ndarray:
    return q ** np.arange(n, dtype=float)


def log_power_sequence(n: int, s: float = 1.5) -> np.ndarray:
    nus = np.arange(1, n + 1, dtype=float)
    return nus ** (-s) / (1.0 + np.log(nus))


def random_monotone_sequence(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-increasing sequence: running maxima of i.i.d. uniforms, read backwards."""
    return np.maximum.accumulate(rng.random(n))[::-1].copy()


def case_rng(base_seed: int, index: int) -> np.random.Generator:
    """Per-case generator so sweep results are independent of scheduling."""
    return np.random.default_rng(np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)))


SEQUENCE_FAMILIES = {
    "power": power_sequence,
    "geometric": geometric_sequence,
    "log_power": log_power_sequence,
}

#: (alpha, lambda_exponent, p) triples of the canonical monotone sweep (all p >= 1)
CANONICAL_TRIPLES = ((1.0, 0.0, 2.0), (0.5, -0.25, 1.0), (2.0, 0.5, 3.0))
CANONICAL_M_VALUES = (1, 2, 4)
CANONICAL_N_FACTORS = (16, 32, 64)


def canonical_copson_sweep() -> list[tuple[str, IneqVerdict]]:
    """Deterministic reverse-Copson sweep: 3 families x 3 triples x m x n x variants.

    The minimum ratio over this sweep is frozen as a regression bound; the sweep
    is RNG-free, so reruns reproduce it exactly.
    """
    rows = []
    for fam_name, fam in sorted(SEQUENCE_FAMILIES.items()):
        for alpha, lam_exp, p in CANONICAL_TRIPLES:
            for m in CANONICAL_M_VALUES:
                for factor in CANONICAL_N_FACTORS:
                    n = factor * m
                    seq = fam(n)
                    case = IneqCase(seq=seq, alpha=alpha, lam_exp=lam_exp, p=p, m=m, n=n)
                    for variant in ("tail", "head"):
                        tag = f"{fam_name},a={alpha:g},l={lam_exp:g},p={p:g},m={m},n={n},{variant}"
                        rows.append((tag, check_reverse_copson(case, variant)))
    return rows
