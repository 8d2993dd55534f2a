"""Brute-force verification of the discrete weighted-sum inequalities: the
power-mean (Jensen) inequality, Hardy-type upper/lower bounds for weighted
head/tail sums, their reverse (Copson/Leindler-type) forms for monotone
sequences with shifted index ranges, and the two-sided asymptotic form.

Every checker evaluates both sides of its inequality by direct summation (inner
sums as sequential cumulative sums, outer sums as certified batched sums that are
bit for bit math.fsum, with math.fsum as their fallback) and reports the empirical
ratio lhs/rhs.  The checkers are one-case calls of the block kernels that
``ineq-sweep`` runs.  The inequalities' constants are existential and depend only
on (alpha, lambda, p); sweeps therefore track ratio stability, never a specific
constant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PreconditionError

DIRECTION_LOWER = "lower"   # lhs >= c * rhs; the empirical constant is a min over sweeps
DIRECTION_UPPER = "upper"   # lhs <= C * rhs; the empirical constant is a max over sweeps

_BATCH = 2 ** 15            # entries of one stacked matrix of terms
_SUM_LIMIT = 2.0 ** 1020    # a certified sum stays below this, so nothing overflows


def check_parameters(alpha: float, p: float, m: int, n: int) -> None:
    """The checks IneqCase makes on its scalars, after those on its sequence."""
    if not (alpha > 0 and math.isfinite(alpha)):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not (p > 0 and math.isfinite(p)):
        raise DomainError(f"p must be positive, got {p}")
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive integers")


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
        check_parameters(self.alpha, self.p, self.m, self.n)
        seq.setflags(write=False)
        object.__setattr__(self, "seq", seq)


@dataclass(frozen=True)
class IneqVerdict:
    lhs: float
    rhs: float
    ratio: float
    direction: str
    clause: str = ""


def _verdict(lhs, rhs, direction, clause=""):
    ratio = lhs / rhs if rhs > 0.0 else (0.0 if lhs == 0.0 else math.inf)
    return IneqVerdict(lhs=lhs, rhs=rhs, ratio=ratio, direction=direction, clause=clause)


def _exact_sums(terms: np.ndarray) -> np.ndarray:
    """math.fsum of every column of a 2-D float array, bit for bit.

    Non-negative columns are folded in halves with Fast2Sum, and the exact errors are
    carried in a second array.  r = fl(hi + lo) is accepted when d = (hi - r) + lo,
    widened by 64 times the carried array's rounding bound 2 levels^2 u^2 hi, lies
    strictly inside r's half-gaps; other columns (ties, zero sums, negative or
    non-finite terms, overflow) take math.fsum, which also raises where it raises.
    """
    terms = np.asarray(terms, dtype=float)
    width, k = terms.shape
    if width < 2 or not terms.min(initial=0.0) >= 0.0:
        return np.array([math.fsum(col.tolist()) for col in terms.T])
    size = 1 << (width - 1).bit_length()
    hi = terms if size == width else np.concatenate((np.zeros((size - width, k)), terms))
    lo, levels = None, size.bit_length() - 1
    with np.errstate(over="ignore", invalid="ignore"):
        while len(hi) > 1:
            h = len(hi) // 2
            big, small = np.maximum(hi[:h], hi[h:]), np.minimum(hi[:h], hi[h:])
            hi = big + small
            big -= hi                 # exact, and small + (big - hi) is the error of hi
            small += big
            if lo is not None:
                small += lo[:h]
                small += lo[h:]
            lo = small
        hi, lo = hi[0], lo[0]
        r = hi + lo
        slack = np.abs(lo - (r - hi))   # |d|, exact (Fast2Sum) since |lo| <= hi
        slack = 2.0 * (slack + (hi * (levels * levels * 2.0 ** -99) + slack * 2.0 ** -50))
        ok = ((hi < _SUM_LIMIT) & (r != 0.0) & (slack < np.nextafter(r, math.inf) - r)
              & (slack < r - np.nextafter(r, -math.inf)))
    for j in np.flatnonzero(~ok):
        r[j] = math.fsum(terms[:, j].tolist())
    return r


def _sums(rows, count: int, width: int) -> list[float]:
    """Exact sums of count rows (offset, values ending at width), as the columns of
    matrices of at most _BATCH entries, zero-padded at the top to a power-of-two height."""
    out, size = np.empty(count), 1 << max(width - 1, 0).bit_length()
    per = max(1, min(count, _BATCH // size))
    terms = np.zeros((size, per))
    j = done = 0
    for offset, values in rows:
        terms[:size - width + offset, j] = 0.0
        terms[size - width + offset:, j] = values
        j += 1
        if j == per or done + j == count:
            out[done:done + j] = _exact_sums(terms[:, :j])
            done, j = done + j, 0
    return out.tolist()


def jensen_verdicts(cases) -> list[IneqVerdict]:
    """check_jensen over (seq, alpha, beta) cases, with their sums batched."""
    checked = []
    for seq, alpha, beta in cases:
        if not (0.0 < alpha < beta < math.inf):
            raise DomainError(f"need 0 < alpha < beta, got alpha={alpha}, beta={beta}")
        seq = np.asarray(seq, dtype=float)
        if seq.size and (not np.all(np.isfinite(seq)) or seq.min() < 0):
            raise DomainError("sequence terms must be finite and non-negative")
        checked.append((seq, alpha, beta))
    width = max((seq.size for seq, _, _ in checked), default=0)
    rows = ((width - seq.size, seq ** e) for seq, alpha, beta in checked for e in (beta, alpha))
    sums = _sums(rows, 2 * len(checked), width)
    return [_verdict(sums[2 * i] ** (1.0 / beta), sums[2 * i + 1] ** (1.0 / alpha),
                     DIRECTION_UPPER) for i, (_, alpha, beta) in enumerate(checked)]


def check_jensen(seq, alpha: float, beta: float) -> IneqVerdict:
    """(sum a^beta)^(1/beta) <= (sum a^alpha)^(1/alpha) for 0 < alpha < beta.

    Constant-free: the empirical ratio never exceeds 1.
    """
    return jensen_verdicts([(seq, alpha, beta)])[0]


def hardy_verdicts(n: int, variant: str, cases) -> list[IneqVerdict]:
    """Verdicts of (seq, alpha, lam_exp, p, clause) cases on mu = 1..n with one variant,
    whose inputs passed IneqCase's checks and ``clause``.  Taken in order of (seq,
    lambda, p, lo), each power and inner sum is built once, and every exponent is
    applied to a whole array as a scalar, exactly as for a single case."""
    tail = variant == "tail"
    nus = np.arange(1, n + 1, dtype=float)
    power = functools.cache(lambda e: nus ** e)
    order = sorted(range(len(cases)), key=lambda i: (id(cases[i][0]), *cases[i][2:4],
                                                     cases[i][4][0]))

    def rows():
        last = None
        for i in order:
            seq, alpha, lam, p, (lo, ref_lo, _, _) = cases[i]
            if last != (id(seq), lam, p, lo):
                last, weighted = (id(seq), lam, p, lo), seq[:n] * power(lam)
                # numpy's ** rounds reversed views (libm) and contiguous arrays (SIMD) apart
                inner = np.cumsum(weighted[::-1])[::-1][lo - 1:] if tail else np.cumsum(
                    weighted[lo - 1:])
                inner_p, base_p = inner ** p, (seq[:n] * power(lam + 1.0)) ** p
            mu_w = power(alpha - 1.0 if tail else -alpha - 1.0)
            yield lo - 1, mu_w[lo - 1:] * inner_p
            yield ref_lo - 1, mu_w[ref_lo - 1:] * base_p[ref_lo - 1:]

    sums, verdicts = _sums(rows(), 2 * len(cases), n), [None] * len(cases)
    for j, i in enumerate(order):
        verdicts[i] = _verdict(sums[2 * j], sums[2 * j + 1], *cases[i][4][2:])
    return verdicts


def non_increasing(seq: np.ndarray) -> bool:
    return not np.any(np.diff(seq) > 0)


LEMMAS = ("hardy_upper", "hardy_lower", "reverse_copson", "two_sided")


def clause(lemma: str, p: float, m: int, n: int, variant: str,
           monotone: bool) -> tuple[int, int, str, str]:
    """(lo, ref_lo, direction, clause) of a case of a lemma, after its checks in order: the
    lhs sums mu^w (inner sum from lo)^p over mu = lo..n, the reference mu^w (a_mu
    mu^{lambda+1})^p over mu = ref_lo..n."""
    if lemma == "hardy_upper" and p < 1.0:
        raise DomainError(f"upper Hardy bound needs p >= 1, got {p}")
    if lemma == "hardy_lower" and not (0.0 < p <= 1.0):
        raise DomainError(f"lower Hardy bound needs 0 < p <= 1, got {p}")
    if variant not in ("tail", "head"):
        raise DomainError(f"variant must be 'tail' or 'head', got {variant!r}")
    if lemma in ("hardy_upper", "hardy_lower"):
        if not m < n:
            raise DomainError("need m < n")
        return (m, m, DIRECTION_UPPER, "p>=1") if lemma == "hardy_upper" else (
            m, m, DIRECTION_LOWER, "0<p<=1")
    if not monotone:
        raise PreconditionError("reverse inequality requires a non-increasing sequence")
    if lemma == "two_sided":
        return 1, 1, "two-sided", ""
    tail, gap = variant == "tail", 16 if p >= 1.0 else 4
    if n < gap * m:
        raise PreconditionError(f"{'p >= 1' if gap == 16 else '0 < p <= 1'} clause needs "
                                f"n >= {gap}m, got n={n}, m={m}")
    if gap == 16:
        return (m, (8 if tail else 4) * m, DIRECTION_LOWER,
                "p>=1 n>=16m ref-from-8m" if tail else "p>=1 n>=16m ref-from-4m")
    return (4 * m, m, DIRECTION_UPPER,
            "0<p<=1 n>=4m lhs-from-4m" if tail else "0<p<=1 n>=4m sums-from-4m")


def _check(case: IneqCase, variant: str, lemma: str, monotone: bool = True) -> IneqVerdict:
    c = clause(lemma, case.p, case.m, case.n, variant, monotone)
    return hardy_verdicts(case.n, variant, [(case.seq, case.alpha, case.lam_exp, case.p, c)])[0]


def check_hardy_upper(case: IneqCase, variant: str = "tail") -> IneqVerdict:
    """Hardy-type upper bound, p >= 1.

    tail: sum_{mu=m}^{n} mu^{a-1} (sum_{nu=mu}^{n} a_nu nu^l)^p <= C * same with a_mu mu^{l+1};
    head: the mu^{-a-1} variant with inner sums from m up to mu.
    """
    return _check(case, variant, "hardy_upper")


def check_hardy_lower(case: IneqCase, variant: str = "tail") -> IneqVerdict:
    """Hardy-type lower bound, 0 < p <= 1: the same sums with the inequality reversed."""
    return _check(case, variant, "hardy_lower")


def check_reverse_copson(case: IneqCase, variant: str = "tail",
                         require_monotone: bool = True) -> IneqVerdict:
    """Reverse Copson/Leindler-type inequality for monotone sequences.

    The index ranges are shifted exactly as stated: for p >= 1 (requires n >= 16m)
    the reference sum starts at 8m (tail) or 4m (head) and the bound is from below;
    for 0 < p <= 1 (requires n >= 4m) the shifted sums start at 4m and the bound
    is from above.  ``require_monotone=False`` lets adversarial (non-monotone)
    negative controls run; their ratios carry no guarantee.
    """
    return _check(case, variant, "reverse_copson",
                  not require_monotone or non_increasing(case.seq))


def check_two_sided_asymp(case: IneqCase, variant: str = "tail") -> tuple[IneqVerdict, IneqVerdict]:
    """Two-sided bound for monotone sequences, sums running from mu = 1 to n.

    Returns (lower, upper) verdicts sharing the ratio middle/reference, whose
    min and max across sweeps bracket the existential constants.
    """
    v = _check(case, variant, "two_sided", non_increasing(case.seq))
    return replace(v, direction=DIRECTION_LOWER), replace(v, direction=DIRECTION_UPPER)


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
