"""Synthesis of cosine series on grids, L_p quadrature norms, finite differences,
and the modulus of smoothness.

The k-th difference with step h acts on the harmonic cos(nu x) through the complex
multiplier (e^{i nu h} - 1)^k, whose modulus is (2 |sin(nu h / 2)|)^k.  All grid
evaluation goes through that multiplier applied to the exact coefficients (never
through sample interpolation), so the only quadrature error left downstream is the
rectangle rule itself, which is exact for bandlimited integrands at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .core import DENSE_LIMIT, CosineSeries, GridFunction
from .errors import AliasError, ConstraintViolation, DomainError

TWO_PI = 2.0 * math.pi

#: default spatial grid for quadrature (power of two)
DEFAULT_GRID_N = 4096
#: default number of shift samples on [0, t], both endpoints included
DEFAULT_H_SAMPLES = 257
#: modulus_p2_exact scans every shift row of supports up to this size
_EXACT_BLOCK = 64
#: entries in each block array of the p = 2 table kernel _p2_table
_BLOCK_ENTRIES = 2**14
#: buckets of equal width in nu t / 2 over (0, pi / 2] in the low band of the
#: modulus_p2_exact row bound
_RATIO_BUCKETS = 16
#: twice the bucket tops y_b = b pi / (2 _RATIO_BUCKETS), b = 1.._RATIO_BUCKETS
_TWO_Y = np.arange(1, _RATIO_BUCKETS + 1) * (math.pi / _RATIO_BUCKETS)
#: most shift samples accepted: the shift grid and the cached bucket ratios of
#: modulus_p2_exact then hold at most DENSE_LIMIT entries
MAX_H_SAMPLES = DENSE_LIMIT // _RATIO_BUCKETS + 1
#: relative slack on the row bounds of both moduli, so rounding cannot prune a row
#: that ties the best row evaluated so far
_BOUND_SLACK = 1e-9
#: the grid modulus evaluates the candidate rows at multiples of this many shifts first
#: and bounds the candidates between two of them from their values
_ANCHOR_STEP = 16


@dataclass(frozen=True)
class ModulusRequest:
    """Order, step bound, exponent and shift resolution for one modulus evaluation."""

    k: int
    t: float
    p: float
    h_samples: int = DEFAULT_H_SAMPLES

    def __post_init__(self):
        if not (isinstance(self.k, (int, np.integer)) and not isinstance(self.k, bool)
                and self.k >= 1):
            raise ConstraintViolation(f"difference order k must be a positive integer, got {self.k}")
        # t = 0 is allowed as the degenerate endpoint (the modulus is then 0)
        if not (0.0 <= self.t <= math.pi):
            raise ConstraintViolation(f"step bound t must lie in [0, pi], got {self.t}")
        if not (1.0 < self.p < math.inf):
            raise ConstraintViolation(f"exponent p must lie in (1, inf), got {self.p}")
        if not 16 <= self.h_samples <= MAX_H_SAMPLES:
            raise ConstraintViolation(f"h_samples must be at least 16 and at most {MAX_H_SAMPLES}")


def _check_grid(series: CosineSeries, n: int) -> None:
    """Raise unless n is a power of two from 8 to DENSE_LIMIT that holds the stored
    harmonics alias-free, before anything of size n is allocated."""
    if n < 8 or (n & (n - 1)) != 0:
        raise DomainError(f"grid size must be a power of two >= 8, got {n}")
    if n > DENSE_LIMIT:
        raise DomainError(f"grid size {n} exceeds the limit of {DENSE_LIMIT} points")
    if n <= 2 * series.max_freq:
        raise AliasError(
            f"grid size {n} cannot hold frequency {series.max_freq} (need n > {2 * series.max_freq})"
        )


def _series_spectrum(series: CosineSeries, n: int) -> np.ndarray:
    """rfft-layout spectrum of the stored part: bin nu holds N * a_nu / 2."""
    spec = np.zeros(n // 2 + 1, dtype=complex)
    freqs, amps = series.support()
    spec[freqs] = 0.5 * n * amps
    return spec


def auto_grid_size(series: CosineSeries, minimum: int = DEFAULT_GRID_N) -> int:
    """Smallest power of two >= minimum that holds the stored harmonics alias-free."""
    need = 2 * series.max_freq + 1
    n = max(minimum, 8)
    while n < need:
        n *= 2
    return n


def synthesize(series: CosineSeries, n: int) -> GridFunction:
    """Sample the stored part of the series at x_j = 2*pi*j/n.

    The analytic tail model is deliberately not synthesised; it only feeds
    coefficient-side computations.  Raises AliasError when n <= 2 * max stored
    frequency, since then the samples would alias, and DomainError above DENSE_LIMIT.
    """
    _check_grid(series, n)
    return GridFunction(np.fft.irfft(_series_spectrum(series, n), n=n))


def lp_norm(f: GridFunction, p: float) -> float:
    """Rectangle-rule L_p([0, 2*pi)) norm: (2*pi/N * sum |f_j|^p)^(1/p).

    Exact for trigonometric polynomials of degree d at p = 2 whenever N > 2d.
    """
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent p must lie in (1, inf), got {p}")
    s = np.sum(np.abs(f.samples) ** p)
    return float((TWO_PI / f.size * s) ** (1.0 / p))


def difference(f: GridFunction, h: float, k: int, series: CosineSeries | None = None) -> GridFunction:
    """k-th finite difference x -> sum_j (-1)^(k-j) C(k,j) f(x + j h) on the grid.

    When the originating series is supplied, the shifted values are resynthesised
    exactly from its coefficients; otherwise the grid is Fourier-interpolated.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise DomainError(f"difference order k must be a positive integer, got {k}")
    n = f.size
    if series is not None:
        _check_grid(series, n)
        spec = _series_spectrum(series, n)
    else:
        spec = np.fft.rfft(f.samples)
    out = np.fft.irfft(spec * (np.exp(1j * np.arange(n // 2 + 1) * h) - 1.0) ** k, n=n)
    return GridFunction(out)


def shift_grid(t: float, h_samples: int) -> np.ndarray:
    """Uniform shift samples on [0, t], both endpoints included."""
    return np.linspace(0.0, t, h_samples)


def modulus(series: CosineSeries, req: ModulusRequest, n: int = DEFAULT_GRID_N) -> float:
    """Grid modulus of smoothness: max over the shift grid of the L_p difference norm.

    Only h >= 0 is scanned; the norm of the k-th difference is even in h.

    The sup is certified rather than scanned.  The row h = t is evaluated on the
    grid first and every other row g = Delta_h^k f is bounded from its coefficients
    (_row_bounds).  The candidates are the rows whose bound, times 1 +
    _BOUND_SLACK, is not below that value.  Candidates at a multiple of
    _ANCHOR_STEP shifts are evaluated next, as anchors, with the row h = t.  Every
    other candidate h is also bounded by value(h0) + D for the evaluated anchors h0
    at the two ends of its block, D bounding Delta_h^k f - Delta_h0^k f: at k = 1
    by the bound of row |h - h0| / step, whose coefficient moduli it has, else by
    _difference_bounds.  Only candidates whose smallest bound reaches the best value
    so far are evaluated; the rest are provably lower, so the value is the grid sup.
    """
    if req.t == 0.0:
        return 0.0
    _check_grid(series, n)
    freqs, amps = series.support()
    if freqs.size == 0:
        return 0.0
    hs = shift_grid(req.t, req.h_samples)
    # rows per batch: about 2**22 complex spectrum entries at every grid size, and at
    # most 2**22 entries in each coefficient matrix, since n > 2 * freqs.size
    h_chunk = max(1, 2**23 // n)

    def norms(rows):
        return _in_batches(lambda h: _grid_norms(h, freqs, amps, req, n), h_chunk, hs[rows])

    last = hs.size - 1
    # NaN marks a row that is not evaluated
    values = np.full(hs.size, np.nan)
    values[last] = norms([last])[0]
    bound = _row_bounds(hs, freqs, amps, req, h_chunk)
    # a NaN or inf bound keeps its row
    cand = np.flatnonzero(~(bound * (1.0 + _BOUND_SLACK) < values[last]))
    anchors = cand[cand % _ANCHOR_STEP == 0]
    values[anchors] = norms(anchors)
    best = values[anchors].max(initial=values[last])
    others = cand[cand % _ANCHOR_STEP != 0]
    below = others - others % _ANCHOR_STEP
    offset = bound[:_ANCHOR_STEP].copy()  # bounds, not values: D's row is translated by h0
    for ends in (below, np.minimum(below + _ANCHOR_STEP, last)):
        near = ~np.isnan(values[ends])
        rows, anchor = others[near], ends[near]
        # overflow only loosens a neighbour bound to inf, or to NaN via 0 * inf, and
        # fmin then keeps the row's other bound
        with np.errstate(over="ignore", invalid="ignore"):
            diff = offset[np.abs(rows - anchor)] if req.k == 1 else _in_batches(
                lambda h, h0: _difference_bounds(h, h0, freqs, amps, req.k, req.p),
                h_chunk, hs[rows], hs[anchor])
            bound[rows] = np.fmin(bound[rows], values[anchor] + diff)
    kept = others[~(bound[others] * (1.0 + _BOUND_SLACK) < best)]
    return float(norms(kept).max(initial=best))


def _in_batches(fn, h_chunk: int, *rows: np.ndarray) -> np.ndarray:
    """fn(*batch) over consecutive batches of h_chunk entries of the equal-length arrays
    rows, concatenated; fn returns one value per entry."""
    out = np.empty(rows[0].size)
    for lo in range(0, out.size, h_chunk):
        out[lo: lo + h_chunk] = fn(*(r[lo: lo + h_chunk] for r in rows))
    return out


def _row_bounds(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray,
                req: ModulusRequest, h_chunk: int) -> np.ndarray:
    """_holder_bounds of the rows hs[:-1] of shift_grid(req.t, req.h_samples), with
    m_nu = |2 sin(nu h / 2)|^k.  Where nu t <= pi, m_nu <= rho^k m_nu(t) as in
    _p2_table; m_nu is evaluated for nu t > pi, in batches of h_chunk rows."""
    terms_t = _sin_form_terms(req.t, freqs, req.k)
    ends = np.searchsorted(freqs * req.t, _TWO_Y, side="right")  # ends[b] nu have nu t <= 2 y_b
    low, (l2_b, sup_b) = ends[-1], (
        np.diff(np.concatenate(([0.0], np.cumsum(x[:ends[-1]])))[ends], prepend=0.0)
        for x in (amps * amps * terms_t, np.abs(amps) * np.sqrt(terms_t)))
    ratios = _bucket_ratios(req.k, req.h_samples)
    return _in_batches(lambda h, l2, sup: _holder_bounds(
        _sin_form_terms(h, freqs[low:], req.k), amps[low:], req.p, l2, sup),
        h_chunk, hs[:-1], ratios @ l2_b, np.sqrt(ratios) @ sup_b)


def _grid_norms(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray,
                req: ModulusRequest, n: int) -> np.ndarray:
    """Rectangle-rule L_p norm of Delta_h^k f on the n-point grid, one per shift in hs."""
    mult = (np.exp(1j * np.outer(hs, freqs.astype(float))) - 1.0) ** req.k
    spec = np.zeros((hs.size, n // 2 + 1), dtype=complex)
    spec[:, freqs] = mult * (0.5 * n * amps)
    diffs = np.fft.irfft(spec, n=n, axis=-1)
    if req.p == 2.0:
        sums = np.einsum("ij,ij->i", diffs, diffs)
    else:
        # in place: the same values as np.abs(diffs) ** p without two fresh buffers
        np.abs(diffs, out=diffs)
        np.power(diffs, req.p, out=diffs)
        sums = np.sum(diffs, axis=-1)
    return (TWO_PI / n * sums) ** (1.0 / req.p)


def _difference_bounds(hs: np.ndarray, h0s: np.ndarray, freqs: np.ndarray,
                       amps: np.ndarray, k: int, p: float) -> np.ndarray:
    """Upper bound on the grid L_p norm of Delta_h^k f - Delta_h0^k f, one per pair of
    shifts (h, h0) in hs and h0s.

    With z = e^{i nu h} - 1 and w = e^{i nu h0} - 1, the coefficient of nu is
    a_nu (z^k - w^k) = a_nu (z - w) sum_j z^j w^(k-1-j), and |z - w| =
    |2 sin(nu (h - h0) / 2)|, so its modulus is at most |a_nu| times
    m_nu = |2 sin(nu (h - h0) / 2)| sum_j |2 sin(nu h / 2)|^j |2 sin(nu h0 / 2)|^(k-1-j).
    The half angles are the ones the grid rows are built from, so the sine of their
    difference bounds the rows as evaluated.
    """
    half = 0.5 * freqs
    z = np.multiply.outer(hs, half)
    w = np.multiply.outer(h0s, half)
    m = z - w
    for arg in (m, z, w):
        np.sin(arg, out=arg)
        np.abs(arg, out=arg)
        arg *= 2.0
    # M_1 = m and M_(j+1) = z M_j + m w^j give M_k = m sum_j z^j w^(k-1-j)
    mw = m.copy()
    for _ in range(k - 1):
        mw *= w
        m *= z
        m += mw
    np.multiply(m, m, out=m)
    return _holder_bounds(m, amps, p)


def _holder_bounds(sq: np.ndarray, amps: np.ndarray, p: float, l2_rest=0.0, sup_rest=0.0) -> np.ndarray:
    """Upper bound on the grid L_p norm of each real trigonometric polynomial whose
    coefficient of nu has modulus at most |a_nu| m_nu, from sq = m_nu^2 (one row per
    polynomial, overwritten), plus l2_rest and sup_rest, per-row bounds on the two
    sums below over the frequencies that sq leaves out.

    The grid holds every harmonic alias-free, so Parseval gives the grid L_2 norm
    exactly, ||g||_2 <= sqrt(pi sum a_nu^2 m_nu^2), and ||g||_inf <= sum |a_nu| m_nu.
    Discrete Hoelder on total measure 2 pi then gives
    ||g||_p <= ||g||_2^(2/p) ||g||_inf^(1 - 2/p) for p >= 2 and
    ||g||_p <= (2 pi)^(1/p - 1/2) ||g||_2 for p <= 2; at p = 2 the bound is the grid
    value itself when m_nu is the exact modulus, up to rounding.
    """
    l2 = np.sqrt(math.pi * (sq @ (amps * amps) + l2_rest))
    if p <= 2.0:
        return TWO_PI ** (1.0 / p - 0.5) * l2
    np.sqrt(sq, out=sq)
    return l2 ** (2.0 / p) * (sq @ np.abs(amps) + sup_rest) ** (1.0 - 2.0 / p)


def _sin_form_terms(hs: np.ndarray, freqs: np.ndarray, k: int, scale: int = 0) -> np.ndarray:
    """(2 sin(nu h / 2) 2^scale)^(2k), one row per shift h and one column per frequency nu.

    Built in place; the sin form avoids the cancellation of 2 - 2 cos(nu h) at
    small arguments.  The scale is applied after the sine, so it is exact.
    """
    arg = np.multiply.outer(hs, 0.5 * freqs)
    np.sin(arg, out=arg)
    if scale:
        np.ldexp(arg, scale, out=arg)
    np.multiply(arg, arg, out=arg)
    arg *= 4.0
    if k > 1:
        base = arg.copy()
        for _ in range(k - 1):
            arg *= base
    return arg


# one entry, since every caller holds k and h_samples fixed over a table; at most
# DENSE_LIMIT floats
@lru_cache(maxsize=1)
def _bucket_ratios(k: int, h_samples: int) -> np.ndarray:
    """Read-only rho^(2k) = (sin(lambda y_b) / sin(y_b))^(2k), one row per lambda =
    j / (h_samples - 1), j < h_samples - 1, and one column per bucket top y_b = _TWO_Y / 2.
    An underflowed denominator gives an inf or NaN ratio, whose rows are kept."""
    lam = np.arange(h_samples - 1) / (h_samples - 1)
    # with 2 y_b in place of the frequencies, _sin_form_terms gives (2 sin(lambda y_b))^(2k)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = _sin_form_terms(lam, _TWO_Y, k) / _sin_form_terms(1.0, _TWO_Y, k)
    ratios.setflags(write=False)
    return ratios


def _scaled_roots(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray, k: int) -> np.ndarray:
    """sqrt(pi g(h)) per shift h at any k: with x_nu = |a_nu|^(1/k) |2 sin(nu h / 2)| and
    M its largest, g = M^(2k) sum (x_nu / M)^(2k).  The sum lies in [1, N], so only terms
    below 2^-1022 of the largest underflow, and M^k overflows only where the value does."""
    x = np.abs(np.sin(np.multiply.outer(hs, 0.5 * freqs))) * (2.0 * np.abs(amps) ** (1.0 / k))
    top = x.max(axis=1, initial=np.finfo(float).tiny)  # a zero row (h = 0) then gives 0
    return np.sqrt(math.pi * ((x / top[:, None]) ** (2 * k)).sum(axis=1)) * top ** k


def modulus_p2_exact(series: CosineSeries, k: int, t: float,
                     h_samples: int = DEFAULT_H_SAMPLES) -> float:
    """Closed-form p = 2 modulus via Parseval, no spatial grid.

    sup over the shift grid of sqrt(pi * g(h)), g(h) = sum_nu a_nu^2 (2 sin(nu h / 2))^(2k).
    Serves as the oracle for the grid modulus at p = 2.  k, t and h_samples are
    checked as a ModulusRequest; a bad one raises DomainError with its message.

    From k = 512, where 4^k overflows, every row is scanned by _scaled_roots.  Below
    it, when t max_freq <= pi, every factor sin^2(nu h / 2) is non-decreasing on [0, t],
    so g peaks at h = t and that row alone is evaluated.  Otherwise supports of at most
    _EXACT_BLOCK frequencies are scanned in full, and wider ones are the one-t call of
    the table kernel _p2_table, which certifies the sup by bounds and a rotation screen.
    """
    try:
        ModulusRequest(k, t, 2.0, h_samples)
    except ConstraintViolation as exc:
        raise DomainError(str(exc)) from None
    if t == 0.0:
        return 0.0
    freqs, amps = series.support()
    if freqs.size == 0:
        return 0.0
    w = amps * amps
    if freqs[-1] * t <= math.pi and k < 512:
        # at tiny t the terms would be subnormal and lose digits.  The float sine is
        # the identity below 2^-26, so scaling the shift by 2^e, which takes
        # nu_max t into [2^-28, 2^-27), scales every sine factor by exactly 2^e; the
        # factors are then scaled by 2^27 after the sine, which puts the largest in
        # [1/2, 1), and the sup is scaled back by 2^(-k (e + 27))
        e = max(0, -27 - math.frexp(float(freqs[-1]) * t)[1])
        s = 27 if e else 0
        terms_t = _sin_form_terms(math.ldexp(t, e), freqs, k, s)
        return math.ldexp(math.sqrt(math.pi * float(terms_t @ w)), -k * (e + s))
    if k >= 512:  # 4^k overflows; rows per batch: at most 2**22 entries
        return float(_in_batches(lambda h: _scaled_roots(h, freqs, amps, k),
                                 max(1, 2**22 // freqs.size), shift_grid(t, h_samples)).max())
    if freqs.size <= _EXACT_BLOCK:
        return math.sqrt(math.pi * float((_sin_form_terms(shift_grid(t, h_samples), freqs, k)
                                          @ w).max()))
    return float(_p2_table(freqs, amps, k, np.array([t]), h_samples)[0])


def _p2_table(freqs: np.ndarray, amps: np.ndarray, k: int, ts: np.ndarray,
              h_samples: int) -> np.ndarray:
    """modulus_p2_exact at each t of ts (k < 512, and max_freq t >= 2^-28 so that no term
    needs scaling), in blocks of t whose arrays hold at most _BLOCK_ENTRIES entries.

    The h = t rows of a block are one sine matrix, each row summed by its own dot product
    (a matrix-vector product's rounding depends on the other rows); where t max_freq <= pi
    that row is the value.  Other rows h = lambda t are bounded from the h = t terms: for
    nu t <= pi by rho^(2k), rho = sin(lambda y) / sin(y) at the top of nu's bucket in
    y = nu t / 2 (it grows with y, as x cot x decreases on (0, pi)); above, by
    2 |sin(x / 2)| <= min(|x|, 2), plus 4 N 2^-53 of the larger prefix sum for rounding.
    Rows whose bound, times 1 + _BOUND_SLACK (which covers lambda = j / (h_samples - 1)
    too), reaches g(t) go to _screen; those it keeps take their sines."""
    w, f, n = amps * amps, freqs.astype(float), h_samples - 1
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its row
        head = np.concatenate(([0.0], np.cumsum(w * f ** (2 * k))))  # sum_{j < m} w_j f_j^(2k)
    tail = np.cumsum(np.append(w, 0.0)[::-1])[::-1]  # sum_{j >= m} w_j

    def block(ts):
        terms = _sin_form_terms(ts, freqs, k)
        top = np.array([row @ w for row in terms])
        pruned = f[-1] * ts > math.pi
        if not pruned.any():
            return np.sqrt(math.pi * top)
        grid = np.hstack((np.arange(n) * (ts / n)[:, None], ts[:, None]))  # shift_grid(ts[i])
        # low band: the first ends[:, b] nu have nu t <= 2 y_b (at most N - 1, since the high
        # band's bound holds for any nu); reduceat gives an empty bucket its first entry
        ends = np.minimum(np.searchsorted(f, _TWO_Y / ts[:, None], side="right"), f.size - 1)
        starts = np.hstack((0 * ends[:, :1], ends)) + f.size * np.arange(ts.size)[:, None]
        sums = np.add.reduceat((terms * w).ravel(), starts.ravel()).reshape(starts.shape)[:, :-1]
        sums[np.diff(starts) == 0] = 0.0
        bound = sums @ _bucket_ratios(k, h_samples).T
        # high band, for 0 < h < t: m is the first frequency at or above 2 / h and the band
        low, h = ends[:, -1:], grid[:, 1:-1]
        m = np.maximum(np.searchsorted(f, 2.0 / h), low)
        with np.errstate(over="ignore", invalid="ignore"):
            below = head[m] - head[low] + 4 * f.size * 2.0**-53 * head[m]
            bound[:, 1:] += h ** (2 * k) * below + 4.0 ** k * tail[m]
        cand = pruned[:, None] & ~(bound * (1.0 + _BOUND_SLACK) < top[:, None])
        if cand.any():
            _screen(freqs, w, k, ts, grid, cand, top)
        i, j = np.nonzero(cand)  # the rows left take their sines, _BLOCK_ENTRIES at a time
        np.maximum.at(top, i, _in_batches(lambda i, j: [row @ w for row in _sin_form_terms(
            grid[i, j], freqs, k)], max(1, _BLOCK_ENTRIES // f.size), i, j))
        return np.sqrt(math.pi * top)

    return _in_batches(block, max(1, _BLOCK_ENTRIES // max(freqs.size, h_samples)), ts)


def _screen(freqs: np.ndarray, w: np.ndarray, k: int, ts: np.ndarray, grid: np.ndarray,
            cand: np.ndarray, top: np.ndarray) -> None:
    """Clear each candidate row cand[i, j] of grid[i] = shift_grid(ts[i]) whose g(h) is
    provably below top[i].  z = e^(i nu h / 2) steps down from h = t by e^(-i nu step / 2),
    both from e^(i 64 q x) e^(i b x) (nu = 64 q + b), one sine and cosine per q and b.
    With those within 2^-48, Im z is within E = 2^-45 (2 (h_samples - 1) + nu_max t) of the
    row's own sine, so 4^k sum a_nu^2 (Im z^2 + E (2 + 3 E))^k bounds the row, up to
    4 (N + k + 1) 2^-53 for the rounding of either sum."""
    rows, n = np.flatnonzero(cand.any(axis=1)), grid.shape[1] - 1
    q, at = np.unique(freqs // 64, return_inverse=True)

    def cis(x):  # e^(i nu x), one row per entry of the column x
        return (np.take(np.exp(64j * x * q), at, axis=1)
                * np.take(np.exp(1j * x * np.arange(64)), freqs % 64, axis=1))

    z, rot = cis(0.5 * n * grid[rows, 1:2]), cis(-0.5 * grid[rows, 1:2])
    err = 2.0**-45 * (2 * n + freqs[-1] * ts[rows, None])
    slack = 4.0 ** k * (1.0 + _BOUND_SLACK + 4 * (freqs.size + k + 1) * 2.0**-53)
    for d in range(1, n - cand[rows].argmax(axis=1).min() + 1):
        z *= rot
        sq = np.square(z.imag) + err * (2.0 + 3.0 * err)
        cand[rows, n - d] &= ~(reduce(np.multiply, [sq] * k) @ w * slack < top[rows])
