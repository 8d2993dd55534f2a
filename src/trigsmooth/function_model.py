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

from .core import DENSE_LIMIT, CosineSeries, GridFunction, is_order
from .errors import AliasError, ConstraintViolation, DomainError

TWO_PI = 2.0 * math.pi

#: default spatial grid for quadrature (power of two)
DEFAULT_GRID_N = 4096
#: default number of shift samples on [0, t], both endpoints included
DEFAULT_H_SAMPLES = 257
#: modulus_p2_exact scans every shift row of supports up to this size
_EXACT_BLOCK = 64
#: entries in each block array of the table kernels _p2_table and _grid_table
_BLOCK_ENTRIES = 2**14
#: samples in each row batch of the grid kernel (rows times n) and of modulus_p2_exact's
#: high-order scan (rows times frequencies): a working set that stays in cache
_BATCH_SAMPLES = 2**17
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
        if not is_order(self.k):
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
    if not is_order(k):
        raise DomainError(f"difference order k must be a positive integer, got {k}")
    n = f.size
    if series is not None:
        _check_grid(series, n)
        spec = _series_spectrum(series, n)
    else:
        spec = np.fft.rfft(f.samples)
    out = np.fft.irfft(spec * (np.exp(1j * np.arange(n // 2 + 1) * h) - 1.0) ** k, n=n)
    return GridFunction(out)


def shift_grid(t, h_samples: int) -> np.ndarray:
    """Uniform shift samples on [0, t], both endpoints included; for an array t, one row per
    entry, each np.linspace's bit for bit wherever t / (h_samples - 1) is not 0."""
    if isinstance(t, np.ndarray):
        return np.hstack((np.arange(h_samples - 1) * (t / (h_samples - 1))[:, None], t[:, None]))
    return np.linspace(0.0, t, h_samples)


def modulus(series: CosineSeries, req: ModulusRequest, n: int = DEFAULT_GRID_N) -> float:
    """Grid modulus of smoothness: max over the shift grid of the L_p difference norm.

    Only h >= 0 is scanned; the norm of the k-th difference is even in h.  The sup is
    certified rather than scanned, by the one-t call of the table kernel _grid_table."""
    return 0.0 if req.t == 0.0 else float(_grid_table(series, req, np.array([req.t]), n)[0])


def _grid_table(series: CosineSeries, req: ModulusRequest, ts: np.ndarray, n: int) -> np.ndarray:
    """modulus(series, req, n) at each t > 0 of ts in place of req.t, bit for bit, in
    blocks of t whose bound arrays hold at most _BLOCK_ENTRIES entries; each stage below is
    one batched call for a block, and grid rows go max(1, _BATCH_SAMPLES // n) a batch (1 MiB
    of spectrum and 1 MiB of samples up to n = 2^17) through one spectrum buffer per call.

    The row h = t is evaluated on the grid first, and every other row g = Delta_h^k f is
    bounded from its coefficients (_row_bounds); the candidates are the rows whose bound,
    times 1 + _BOUND_SLACK, reaches that value.  Candidates at a multiple of _ANCHOR_STEP
    shifts are evaluated next, as anchors.  Every other candidate h is also bounded by
    value(h0) + D for the evaluated anchors h0 at the two ends of its block, D bounding
    Delta_h^k f - Delta_h0^k f: at k = 1 by the bound of row |h - h0| / step, whose
    coefficient moduli it has, else by _difference_bounds.  Only candidates whose smallest
    bound reaches the best value so far are evaluated; the rest are provably lower.  At
    p > 2 the sup factors are capped from L >= sup |f'| (_slope_bound).  Amplitudes past
    2^+-256 are scaled by a power of two, exactly, and the values are scaled back."""
    _check_grid(series, n)
    freqs, amps = series.support()
    if freqs.size == 0:
        return np.zeros(ts.size)
    scale = -math.frexp(float(np.abs(amps).max()))[1]
    amps = np.ldexp(amps, scale := scale if abs(scale) > 256 else 0)
    slope = math.ldexp(_slope_bound(series, n), scale) if req.p > 2.0 else math.inf
    last, h_chunk = req.h_samples - 1, max(1, min(_BATCH_SAMPLES // n, ts.size * req.h_samples))
    spec = np.zeros((h_chunk, n // 2 + 1), dtype=complex)

    def norms(hs):
        return _in_batches(lambda h: _grid_norms(h, freqs, amps, req, n, spec), h_chunk, hs)

    def block(ts):
        hs = shift_grid(ts, req.h_samples)
        # NaN marks a row that is not evaluated
        values = np.full(hs.shape, np.nan)
        values[:, last] = norms(ts)
        bound = _row_bounds(hs, freqs, amps, req, _BLOCK_ENTRIES, slope, values[:, last:])
        # a NaN or inf bound keeps its row
        i, j = np.nonzero(~(bound * (1.0 + _BOUND_SLACK) < values[:, last:]))
        at = j % _ANCHOR_STEP == 0
        values[i[at], j[at]] = norms(hs[i[at], j[at]])
        best = np.nanmax(values, axis=1)
        i, j = i[~at], j[~at]
        below = j - j % _ANCHOR_STEP
        offset = bound[:, :_ANCHOR_STEP].copy()  # bounds, not values: D's row is translated by h0
        for ends in (below, np.minimum(below + _ANCHOR_STEP, last)):
            near = ~np.isnan(values[i, ends])
            rows, cols, anchor = i[near], j[near], ends[near]
            # overflow only loosens a neighbour bound to inf, or to NaN via 0 * inf, and
            # fmin then keeps the row's other bound
            with np.errstate(over="ignore", invalid="ignore"):
                diff = offset[rows, np.abs(cols - anchor)] if req.k == 1 else _in_batches(
                    lambda h, h0: _difference_bounds(h, h0, freqs, amps, req.k, req.p, slope),
                    max(1, _BLOCK_ENTRIES // freqs.size), hs[rows, cols], hs[rows, anchor])
                bound[rows, cols] = np.fmin(bound[rows, cols], values[rows, anchor] + diff)
        kept = ~(bound[i, j] * (1.0 + _BOUND_SLACK) < best[i])
        np.maximum.at(best, i[kept], norms(hs[i[kept], j[kept]]))
        return best

    with np.errstate(over="ignore"):  # past the float range: inf
        return np.ldexp(_in_batches(
            block, max(1, _BLOCK_ENTRIES // max(freqs.size, req.h_samples)), ts), -scale)


def _in_batches(fn, h_chunk: int, *rows: np.ndarray) -> np.ndarray:
    """fn(*batch) over consecutive batches of h_chunk entries of the equal-length arrays
    rows, concatenated; fn returns one value per entry."""
    out = np.empty(rows[0].size)
    for lo in range(0, out.size, h_chunk):
        out[lo: lo + h_chunk] = fn(*(r[lo: lo + h_chunk] for r in rows))
    return out


def _tiny_scale(x, k: int):
    """s with 2^s x in [1/2, 1) where x < 2^-26 or x^(2k) may be below 2^-600, else 0, per entry
    of x >= nu_max h: the exact scale after the sine that keeps (2 sin(nu h / 2))^(2k) in range."""
    e = math.frexp(x)[1] if isinstance(x, float) else np.frexp(x)[1]  # math is faster on one
    return -e * ((e <= -26) | (k * e <= -300))


def _row_bounds(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray, req: ModulusRequest,
                h_chunk: int, slope: float = math.inf, floor=math.inf) -> np.ndarray:
    """_holder_bounds of the rows hs[..., :-1] of shift_grid(t, req.h_samples), one grid or
    one per row of a 2-D hs, with m_nu = |2 sin(nu h / 2)|^k and sup caps 2^(k-1) h slope.
    Where nu t <= pi, m_nu <= rho^k m_nu(t) as in _p2_table; above, _high_band bounds the
    sums, h_chunk rows a batch, and rows whose bound, times 1 + _BOUND_SLACK, reaches floor
    (one per grid) take their own m_nu there, h_chunk entries a batch.  Each grid's factors
    take _tiny_scale(nu_max t, k), and its bounds undo it; its high band is then empty."""
    grids = np.atleast_2d(hs)
    k, f, t, rows = req.k, freqs.astype(float), grids[:, -1], grids[:, :-1]
    s = _tiny_scale(f[-1] * t, k)
    w, a, ratios = amps * amps, np.abs(amps), _bucket_ratios(k, req.h_samples)
    # overflow (of (2 sin)^(2k), say) gives inf or NaN bounds, which keep their rows
    with np.errstate(over="ignore", invalid="ignore"):
        terms_t = _sin_form_terms(t, freqs, k, s[:, None])
        ends = np.searchsorted(f, _TWO_Y / t[:, None], side="right")  # nu t <= 2 y_b: ends[:, b] nu

        def buckets(x):  # x summed over each bucket, one row per grid
            sums = np.cumsum(np.hstack((np.zeros((t.size, 1)), x)), axis=1)
            return np.diff(np.take_along_axis(sums, ends, axis=1), axis=1, prepend=0.0)

        l2, sup = buckets(w * terms_t) @ ratios.T, buckets(a * np.sqrt(terms_t)) @ np.sqrt(ratios).T
        caps = np.ldexp(rows * slope, (k - 1 + k * s)[:, None])
        low = np.broadcast_to(ends[:, -1:], l2.shape)
        high_l2, high_sup = _high_band(f, w, 2 * k), _high_band(f, a, k)
        bound = _in_batches(lambda h, low, l2, sup, cap: _holder_bounds(  # no sq of its own
            np.zeros((h.size, 0)), amps[:0], req.p, l2 + high_l2(h, low), sup + high_sup(h, low),
            cap), h_chunk, *(x.ravel() for x in (rows, low, l2, sup, caps))).reshape(l2.shape)

        def exact(i, j):  # the high band's own m_nu
            sq = _sin_form_terms(rows[i, j], freqs, k)
            sq[np.arange(f.size) < low[i, j][:, None]] = 0.0
            return _holder_bounds(sq, amps, req.p, l2[i, j], sup[i, j], caps[i, j])

        i, j = np.nonzero(~(bound * (1.0 + _BOUND_SLACK) < floor) & (low < f.size))
        bound[i, j] = _in_batches(exact, max(1, h_chunk // f.size), i, j)
        bound = np.ldexp(bound, -k * s[:, None])
    return bound if hs.ndim > 1 else bound[0]


def _high_band(f: np.ndarray, c: np.ndarray, j: int):
    """Bound on sum_{i >= low} c_i |2 sin(f_i h / 2)|^j (c >= 0) as a function of arrays h >= 0
    and low, from 2 |sin(x / 2)| <= min(|x|, 2): h^j sum c_i f_i^j below m, the first i with
    f_i >= 2 / h, plus 4 N 2^-53 of the larger prefix sum for rounding, and 2^j sum c_i from
    m.  The prefix sums are built once; one that overflows gives an inf or NaN bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        head = np.concatenate(([0.0], np.cumsum(c * f ** j)))  # sum_{i < m} c_i f_i^j
    tail = np.cumsum(np.append(c, 0.0)[::-1])[::-1]  # sum_{i >= m} c_i

    def bound(h, low):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m = np.maximum(np.searchsorted(f, 2.0 / h), low)
            below = head[m] - head[low] + 4 * f.size * 2.0**-53 * head[m]
            return np.where(m > low, h ** j * below, 0.0) + np.ldexp(tail[m], j)
    return bound


def _grid_norms(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray,
                req: ModulusRequest, n: int, spec: np.ndarray) -> np.ndarray:
    """Rectangle-rule L_p norm of Delta_h^k f on the n-point grid, one per shift in hs,
    through spec, rows of n // 2 + 1 entries, zero but in the support columns it overwrites.

    Samples are below 2^u, u = log2(sum |a_nu|) + k e, min(2, nu_max h) < 2^e.  Rows with
    p u outside [-700, 900] are scaled by powers of two (the multipliers e^(i nu h) - 1
    before the k-th power and the samples before |x|^p, each to a largest entry in
    [1/2, 1)) and their norms scaled back; the other rows keep the unscaled bits."""
    mult = np.exp(1j * np.outer(hs, freqs.astype(float))) - 1.0
    e = np.frexp(np.minimum(2.0, freqs[-1] * hs))[1]
    pu = req.p * (math.log2(np.abs(amps).sum()) + req.k * e)
    far = np.flatnonzero((pu < -700.0) | (pu > 900.0))
    if far.size:  # ldexp on the float view is exact
        zs = -np.frexp(np.abs(mult[far]).max(axis=1))[1]
        mult.view(float)[far] = np.ldexp(mult.view(float)[far], zs[:, None])
    # out of place, and np.square at k = 2: in place, or as ** 2, a one-entry array rounds
    # otherwise, so a row's bits would depend on its batch
    mult = np.square(mult) if req.k == 2 else mult ** req.k
    spec = spec[:hs.size]
    spec[:, freqs] = mult * (0.5 * n * amps)
    diffs = np.fft.irfft(spec, n=n, axis=-1)
    if far.size:
        xs = -np.frexp(np.abs(diffs[far]).max(axis=1))[1]
        diffs[far] = np.ldexp(diffs[far], xs[:, None])
    # in place: the same values as np.abs(diffs) ** p without two fresh buffers; np.sum
    # rounds each row alike in any batch (np.einsum does not, a lone row past 8192 samples)
    np.abs(diffs, out=diffs)
    np.power(diffs, req.p, out=diffs)
    out = (TWO_PI / n * np.sum(diffs, axis=-1)) ** (1.0 / req.p)
    if far.size:
        with np.errstate(over="ignore"):  # past the float range: inf
            out[far] = np.ldexp(out[far], -(req.k * zs + xs))
    return out


def _difference_bounds(hs: np.ndarray, h0s: np.ndarray, freqs: np.ndarray,
                       amps: np.ndarray, k: int, p: float, slope: float = math.inf) -> np.ndarray:
    """Upper bound on the grid L_p norm of Delta_h^k f - Delta_h0^k f, one per pair of
    shifts (h, h0) in hs and h0s.

    With z = e^{i nu h} - 1 and w = e^{i nu h0} - 1, the coefficient of nu is
    a_nu (z^k - w^k) = a_nu (z - w) sum_j z^j w^(k-1-j), and |z - w| =
    |2 sin(nu (h - h0) / 2)|, so its modulus is at most |a_nu| times
    m_nu = |2 sin(nu (h - h0) / 2)| sum_j |2 sin(nu h / 2)|^j |2 sin(nu h0 / 2)|^(k-1-j).
    The half angles are the ones the grid rows are built from, so the sine of their
    difference bounds the rows as evaluated.  The sup cap k 2^(k-1) |h - h0| slope follows
    from Delta_h^k - Delta_h0^k = sum_i Delta_h^i (Delta_h - Delta_h0) Delta_h0^(k-1-i).
    The factors of each pair take _tiny_scale(nu_max max(h, h0), k), and its bound undoes it.
    """
    s = _tiny_scale(freqs[-1] * np.maximum(hs, h0s), k)
    half = 0.5 * freqs
    z = np.multiply.outer(hs, half)
    w = np.multiply.outer(h0s, half)
    m = z - w
    for arg in (m, z, w):
        np.sin(arg, out=arg)
        np.abs(arg, out=arg)
        np.ldexp(arg, 1 + s[:, None], out=arg)
    # M_1 = m and M_(j+1) = z M_j + m w^j give M_k = m sum_j z^j w^(k-1-j)
    mw = m.copy()
    for _ in range(k - 1):
        mw *= w
        m *= z
        m += mw
    np.multiply(m, m, out=m)
    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf gives a NaN cap
        return np.ldexp(_holder_bounds(m, amps, p, sup_cap=np.ldexp(
            k * np.abs(hs - h0s) * slope, k - 1 + k * s)), -k * s)


def _holder_bounds(sq: np.ndarray, amps: np.ndarray, p: float, l2_rest=0.0, sup_rest=0.0,
                   sup_cap=math.inf) -> np.ndarray:
    """Upper bound on the grid L_p norm of each real trigonometric polynomial whose
    coefficient of nu has modulus at most |a_nu| m_nu, from sq = m_nu^2 (one row per
    polynomial, overwritten), plus l2_rest and sup_rest, per-row bounds on the two
    sums below over the frequencies that sq leaves out, and sup_cap, per-row caps on
    ||g||_inf that replace the sup sum where smaller (a NaN cap is none).

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
    return l2 ** (2.0 / p) * np.fmin(sq @ np.abs(amps) + sup_rest, sup_cap) ** (1.0 - 2.0 / p)


# one entry, since every caller holds the series and the grid fixed over a table
@lru_cache(maxsize=1)
def _slope_bound(series: CosineSeries, n: int) -> float:
    """L >= sup |f'| over the circle from f' on the n-point grid; inf if d^2 >= 2, d = pi F / n.
    Where |f'| peaks f'' = 0, and Bernstein bounds f''' by F^2 ||f'||_inf, so the grid point
    within pi / n holds at least ||f'||_inf (1 - d^2 / 2).  L adds 2^-26 sum nu |a_nu| for the
    rounding of the samples and of the rows as evaluated (e^(i nu h) - 1 within 2^-26.5 nu h)."""
    freqs, amps = series.support()
    d = math.pi * series.max_freq / n
    if d * d >= 2.0:
        return math.inf
    top = np.abs(np.fft.irfft(_series_spectrum(series, n) * 1j * np.arange(n // 2 + 1), n=n)).max()
    return (float(top) + 2.0**-26 * float(freqs @ np.abs(amps))) / (1.0 - 0.5 * d * d)


def _sin_form_terms(hs: np.ndarray, freqs: np.ndarray, k: int, scale: int = 0) -> np.ndarray:
    """(2 sin(nu h / 2) 2^scale)^(2k), one row per shift h and one column per frequency nu.

    Built in place; the sin form avoids the cancellation of 2 - 2 cos(nu h) at
    small arguments.  The scale, an int or one per row, is applied after the sine, so it
    is exact.
    """
    arg = np.multiply.outer(hs, 0.5 * freqs)
    np.sin(arg, out=arg)
    if scale.any() if isinstance(scale, np.ndarray) else scale:
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
    rho is taken before the power, so at any k a ratio underflows only where rho^(2k) does."""
    lam, y = np.arange(h_samples - 1) / (h_samples - 1), 0.5 * _TWO_Y
    ratios = (np.sin(np.multiply.outer(lam, y)) / np.sin(y)) ** (2 * k)
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
        # at small t or high k the terms would be subnormal and lose digits.  The float sine
        # is the identity below 2^-26, so scaling the shift by 2^e, which takes nu_max t into
        # [2^-28, 2^-27), scales every sine factor by exactly 2^e; the factors are then scaled
        # after the sine by _tiny_scale, and the sup is scaled back by 2^(-k (e + s))
        e = max(0, -27 - math.frexp(float(freqs[-1]) * t)[1])
        s = _tiny_scale(math.ldexp(float(freqs[-1]) * t, e), k)
        terms_t = _sin_form_terms(math.ldexp(t, e), freqs, k, s)
        return math.ldexp(math.sqrt(math.pi * float(terms_t @ w)), -k * (e + s))
    if k >= 512:  # 4^k overflows
        rows = max(1, _BATCH_SAMPLES // freqs.size)
        return float(_in_batches(lambda h: _scaled_roots(h, freqs, amps, k), rows,
                                 shift_grid(t, h_samples)).max())
    if freqs.size <= _EXACT_BLOCK:
        return math.sqrt(math.pi * float((_sin_form_terms(shift_grid(t, h_samples), freqs, k)
                                          @ w).max()))
    return float(_p2_table(freqs, amps, k, np.array([t]), h_samples)[0])


def _p2_table(freqs: np.ndarray, amps: np.ndarray, k: int, ts: np.ndarray,
              h_samples: int) -> np.ndarray:
    """modulus_p2_exact at each t of ts (k < 512, and max_freq t >= 2^-28 so that no shift
    needs scaling), in blocks of t whose arrays hold at most _BLOCK_ENTRIES entries.

    The h = t rows of a block are one sine matrix, each row scaled by _tiny_scale and
    summed by its own dot product (a matrix-vector product's rounding depends on the other
    rows); where t max_freq <= pi that row is the value.  Other rows h = lambda t are
    bounded from the h = t terms: for nu t <= pi by rho^(2k), rho = sin(lambda y) / sin(y)
    at the top of nu's bucket in y = nu t / 2 (it grows with y, as x cot x decreases on
    (0, pi)); above, by _high_band.  Rows whose bound, times 1 + _BOUND_SLACK (which covers
    lambda = j / (h_samples - 1) too), reaches g(t) are candidates; _taylor_band bounds
    their high band again about h = t, and those left go to _screen; those it keeps take
    their sines."""
    w, f = amps * amps, freqs.astype(float)
    high = _high_band(f, w, 2 * k)  # an inf or NaN bound keeps its row

    def block(ts):
        s = _tiny_scale(f[-1] * ts, k)  # 0 where t max_freq > pi
        terms = _sin_form_terms(ts, freqs, k, s[:, None])
        top = np.array([row @ w for row in terms])
        pruned = f[-1] * ts > math.pi
        if not pruned.any():
            return np.ldexp(np.sqrt(math.pi * top), -k * s)
        grid, tw = shift_grid(ts, h_samples), terms * w
        # low band: the first ends[:, b] nu have nu t <= 2 y_b (at most N - 1, since the high
        # band's bound holds for any nu); reduceat gives an empty bucket its first entry
        ends = np.minimum(np.searchsorted(f, _TWO_Y / ts[:, None], side="right"), f.size - 1)
        starts = np.hstack((0 * ends[:, :1], ends)) + f.size * np.arange(ts.size)[:, None]
        sums = np.add.reduceat(tw.ravel(), starts.ravel()).reshape(starts.shape)[:, :-1]
        sums[np.diff(starts) == 0] = 0.0
        low = sums @ _bucket_ratios(k, h_samples).T
        bound = np.hstack((low[:, :1], low[:, 1:] + high(grid[:, 1:-1], ends[:, -1:])))  # 0 < h < t
        cand = pruned[:, None] & ~(bound * (1.0 + _BOUND_SLACK) < top[:, None])
        if cand.any():
            _taylor_band(f, w, k, ts, grid, cand, top, low, tw, ends[:, -1])
        if cand.any():
            _screen(freqs, w, k, ts, grid, cand, top)
        i, j = np.nonzero(cand)  # the rows left take their sines, _BLOCK_ENTRIES at a time
        np.maximum.at(top, i, _in_batches(lambda i, j: [row @ w for row in _sin_form_terms(
            grid[i, j], freqs, k)], max(1, _BLOCK_ENTRIES // f.size), i, j))
        return np.ldexp(np.sqrt(math.pi * top), -k * s)

    return _in_batches(block, max(1, _BLOCK_ENTRIES // max(freqs.size, h_samples)), ts)


def _taylor_band(f: np.ndarray, w: np.ndarray, k: int, ts: np.ndarray, grid: np.ndarray,
                 cand: np.ndarray, top: np.ndarray, low: np.ndarray, tw: np.ndarray,
                 start: np.ndarray) -> None:
    """Clear each candidate cand[i, j], h = grid[i, j] >= t / 2 (so delta = t - h is exact), whose
    low[i, j] plus a bound on its high band (nu from start[i]), times 1 + _BOUND_SLACK, is below
    top[i].  psi(x) = (2 sin x)^(2k) has |psi''| <= 2k 4^k, and the float half angles of h and t
    differ by delta nu / 2 within 2^-53 t nu.  So with G, G' and |G'| the band's sums below a split
    m (nu t <= 2^i pi) of tw = a^2 psi and of p = a^2 2k nu (2 sin x)^(2k-1) cos x at h = t, the
    band is at most G - delta G' + 2^-52 t |G'| + 4^k sum_{nu >= m} a^2 + k 4^k (d^2 / 4 + eps (5
    + 4k d)) sum a^2 nu^2, d = delta + 2^-52 t: sines and cosines within eps = 2^-48 move tw, the
    row's own terms and p by 3k, 2k and 2k 4^k eps (times a^2 and a^2 2k nu).  Each sum adds
    4 (F + k + 1) 2^-53 of its magnitude (|p| term by term), F its columns, for its rounding."""
    i, j = np.nonzero(cand & (2.0 * grid[:, :-1] >= ts[:, None]))
    rows, r = np.unique(i, return_inverse=True)
    c0 = start.min()  # the columns from the block's lowest band start
    f, w, lo = f[c0:], w[c0:], start[rows, None] - c0
    octaves = np.ldexp(math.pi, np.arange(1, math.frexp(f[-1] * ts.max() / math.pi)[1] + 1))
    m = np.minimum(np.searchsorted(f, octaves / ts[rows, None], side="right"), f.size - 1)
    x = np.multiply.outer(ts[rows], 0.5 * f)  # the h = t rows' own angles
    edges = np.hstack((lo, m))  # the band's segments [lo, m_1), [m_1, m_2), ... per row
    starts, empty = (edges + f.size * np.arange(rows.size)[:, None]).ravel(), np.diff(edges) == 0
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its row
        b = 2.0 * np.sin(x)  # (2 sin x)^(2k - 1) = b (b b)^(k - 1) below
        p = ((2 * k) * w * f) * np.cos(x) * reduce(np.multiply, [b * b] * (k - 1), b)
        g, gp, ga = (np.cumsum(np.where(empty, 0.0, np.add.reduceat(y.ravel(), starts).reshape(
            edges.shape)[:, :-1]), axis=1)[r] for y in (tw[rows, c0:], p, np.abs(p)))
        s2, tail = np.cumsum(np.append(0.0, w * f**2)), np.cumsum(np.append(w, 0.0)[::-1])[::-1]
        t, m, lo, c4, gamma = ts[i, None], m[r], lo[r], 4.0**k, 4 * (f.size + k + 1) * 2.0**-53
        d = (delta := t - grid[i, j, None]) + 2.0**-52 * t
        q, over = c4 * k * (d * d / 4 + 2.0**-48 * (5 + 4 * k * d)), c4 * tail[m]
        bound = np.fmin.reduce(g - delta * gp + q * (s2[m] - s2[lo]) + over + (2.0**-51 * t
                               + gamma * delta) * ga + gamma * (g + q * s2[m] + over), axis=1)
        cand[i, j] = ~((low[i, j] + bound) * (1.0 + _BOUND_SLACK) < top[i])


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
