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
from functools import lru_cache

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
#: terms of the p = 2 moment expansion, which only wider supports take, and its certified error
_MOMENT_TERMS, _MOMENT_TOL = _EXACT_BLOCK, 1e-14
#: entries in each block array of _grid_table, and in each F-wide chunk of _p2_table
_BLOCK_ENTRIES = 2**14
#: entries in each shift-grid array of a _p2_table pruning block: 15 t's at 257 shifts
_PRUNE_ENTRIES = 2**12
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
#: the grid modulus evaluates the candidate rows at multiples of this many shifts below its
#: top anchor first and bounds each candidate between two of them by their secant (_secant_bounds)
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
    certified rather than scanned, by the one-t call of the table kernel _grid_table: rows are
    pruned by sine-free coefficient bounds, by the secant of their neighbouring anchors h_a < h_b
    plus (h - h_a) (h_b - h) C2 / 2, the top anchor t - S at p != 2, and, right before their
    FFT, by the bounds of their own sines."""
    return 0.0 if req.t == 0.0 else float(_grid_table(series, req, np.array([req.t]), n)[0])


def _grid_table(series: CosineSeries, req: ModulusRequest, ts: np.ndarray, n: int) -> np.ndarray:
    """modulus(series, req, n) at each t > 0 of ts in place of req.t, bit for bit, in
    blocks of t whose bound arrays hold at most _BLOCK_ENTRIES entries; each stage below is
    one batched call for a block, and grid rows go max(1, _BATCH_SAMPLES // n) a batch (1 MiB
    of spectrum and 1 MiB of samples up to n = 2^17) through one spectrum buffer per call.

    The row h = t is evaluated on the grid first, and every other row g = Delta_h^k f is
    bounded from its coefficients (_row_bounds); the candidates are the rows whose bound,
    times 1 + _BOUND_SLACK, reaches that value.  For the t with candidates, _c2 gives
    C2 >= sup ||d^2/ds^2 Delta_s^k f||_p over 0 <= s <= t, and every row h between two rows
    h_a < h_b <= t lies below their secant ((h_b - h) U_a + (h - h_a) U_b) / (h_b - h_a) +
    ((h - h_a) (h_b - h) / 2 + 2^-52 h_b) C2 (_secant_bounds), U bounding their values: the
    linear interpolation error of a C^2 curve in any norm, plus 2^-53 h_b C2 per row for its
    float angles nu h (within 2^-53 nu h_b; C2's moduli hold k nu m^(k-1)), so the slack covers
    only the rows' relative rounding.  The top anchor h1 = t - S, S = k u(t) / (t C2) in 2 to
    (h_samples - 1) / 2 whole shifts at p != 2 (at p = 2 the gate below leaves only rows that tie
    u(t)), else h1 = t, is evaluated for each t with a candidate above it.  The other anchors are
    the candidates at multiples of _ANCHOR_STEP shifts below h1, and h1 where not evaluated; each
    other candidate is also bounded by the secant of its neighbouring ends, h1 and t above h1,
    else its block's ends up to h1, each an evaluated row's value, or its bound, or u(t) at
    h = t, and is left where that reaches the best value so far.  A row takes its sines right
    before its FFT, at one gate (the anchors against u(t), the rest against that best value):
    its own bound (_own_bounds) replaces its bound where smaller, and only the rows still
    reaching the floor are evaluated; the rest are provably lower.  At p > 2 the sup factors are
    capped from L >= sup |f'| (_slope_bound).  Amplitudes past 2^+-256 are scaled by a power of
    two, exactly (_amp_scale), and the values are scaled back."""
    _check_grid(series, n)
    freqs, amps = series.support()
    if freqs.size == 0:
        return np.zeros(ts.size)
    amps = np.ldexp(amps, scale := _amp_scale(series))
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
        bound = _row_bounds(hs, freqs, amps, req, _BLOCK_ENTRIES, slope)
        # a NaN or inf bound keeps its row
        i, j = np.nonzero(~(bound * (1.0 + _BOUND_SLACK) < values[:, last:]))
        # C2 for the t with candidates (np.bincount: np.unique would import numpy.ma)
        c2, rows = np.full(ts.size, np.nan), np.flatnonzero(np.bincount(i, minlength=ts.size))
        c2[rows] = _c2(ts[rows], values[rows, last], freqs, amps, req)
        # the top anchor h1 = t - S, or t where S is off (under 2 shifts, p = 2 or a NaN C2)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            steps = np.minimum(np.floor(req.k * values[:, last] * last / (ts * ts * c2)), last // 2)
        top = last - np.where((steps >= 2) & (req.p != 2.0), steps, 0).astype(int)
        r = np.flatnonzero(np.bincount(i[j > top[i]], minlength=ts.size))
        values[r, top[r]] = norms(hs[r, top[r]])

        def gate(i, j, floor):  # the rows (i, j) whose own bound, taken into bound, reaches floor
            own = _in_batches(lambda h, t: _own_bounds(h, t, freqs, amps, req, slope),
                              max(1, _BLOCK_ENTRIES // freqs.size), hs[i, j], ts[i])
            bound[i, j] = np.fmin(bound[i, j], own)  # fmin ignores a NaN bound
            return i[keep := ~(bound[i, j] * (1.0 + _BOUND_SLACK) < floor)], j[keep]

        i, j = i[left := np.isnan(values[i, j])], j[left]
        at = (j == top[i]) | ((j % _ANCHOR_STEP == 0) & (j < top[i]))
        ia, ja = gate(i[at], j[at], values[i[at], last])
        values[ia, ja] = norms(hs[ia, ja])
        best = np.nanmax(values, axis=1)
        i, j = i[~at], j[~at]
        # the secant ends: an evaluated row's value, else its row bound
        ends = np.where(np.isnan(values), np.hstack((bound, values[:, last:])), values)
        a = np.where(above := j > top[i], top[i], j - j % _ANCHOR_STEP)
        b = np.where(above, last, np.minimum(a + _ANCHOR_STEP, top[i]))
        bound[i, j] = np.fmin(bound[i, j], _secant_bounds(  # fmin keeps a NaN C2's row bound
            hs[i, j], hs[i, a], hs[i, b], ends[i, a], ends[i, b], c2[i]))
        kept = ~(bound[i, j] * (1.0 + _BOUND_SLACK) < best[i])
        i, j = gate(i[kept], j[kept], best[i[kept]])
        np.maximum.at(best, i, norms(hs[i, j]))
        return best

    with np.errstate(over="ignore"):  # past the float range: inf
        return np.ldexp(_in_batches(
            block, max(1, _BLOCK_ENTRIES // max(freqs.size, req.h_samples)), ts), -scale)


def _c2(t: np.ndarray, ut: np.ndarray, freqs: np.ndarray, amps: np.ndarray, req: ModulusRequest):
    """C2 >= sup ||d^2/ds^2 Delta_s^k f||_p over 0 <= s <= t for each entry t, whose h = t row has
    the value ut, from the moduli |a_nu| nu^2 (k (k - 1) m^(k-2) + k m^(k-1)), m = min(nu t, 2),
    each row scaled by a power of two so that no square underflows.  NaN, which turns the top
    anchor and the secant bounds off, where C2 or ut is not a positive finite float or _grid_norms
    scales the h = t row."""
    f, k = freqs.astype(float), req.k
    m = np.minimum(np.multiply.outer(t, f), 2.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mod = f * f * (k * m ** (k - 1) + (k * (k - 1)) * m ** max(k - 2, 0))
        s = -np.frexp((mod * np.abs(amps)).max(axis=1))[1]
        sq = np.square(np.ldexp(mod, s[:, None]))
        c2 = np.ldexp(_holder_bounds(sq @ (amps * amps), np.sqrt(sq) @ np.abs(amps), req.p), -s)
    on = (0.0 < c2) & (c2 < math.inf) & (0.0 < ut) & (ut < math.inf)
    return np.where(on & ~_scaled_rows(t, freqs, amps, req), c2, np.nan)


def _secant_bounds(h, ha, hb, ua, ub, c2):
    """((hb - h) ua + (h - ha) ub) / (hb - ha) + ((h - ha) (hb - h) / 2 + 2^-52 hb) c2, per row h
    between the ends ha < hb, which bound their rows' values by ua and ub."""
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its row
        return (((hb - h) * ua + (h - ha) * ub) / (hb - ha)
                + ((h - ha) * (hb - h) / 2 + 2.0**-52 * hb) * c2)


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
    return -e * (e <= max(-26, -300 // k))  # k e <= -300 exactly where e <= floor(-300 / k)


def _row_bounds(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray, req: ModulusRequest,
                h_chunk: int, slope: float = math.inf) -> np.ndarray:
    """_holder_bounds of the rows hs[..., :-1] of shift_grid(t, req.h_samples), one grid or
    one per row of a 2-D hs, with m_nu = |2 sin(nu h / 2)|^k and sup caps 2^(k-1) h slope, from
    no sines but those of the h = t row.  Where nu t <= pi, m_nu <= rho^k m_nu(t) as in
    _p2_table; above, _high_band bounds the sums, h_chunk rows a batch.  Each grid's factors
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
        bound = np.ldexp(_in_batches(lambda h, low, l2, sup, cap: _holder_bounds(
            l2 + high_l2(h, low), sup + high_sup(h, low), req.p, cap), h_chunk,
            *(x.ravel() for x in (rows, low, l2, sup, caps))).reshape(l2.shape), -k * s[:, None])
    return bound if hs.ndim > 1 else bound[0]


def _own_bounds(h, t, freqs, amps, req: ModulusRequest, slope: float) -> np.ndarray:
    """_holder_bounds of the rows h from their own moduli m_nu = |2 sin(nu h / 2)|^k and sup caps
    2^(k-1) h slope, each scaled as in _row_bounds by the _tiny_scale of its grid's t, its entry
    of t; at p = 2 each is the row's Parseval value."""
    k, s = req.k, _tiny_scale(freqs[-1] * t, req.k)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its row
        l2 = (sq := _sin_form_terms(h, freqs, k, s[:, None])) @ (amps * amps)
        return np.ldexp(_holder_bounds(l2, np.sqrt(sq, out=sq) @ np.abs(amps), req.p,
                                       np.ldexp(h * slope, k - 1 + k * s)), -k * s)


def _high_band(f: np.ndarray, c: np.ndarray, j: int):
    """Bound on sum_{i >= low} c_i |2 sin(f_i h / 2)|^j (c >= 0) as a function of arrays h >= 0
    and low, from 2 |sin(x / 2)| <= min(|x|, 2): h^j sum c_i f_i^j below m, the first i with
    f_i >= 2 / h, plus 4 N 2^-53 of the larger prefix sum for rounding, and 2^j sum c_i from
    m.  The prefix sums are built once; one that overflows gives an inf or NaN bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        head = np.concatenate(([0.0], np.cumsum(c * f ** j)))  # sum_{i < m} c_i f_i^j
        tail = np.ldexp(np.cumsum(np.append(c, 0.0)[::-1])[::-1], j)  # 2^j sum_{i >= m} c_i

    def bound(h, low):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            m = np.maximum(np.searchsorted(f, 2.0 / h), low)
            below = (top := head[m]) - head[low] + 4 * f.size * 2.0**-53 * top
            return np.where(m > low, h ** j * below, 0.0) + tail[m]
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
    far = np.flatnonzero(_scaled_rows(hs, freqs, amps, req))
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


def _scaled_rows(hs: np.ndarray, freqs: np.ndarray, amps: np.ndarray, req: ModulusRequest):
    """Whether _grid_norms scales the row of each shift in hs: p u outside [-700, 900]."""
    e = np.frexp(np.minimum(2.0, freqs[-1] * hs))[1]
    pu = req.p * (math.log2(np.abs(amps).sum()) + req.k * e)
    return (pu < -700.0) | (pu > 900.0)


def _holder_bounds(l2_sq, sup, p: float, sup_cap=math.inf):
    """Upper bound on the grid L_p norm of each real trigonometric polynomial whose coefficient
    of nu has modulus at most |a_nu| m_nu, from its sums l2_sq >= sum a_nu^2 m_nu^2 and sup >=
    sum |a_nu| m_nu, one entry per polynomial, and sup_cap, caps on ||g||_inf that replace sup
    where smaller (a NaN cap is none).  The grid holds every harmonic alias-free, so Parseval
    gives the grid L_2 norm exactly, ||g||_2 <= sqrt(pi l2_sq), and ||g||_inf <= sup.  Discrete
    Hoelder on total measure 2 pi then gives ||g||_p <= ||g||_2^(2/p) ||g||_inf^(1 - 2/p) for
    p >= 2 and ||g||_p <= (2 pi)^(1/p - 1/2) ||g||_2 for p <= 2; at p = 2 the bound is the grid
    value itself when m_nu is the exact modulus, up to rounding."""
    l2 = np.sqrt(math.pi * l2_sq)
    if p <= 2.0:
        return TWO_PI ** (1.0 / p - 0.5) * l2
    return l2 ** (2.0 / p) * np.fmin(sup, sup_cap) ** (1.0 - 2.0 / p)


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
    """sqrt(pi g(h)) per shift h, the p = 2 rows where _p2_scaled holds: with x_nu = |a_nu|^(1/k)
    |2 sin(nu h / 2)| and M its largest, g = M^(2k) sum (x_nu / M)^(2k).  The sum is in [1, N], so
    only terms below 2^-1022 of the largest underflow, and M^k only where the value overflows."""
    x = np.abs(np.sin(np.multiply.outer(hs, 0.5 * freqs))) * (2.0 * np.abs(amps) ** (1.0 / k))
    top = x.max(axis=1, initial=np.finfo(float).tiny)  # a zero row (h = 0) then gives 0
    return np.sqrt(math.pi * ((x / top[:, None]) ** (2 * k)).sum(axis=1)) * top ** k


def modulus_p2_exact(series: CosineSeries, k: int, t: float,
                     h_samples: int = DEFAULT_H_SAMPLES) -> float:
    """Closed-form p = 2 modulus via Parseval, no spatial grid.

    sup over the shift grid of sqrt(pi * g(h)), g(h) = sum_nu a_nu^2 (2 sin(nu h / 2))^(2k).
    Serves as the oracle for the grid modulus at p = 2.  k, t and h_samples are
    checked as a ModulusRequest; a bad one raises DomainError with its message.

    When t max_freq <= pi, every factor sin^2(nu h / 2) is non-decreasing on [0, t], so g
    peaks at h = t and that row alone is evaluated; otherwise every shift row is.  Where pi g
    may leave the float range (_p2_scaled), the rows are _scaled_roots, in batches; else they
    take the sine form on the squares of _p2_sums, up to _EXACT_BLOCK frequencies, and wider
    supports are the one-t call of _p2_table: a moment row, or a certified sup.
    """
    try:
        ModulusRequest(k, t, 2.0, h_samples)
    except ConstraintViolation as exc:
        raise DomainError(str(exc)) from None
    freqs, amps = series.support()
    if t == 0.0 or freqs.size == 0:
        return 0.0
    if not (scaled := _p2_scaled(series, k)) and freqs.size > _EXACT_BLOCK:
        return float(_p2_table(series, k, np.array([t]), h_samples)[0])
    # a float h = t where t max_freq <= pi, so that its sum is a dot product of its own
    hs = t if (x := float(freqs[-1]) * t) <= math.pi else shift_grid(t, h_samples)
    if scaled:
        return float(_in_batches(lambda h: _scaled_roots(h, freqs, amps, k),
                                 max(1, _BATCH_SAMPLES // freqs.size), np.atleast_1d(hs)).max())
    # at small t or high k the terms would be subnormal and lose digits.  The float sine is the
    # identity below 2^-26, so scaling the shift by 2^e, which takes nu_max t into [2^-28, 2^-27),
    # scales every sine factor by exactly 2^e; the factors are then scaled after the sine by
    # _tiny_scale, and the sup is scaled back by 2^(-k (e + s)).  Both are 0 where x > pi
    e = max(0, -27 - math.frexp(x)[1])
    s = _tiny_scale(math.ldexp(x, e), k)
    scale, _, w, *_ = _p2_sums(series, k)  # the squares of the amplitudes scaled by 2^scale
    g = _sin_form_terms(math.ldexp(hs, e) if e else hs, freqs, k, s) @ w  # e > 0: a float hs
    try:
        return math.ldexp(math.sqrt(math.pi * float(g.max())), -scale - k * (e + s))
    except OverflowError:  # past the float range
        return math.inf


def _p2_table(series: CosineSeries, k: int, ts: np.ndarray, h_samples: int) -> np.ndarray:
    """modulus_p2_exact(series, k, t, h_samples) at each t of ts, unless _p2_scaled holds (on a
    support of at most _MOMENT_TERMS frequencies, max_freq t >= 2^-28, so that no shift needs
    scaling).  Where t max_freq <= pi on a wider support, the moment rows (_moment_rows) are the
    value wherever certified, as they are wherever max_freq t < 2^-28.  The other t go in pruning
    blocks of _PRUNE_ENTRIES // h_samples t's, F-wide work in chunks of _BLOCK_ENTRIES entries, by
    stages that only prune rows.  (1) The h = t rows, each scaled by _tiny_scale and summed by its
    own dot product (a matrix-vector product rounds by its other rows), are the value where t
    max_freq <= pi.  (2) Other rows h = lambda t are bounded, for nu t <= pi by rho^(2k) times the
    terms of h = t, rho = sin(lambda y) / sin(y) at the top of nu's bucket in y = nu t / 2 (it grows
    with y, as x cot x decreases on (0, pi), and with lambda), and above by _high_band, the row
    below t first (_last_row_clears); rows whose bound, times 1 + _BOUND_SLACK (which covers lambda
    = j / (h_samples - 1) too), reaches g(t) are candidates.  (3) _first_order_band.  (4) The rows
    left take their sines.  The squares a^2 are of amplitudes scaled by _amp_scale, scaled back."""
    if series.support()[0].size == 0:
        return np.zeros(ts.size)
    scale, f, w, high, s1, tail = _p2_sums(series, k)

    def block(ts):
        pruned = (x := f[-1] * ts) > math.pi
        s = np.zeros(ts.size, int) if pruned.all() else _tiny_scale(x, k)  # 0 where x > pi
        # low band: nu t <= 2 y_b for the first ends[:, b] nu, at most N - 1; then octave splits
        ends = np.minimum(np.searchsorted(f, _TWO_Y / ts[:, None], side="right"), f.size - 1)
        octaves = np.ldexp(math.pi, np.arange(1, math.frexp(x.max() / math.pi)[1] + 1))
        splits = np.minimum(np.searchsorted(f, octaves / ts[:, None], side="right"), f.size - 1)
        edges = np.concatenate((0 * ends[:, :1], ends, splits), axis=1)
        sums, step = np.empty(edges.shape), max(1, _BLOCK_ENTRIES // f.size)
        for lo in range(0, ts.size, step):  # g(t), then the h = t terms summed between the edges
            terms = _sin_form_terms(ts[lo: lo + step], f, k, s[lo: lo + step, None])
            sums[lo: lo + step, 0] = [row @ w for row in terms]
            sums[lo: lo + step, 1:] = _segment_sums(np.multiply(terms, w, out=terms),
                                                    edges[lo: lo + step])
        top, buckets = sums[:, 0], sums[:, 1: _RATIO_BUCKETS + 1]
        if pruned.any():
            grid, ratios = shift_grid(ts, h_samples), _bucket_ratios(k, h_samples)
            pruned &= ~_last_row_clears(grid, top, buckets @ ratios[-1], high, ends[:, -1])
        if pruned.any():
            low = buckets @ ratios.T  # 0 < h < t below
            bound = np.hstack((low[:, :1], low[:, 1:] + high(grid[:, 1:-1], ends[:, -1:])))
            cand = pruned[:, None] & ~(bound * (1.0 + _BOUND_SLACK) < top[:, None])
            if cand.any():
                _first_order_band(f, k, ts, grid, cand, top, low, sums[:, _RATIO_BUCKETS + 1:],
                                  splits, ends[:, -1], s1, tail)
            i, j = np.nonzero(cand)  # the rows left take their sines, _BLOCK_ENTRIES at a time
            np.maximum.at(top, i, _in_batches(lambda i, j: [row @ w for row in _sin_form_terms(
                grid[i, j], f, k)], step, i, j))
        with np.errstate(over="ignore"):  # past the float range: inf
            return np.ldexp(np.sqrt(math.pi * top), -k * s - scale)

    out, rest = np.empty(ts.size), np.ones(ts.size, bool)
    if f.size > _MOMENT_TERMS and (near := f[-1] * ts <= math.pi).any():
        out[near], ok = _moment_rows(series, k, f[-1] * ts[near])
        rest[near] = ~ok
    out[rest] = _in_batches(block, max(1, _PRUNE_ENTRIES // h_samples), ts[rest])
    return out


@lru_cache(maxsize=1)  # one entry, since every caller holds the series and k fixed over a table
def _p2_moments(series: CosineSeries, k: int):
    """c_i = q_i M_(2k + 2i), i < J = _MOMENT_TERMS, and u_k.  q_i > 0 are the coefficients of
    (sum_i 2 s^i / (2i + 2)!)^k, so (2 - 2 cos x)^k = x^(2k) sum_i q_i (-x^2)^i, and M_q = sum w
    (nu / F)^q with _p2_sums's w, F = max_freq.  Up to u_k = t F the terms from i = J on add at
    most _MOMENT_TOL / 100 of v = g / u^(2k): x^(2j) has a coefficient below 4^k k^(2j) / (2j)!
    and M_q <= M_2k <= (pi / 2)^(2k) v, so they add at most (pi k)^(2k) (k u)^(2J) / (2k + 2J)! /
    (1 - r) of v, r = (k u)^2 / ((2k + 2J + 1) (2k + 2J + 2)), at most 1/2 there for k < 512."""
    q = p = np.array([2.0 / math.factorial(2 * i + 2) for i in range(_MOMENT_TERMS)])
    for _ in range(k - 1):
        q = np.convolve(q, p)[:_MOMENT_TERMS]
    _, f, w, *_ = _p2_sums(series, k)
    x, moments = (r2 := np.square(f / f[-1])) ** k, np.empty(_MOMENT_TERMS)
    for i in range(_MOMENT_TERMS):
        moments[i], x = x @ w, x * r2
    j = 2 * _MOMENT_TERMS
    ku = math.exp((math.log(_MOMENT_TOL / 200) + math.lgamma(2 * k + j + 1)) / j
                  - 2 * k / j * math.log(math.pi * k))
    return q * moments, ku / k


def _moment_rows(series: CosineSeries, k: int, u: np.ndarray):
    """_p2_table's value at t = u / max_freq for each u <= pi of u, computed alone, and whether it
    is certified: sqrt(pi v) 2^(k e) m^k, u = 2^e m, m in [1/2, 1), so nothing underflows before
    the ldexp, v = sum_i c_i (-u^2)^i (_p2_moments) by Horner's rule.  Certified where u <= u_k and
    the rounding of the alternating sum, 2^-52 sum_i c_i u^(2i), is at most 0.99 _MOMENT_TOL v."""
    c, top = _p2_moments(series, k)
    va, xs = np.full((2, u.size), c[-1]), np.stack((-u * u, u * u))
    for ci in c[-2::-1]:  # v, and the sum of the terms' moduli
        va *= xs
        va += ci
    m, e = np.frexp(u)
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range; v < 0 fails
        value = np.ldexp(np.sqrt(math.pi * va[0]) * m ** k, k * e - _amp_scale(series))
        return value, (u <= top) & (2.0**-52 * va[1] <= 0.99 * _MOMENT_TOL * va[0])


@lru_cache(maxsize=1)  # one entry, since every caller holds the series and k fixed over a table
def _p2_sums(series: CosineSeries, k: int):
    """_amp_scale(series) = s, f = nu, w = (2^s a)^2, _high_band(f, w, 2k), the prefix sums of w f
    and the suffix sums of w (entry i sums the terms before i, or from i on), shared by every
    call and only read."""
    (f, amps), s = series.support(), _amp_scale(series)
    f, w = f.astype(float), np.square(np.ldexp(amps, s))
    with np.errstate(over="ignore"):  # one that overflows gives an inf or NaN bound
        return (s, f, w, _high_band(f, w, 2 * k), np.cumsum(np.append(0.0, w * f)),
                np.cumsum(np.append(w, 0.0)[::-1])[::-1])


@lru_cache(maxsize=1)  # one entry, since every caller holds the series and k fixed over a table
def _p2_scaled(series: CosineSeries, k: int) -> bool:
    """Whether the p = 2 rows of a nonempty support take _scaled_roots: from k = 512, where 4^k
    overflows, and where pi g <= pi 4^k sum w, w of _p2_sums, may pass 2^1023."""
    return k >= 512 or 2 * k + math.log2(math.pi * _p2_sums(series, k)[2].sum()) >= 1023


# one entry, since every caller holds the series fixed over a table
@lru_cache(maxsize=1)
def _amp_scale(series: CosineSeries) -> int:
    """s with 2^s max |a_nu| in [1/2, 1) where |s| > 256, else 0, for a nonempty support: the
    exact amplitude scale of the table kernels, past which a^2 or |Delta_h^k f|^p may leave
    the float range."""
    s = -math.frexp(float(np.abs(series.support()[1]).max()))[1]
    return s if abs(s) > 256 else 0


def _last_row_clears(grid: np.ndarray, top: np.ndarray, low: np.ndarray, high, start: np.ndarray):
    """Whether the bound low + high(h, start) of h = grid[:, -2], times 1 + _BOUND_SLACK, is below
    top, per t; both parts grow with h (_high_band's 4^k part takes nu where (h nu)^(2k) >= 4^k)."""
    return (low + high(grid[:, -2], start)) * (1.0 + _BOUND_SLACK) < top


def _first_order_band(f: np.ndarray, k: int, ts: np.ndarray, grid: np.ndarray,
                      cand: np.ndarray, top: np.ndarray, low: np.ndarray, octaves: np.ndarray,
                      m: np.ndarray, start: np.ndarray, s1: np.ndarray, tail: np.ndarray) -> None:
    """Clear each candidate cand[i, j], h = grid[i, j], whose low[i, j] plus a first-order bound of
    its high band (nu from start[i]) about t = ts[i], times 1 + _BOUND_SLACK, is below top[i]: the
    least over the octave splits m[i] (the first nu with nu t > 2^e pi, e = 1, 2, ... until 2^e pi
    passes max_freq t, at most the last; later e repeat it) of B + (d / 2) M_k sum_{nu < m} a^2 nu
    + 4^k sum_{nu >= m} a^2 (s1, tail), B the h = t row's band sums octaves[i] (between the splits
    from start[i]) up to m, M_k = 2k 4^k c^(k - 1/2) / sqrt(2k), c = (2k - 1) / (2k), 2^-49 up,
    the sup of |d/dx (2 sin x)^(2k)|, and d = t - h + 2^-52 t (the float half angles' gap over
    nu / 2) <= the float (1 + 2^-51) t - h.  Sines within 2^-48 add 4k 4^k 2^-48 sum a^2, and
    each sum 4 (F + k + 1) 2^-53 of its magnitude (B's, the row's own), F its columns, for its
    rounding."""
    i, j = np.nonzero(cand)
    c4, gamma = 4.0**k, 1.0 + 4 * (f.size + k + 1) * 2.0**-53
    half_mk = k * c4 * ((2 * k - 1) / (2 * k)) ** (k - 0.5) / math.sqrt(2 * k) * (1.0 + 2.0**-49)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its row
        b, m = np.cumsum(octaves, axis=1).T, m.T  # split-major: a fast reduce over splits below
        slope = half_mk * (gamma * s1[m] - s1[start])  # the bound is rest + d slope, per split
        rest = gamma * (b + c4 * tail[m]) + 4 * k * c4 * 2.0**-48 * tail[start]
        d = (1.0 + 2.0**-51) * ts[i] - grid[i, j]
        bound = np.fmin.reduce(np.take(rest, i, axis=1) + d * np.take(slope, i, axis=1), axis=0)
        cand[i, j] = ~((low[i, j] + bound) * (1.0 + _BOUND_SLACK) < top[i])


def _segment_sums(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of each row i of x over [edges[i, b], edges[i, b + 1]), each edge below x.shape[1]."""
    starts = edges + x.shape[1] * np.arange(x.shape[0])[:, None]
    sums = np.add.reduceat(x.ravel(), starts.ravel()).reshape(edges.shape)[:, :-1]
    sums[edges[:, 1:] == edges[:, :-1]] = 0.0  # reduceat gives an empty segment its first entry
    return sums
