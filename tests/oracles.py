"""Independent oracles used by the tests: brute-force tail summation, direct
pointwise synthesis, high-precision (mpmath) re-summation, and a refined
harmonic-partition quadrature for the integral functional.

These deliberately avoid the code paths they check.
"""

import math

import mpmath
import numpy as np

from trigsmooth.function_model import shift_grid


def brute_power_tail(q: float, start: int, rel_tol: float = 1e-15,
                     block: int = 65536, max_blocks: int = 4096) -> float:
    """sum_{nu >= start} nu**(-q) by direct summation to machine convergence,
    with an integral-comparison midpoint added for the leftover tail."""
    assert q > 1.0
    total = 0.0
    nu = start
    for _ in range(max_blocks):
        arr = np.arange(nu, nu + block, dtype=float) ** (-q)
        total += float(arr.sum())
        nu += block
        if arr[-1] < rel_tol * total:
            break
    hi = (nu - 1) ** (1.0 - q) / (q - 1.0)
    lo = nu ** (1.0 - q) / (q - 1.0)
    return total + 0.5 * (lo + hi)


def direct_synthesis(coeffs, n: int, shift: float = 0.0) -> np.ndarray:
    """Pointwise sum_k a_k cos(k (x_j + shift)), no FFT."""
    x = 2.0 * math.pi * np.arange(n) / n + shift
    out = np.zeros(n)
    for i, a in enumerate(coeffs, start=1):
        out += a * np.cos(i * x)
    return out


def brute_lp_norm(samples: np.ndarray, p: float) -> float:
    total = math.fsum((abs(float(v)) ** p for v in samples))
    return (2.0 * math.pi / samples.size * total) ** (1.0 / p)


def modulus_p2_h_scan(coeffs, k: int, t: float, h_samples: int) -> float:
    """Loop-based sup over the shift grid of the Parseval difference norm.

    At tiny t the terms would be subnormal and lose digits, so each shift is scaled
    by 2^e, with len(coeffs) t 2^e below 2^-27; there the float sine is the
    identity, so every sine factor is scaled by exactly 2^e, and the sup by 2^(k e)."""
    e = max(0, -27 - math.frexp(len(coeffs) * t)[1])
    best = 0.0
    for h in shift_grid(t, h_samples):
        h = math.ldexp(h, e)
        acc = math.fsum(
            a * a * (2.0 * abs(math.sin(0.5 * nu * h))) ** (2 * k)
            for nu, a in enumerate(coeffs, start=1)
        )
        best = max(best, math.sqrt(math.pi * acc))
    return math.ldexp(best, -k * e)


def modulus_p2_full_grid(coeffs, k: int, t: float, h_samples: int) -> float:
    """Vectorised sup over every row of the shift grid of the Parseval difference norm."""
    coeffs = np.asarray(coeffs, dtype=float)
    nus = np.arange(1, coeffs.size + 1)
    terms = (2.0 * np.sin(0.5 * np.multiply.outer(shift_grid(t, h_samples), nus))) ** (2 * k)
    return math.sqrt(math.pi * float((terms @ (coeffs * coeffs)).max()))


def mp_modulus_p2(freqs, amps, k: int, t: float, h_samples: int, dps: int = 40) -> float:
    """sup over the float shift grid of sqrt(pi * g(h)), with
    g(h) = sum a_nu^2 (2 sin(nu h / 2))^(2k) summed in mpmath at dps digits.

    Each nu * h and its sine are evaluated in mpmath, so the result does not
    depend on the float sine at large arguments (nu up to 2**62)."""
    with mpmath.workdps(dps):
        best = mpmath.mpf(0)
        for h in shift_grid(t, h_samples):
            h_mp = mpmath.mpf(float(h))
            g = mpmath.fsum(mpmath.mpf(float(a)) ** 2
                            * (2 * mpmath.sin(mpmath.mpf(int(nu)) * h_mp / 2)) ** (2 * k)
                            for nu, a in zip(freqs, amps))
            best = max(best, g)
        return float(mpmath.sqrt(mpmath.pi * best))

def modulus_grid_full_scan(coeffs, k: int, t: float, p: float, h_samples: int, n: int) -> float:
    """Unpruned grid modulus: every row of the shift grid synthesised on its own (numpy
    irfft of the exact difference spectrum), its rectangle-rule L_p norm taken, and the
    largest one returned.

    So that no power leaves the float range, each row is scaled by powers of two: the
    multipliers e^(i nu h) - 1 before the k-th power and the samples before |x|^p, each
    so that its largest entry lies in [1/2, 1); the norm is scaled back after the root."""
    coeffs = np.asarray(coeffs, dtype=float)
    nus = np.arange(1, coeffs.size + 1)
    best = 0.0
    for h in shift_grid(t, h_samples):
        z = np.exp(1j * nus * h) - 1.0
        zs = -math.frexp(float(np.abs(z).max()))[1]
        z = np.ldexp(z.real, zs) + 1j * np.ldexp(z.imag, zs)
        spec = np.zeros(n // 2 + 1, dtype=complex)
        spec[nus] = 0.5 * n * coeffs * z ** k
        diff = np.fft.irfft(spec, n=n)
        xs = -math.frexp(float(np.abs(diff).max()))[1]
        norm = (2.0 * math.pi / n * np.sum(np.abs(np.ldexp(diff, xs)) ** p)) ** (1.0 / p)
        with np.errstate(over="ignore"):  # a value past the float range is inf
            best = max(best, float(np.ldexp(norm, -(k * zs + xs))))
    return best


def mp_c2(freqs, amps, k: int, t: float, p: float, dps: int = 30):
    """The Hoelder bound on the L_p norm of d^2/ds^2 Delta_s^k f, 0 <= s <= t, from the moduli
    |a_nu| nu^2 (k (k - 1) m^(k-2) + k m^(k-1)), m = min(nu t, 2) with nu t the float product,
    summed in mpmath at dps digits, so that nothing leaves the float range."""
    with mpmath.workdps(dps):
        mods = [abs(mpmath.mpf(float(a))) * int(nu) ** 2
                * (k * (k - 1) * m ** max(k - 2, 0) + k * m ** (k - 1))
                for nu, a in zip(freqs, amps) for m in [min(mpmath.mpf(float(nu) * t), 2)]]
        l2, q = mpmath.sqrt(mpmath.pi * mpmath.fsum(x * x for x in mods)), mpmath.mpf(p)
        if q <= 2:
            return (2 * mpmath.pi) ** (1 / q - mpmath.mpf(1) / 2) * l2
        return l2 ** (2 / q) * mpmath.fsum(mods) ** (1 - 2 / q)


def mp_copson_tail_ratio(seq, alpha: float, lam_exp: float, p: float,
                         m: int, n: int, dps: int = 50) -> float:
    """Reverse-Copson tail ratio (p >= 1 clause) recomputed at high precision."""
    with mpmath.workdps(dps):
        a = [mpmath.mpf(float(v)) for v in seq]
        lhs = mpmath.mpf(0)
        for mu in range(m, n + 1):
            inner = mpmath.fsum(a[nu - 1] * mpmath.mpf(nu) ** lam_exp
                                for nu in range(mu, n + 1))
            lhs += mpmath.mpf(mu) ** (alpha - 1) * inner ** p
        rhs = mpmath.fsum(
            mpmath.mpf(mu) ** (alpha - 1)
            * (a[mu - 1] * mpmath.mpf(mu) ** (lam_exp + 1)) ** p
            for mu in range(8 * m, n + 1)
        )
        return float(lhs / rhs)
