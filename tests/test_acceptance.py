"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are asserted exactly as stated.  Expected runtimes are printed for
reference, not asserted (they scale with the host's core count).  Regression
bounds marked FROZEN_* were computed once with this implementation and pin the
behaviour; the a-priori caps from the criteria are asserted alongside them.
"""

import math
import time

import numpy as np
import pytest

from trigsmooth import (
    CosineSeries,
    MajorantPhi,
    ModulusRequest,
    ModulusTable,
    best_approx,
    check_hardy_lower,
    check_hardy_upper,
    check_jensen,
    dyadic_approx_form,
    integral_form,
    lacunary_E_bounds,
    lacunary_coefficient_form,
    lacunary_geometric_series,
    lp_norm,
    membership_of_values,
    modulus,
    modulus_p2_exact,
    monotone_coefficient_form,
    power_law_series,
    random_bandlimited_series,
    series_form,
    synthesize,
    validate_params,
)
from trigsmooth.cli import main
from trigsmooth.functionals import lacunary_log_power_profile
from trigsmooth.inequalities import (
    IneqCase,
    canonical_copson_sweep,
    case_rng,
    power_sequence,
    random_monotone_sequence,
)

SQRT_PI = math.sqrt(math.pi)

# regression bounds recorded on the first full run (deterministic reruns)
FROZEN_COPSON_MIN = 0.4678941706506138
FROZEN_C6_SPREAD = 1.12
FROZEN_C7_SPREAD = 1.90
FROZEN_C8_SPREAD = 1.05

EQUIV_NS = [2 ** j for j in range(1, 9)]          # 2 .. 256
EQUIV_NU_MAX = 1024
THETAS = (0.5, 1.0, 2.0)


def report(cid: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {cid}: {detail} ({time.time() - started:.1f}s)")


@pytest.fixture(scope="module")
def equivalence_fixtures():
    """Fixture set shared by criteria 6 and 7, with cached modulus tables."""
    fixtures = {}
    for s in (1.5, 2.0, 3.0):
        fixtures[f"power{s:g}"] = power_law_series(s, 2048, with_tail=True)
    fixtures["bandlimited"] = random_bandlimited_series(np.random.default_rng(1234), 64)
    fixtures["lacunary"] = lacunary_geometric_series(0.5, 20)
    tables = {}
    for name, ser in fixtures.items():
        tables[name] = ModulusTable(ser, 1, 2.0)
        tables[name].omega_upto(EQUIV_NU_MAX)
    return fixtures, tables


def test_c01_modulus_cross_oracle():
    """Grid modulus vs the Parseval closed form: rel err <= 1e-6 at p = 2."""
    t0 = time.time()
    t_values = np.linspace(math.pi / 20.0, math.pi, 20)
    worst = 0.0
    for si in range(10):
        ser = random_bandlimited_series(np.random.default_rng(100 + si), 64)
        for k in (1, 2, 3):
            for t in t_values:
                req = ModulusRequest(k=k, t=float(t), p=2.0, h_samples=257)
                grid_val = modulus(ser, req, 2 ** 14)
                exact_val = modulus_p2_exact(ser, k, float(t), 257)
                worst = max(worst, abs(grid_val - exact_val) / exact_val)
    ok = worst <= 1e-6
    report("C1 modulus cross-oracle", ok, f"max rel err {worst:.3e} over 600 cases", t0)
    assert ok


def test_c02_best_approx_exactness():
    """Parseval E_n vs quadrature residual (1e-10); lacunary tail ratio sqrt(pi) (1e-12)."""
    t0 = time.time()
    worst_quad = 0.0
    for si in range(5):
        ser = random_bandlimited_series(np.random.default_rng(200 + si), 64)
        for n in (1, 2, 5, 17, 33, 64):
            exact = best_approx(ser, n, 2.0).value
            resid = np.array(ser.coeffs)
            resid[: n - 1] = 0.0
            quad = lp_norm(synthesize(CosineSeries(resid), 512), 2.0)
            worst_quad = max(worst_quad, abs(exact - quad) / exact)
    ser = lacunary_geometric_series(0.5, 20)
    worst_ratio = 0.0
    for n in range(0, 13):
        ratio = lacunary_E_bounds(ser, n, 2.0).ratio
        worst_ratio = max(worst_ratio, abs(ratio - SQRT_PI) / SQRT_PI)
    ok = worst_quad <= 1e-10 and worst_ratio <= 1e-12
    report("C2 best-approximation exactness", ok,
           f"quad dev {worst_quad:.2e}, lacunary ratio dev {worst_ratio:.2e}", t0)
    assert ok


def test_c03_jensen_property_run():
    """1000 seeded random cases, zero violations at 1e-12 relative."""
    t0 = time.time()
    violations = 0
    for i in range(1000):
        rng = case_rng(2718, i)
        exps = np.sort(rng.uniform(0.05, 4.0, size=2))
        alpha, beta = float(exps[0]), float(exps[1]) + 1e-3
        seq = rng.random(64)
        v = check_jensen(seq, alpha, beta)
        if v.lhs > v.rhs * (1.0 + 1e-12):
            violations += 1
    ok = violations == 0
    report("C3 Jensen property run", ok, f"{violations} violations in 1000 cases", t0)
    assert ok


def test_c04_hardy_ratio_stabilisation():
    """Upper ratios <= 2x their n=1024 value; lower ratios >= 0.5x (p <= 1)."""
    t0 = time.time()
    n_values = (32, 64, 128, 256, 512, 1024)
    alphas, lams = (0.5, 1.0, 2.0), (-0.5, 0.0, 0.5)
    sequences = {
        "power": power_sequence(1024, 1.5),
        "random": random_monotone_sequence(case_rng(31415, 0), 1024),
    }
    failures = []
    for alpha in alphas:
        for lam in lams:
            for p in (1.0, 2.0, 3.0):
                for fam, seq in sequences.items():
                    for variant in ("tail", "head"):
                        ratios = [check_hardy_upper(
                            IneqCase(seq=seq[:n], alpha=alpha, lam_exp=lam, p=p, m=2, n=n),
                            variant).ratio for n in n_values]
                        if not all(r <= 2.0 * ratios[-1] for r in ratios):
                            failures.append(("upper", alpha, lam, p, fam, variant))
            for p in (0.25, 0.5, 1.0):
                for fam, seq in sequences.items():
                    for variant in ("tail", "head"):
                        ratios = [check_hardy_lower(
                            IneqCase(seq=seq[:n], alpha=alpha, lam_exp=lam, p=p, m=2, n=n),
                            variant).ratio for n in n_values]
                        if not all(r >= 0.5 * ratios[-1] for r in ratios):
                            failures.append(("lower", alpha, lam, p, fam, variant))
    ok = not failures
    report("C4 Hardy-type stabilisation", ok,
           f"{len(failures)} unstable cells in 3x3x(3+3) grid" if failures
           else "all 216 ratio sweeps stable", t0)
    assert ok, failures[:5]


def test_c05_reverse_copson_positive_and_frozen():
    """Canonical monotone sweep: every ratio > 0; minimum reproduces the frozen bound."""
    t0 = time.time()
    rows = canonical_copson_sweep()
    ratios = [v.ratio for _, v in rows]
    mn = min(ratios)
    ok = mn > 0.0 and mn == pytest.approx(FROZEN_COPSON_MIN, rel=1e-12)
    report("C5 reverse Copson sweep", ok,
           f"{len(rows)} cases, min ratio {mn:.12g} (frozen {FROZEN_COPSON_MIN:.12g})", t0)
    assert mn > 0.0
    assert mn == pytest.approx(FROZEN_COPSON_MIN, rel=1e-12)


def test_c06_series_vs_integral_equivalence(equivalence_fixtures):
    """J(n)/I(1/(n+1)) spread (max/min) <= 50 per fixture and theta; frozen <= 1.12."""
    t0 = time.time()
    fixtures, tables = equivalence_fixtures
    worst = 0.0
    for name, ser in fixtures.items():
        for theta in THETAS:
            params = validate_params(p=2.0, theta=theta, r=0.5, lam=0.3, k=1)
            table = tables[name]
            ratios = []
            for n in EQUIV_NS:
                j = series_form(ser, params, n, nu_max=EQUIV_NU_MAX, table=table)
                i = integral_form(ser, params, 1.0 / (n + 1),
                                  quad_points=EQUIV_NU_MAX, table=table)
                ratios.append(j / i)
            worst = max(worst, max(ratios) / min(ratios))
    ok = worst <= 50.0 and worst <= FROZEN_C6_SPREAD
    report("C6 series/integral equivalence", ok,
           f"worst spread {worst:.4f} over {len(fixtures)} fixtures x {len(THETAS)} theta", t0)
    assert worst <= 50.0
    assert worst <= FROZEN_C6_SPREAD


def test_c07_coefficient_vs_series_equivalence(equivalence_fixtures):
    """coeff(n)/J(n) spread <= 50 for power-law monotone fixtures at p = 2."""
    t0 = time.time()
    fixtures, tables = equivalence_fixtures
    worst = 0.0
    for s in (1.5, 2.0, 3.0):
        name = f"power{s:g}"
        ser = fixtures[name]
        for theta in THETAS:
            params = validate_params(p=2.0, theta=theta, r=0.5, lam=0.3, k=1)
            ratios = []
            for n in EQUIV_NS:
                c = monotone_coefficient_form(ser, params, n)
                j = series_form(ser, params, n, nu_max=EQUIV_NU_MAX, table=tables[name])
                ratios.append(c / j)
            worst = max(worst, max(ratios) / min(ratios))
    ok = worst <= 50.0 and worst <= FROZEN_C7_SPREAD
    report("C7 coefficient/series equivalence", ok, f"worst spread {worst:.4f}", t0)
    assert worst <= 50.0
    assert worst <= FROZEN_C7_SPREAD


def test_c08_lacunary_dyadic_equivalence():
    """D(2^n)/dyadic-E-form spread <= 50 over n in 1..12; reduced form == unreduced."""
    t0 = time.time()
    params = validate_params(p=2.0, theta=1.0, r=0.5, lam=0.25, k=1)
    worst = 0.0
    for q in (0.5, 0.7):
        ser = lacunary_geometric_series(q, 20)
        ratios = []
        for n in range(1, 13):
            d = lacunary_coefficient_form(ser, params, 2 ** n)
            e = dyadic_approx_form(ser, params, n)
            ratios.append(d / e)
        worst = max(worst, max(ratios) / min(ratios))

    ser = lacunary_geometric_series(0.5, 14)
    coeffs, th, r, lam = ser.coeffs, params.theta, params.r, params.lam
    nus = np.arange(1, coeffs.size + 1, dtype=float)
    worst_reduction = 0.0
    for m in (2, 7, 64, 500, 4096):
        tail = float(np.sum(coeffs[m:] ** th * nus[m:] ** (r * th)))
        head = float(np.sum(coeffs[:m] ** th * nus[:m] ** ((r + lam) * th)))
        unreduced = (tail + float(m) ** (-lam * th) * head) ** (1.0 / th)
        reduced = lacunary_coefficient_form(ser, params, m)
        worst_reduction = max(worst_reduction, abs(reduced - unreduced) / unreduced)
    ok = worst <= 50.0 and worst <= FROZEN_C8_SPREAD and worst_reduction <= 1e-12
    report("C8 lacunary/dyadic equivalence", ok,
           f"worst spread {worst:.5f}, reduction dev {worst_reduction:.2e}", t0)
    assert worst <= 50.0
    assert worst <= FROZEN_C8_SPREAD
    assert worst_reduction <= 1e-12


def test_c09_log_power_lacunary_profile():
    """T1, T2 within a band of spread <= 10 on n in 8..60; membership verdicts
    bounded for inv_log(0.5) and constant, unbounded for power(0.1), power(0.25)."""
    t0 = time.time()
    prof = lacunary_log_power_profile(r=1.0, alpha=0.5, theta=1.0, lam=0.25,
                                      n_values=range(1, 61))
    sel = prof.ns >= 8
    t1_spread = prof.t1[sel].max() / prof.t1[sel].min()
    t2_spread = prof.t2[sel].max() / prof.t2[sel].min()
    verdicts = {}
    for phi in (MajorantPhi.inv_log(0.5), MajorantPhi.constant(),
                MajorantPhi.power(0.1), MajorantPhi.power(0.25)):
        rep = membership_of_values(prof.d_ms, prof.d_values, phi)
        verdicts[phi.label()] = rep.verdict
    ok = (t1_spread <= 10.0 and t2_spread <= 10.0
          and verdicts["inv_log(0.5)"] == "bounded"
          and verdicts["constant"] == "bounded"
          and verdicts["power(0.1)"] == "unbounded-trend"
          and verdicts["power(0.25)"] == "unbounded-trend")
    report("C9 lacunary example profile", ok,
           f"T1 spread {t1_spread:.3f}, T2 spread {t2_spread:.3f}, verdicts {verdicts}", t0)
    assert t1_spread <= 10.0 and t2_spread <= 10.0
    assert verdicts["inv_log(0.5)"] == "bounded"
    assert verdicts["constant"] == "bounded"
    assert verdicts["power(0.1)"] == "unbounded-trend"
    assert verdicts["power(0.25)"] == "unbounded-trend"


def test_c10_single_coefficient_threshold():
    """a_nu = nu^-(r+alpha+1-1/p) is bounded against power(alpha); exponent - 0.05 flips it."""
    t0 = time.time()
    p, r, alpha, lam = 2.0, 0.5, 0.2, 0.3
    params = validate_params(p=p, theta=2.0, r=r, lam=lam, k=1)
    ns = 2 ** np.arange(2, 15)
    phi = MajorantPhi.power(alpha)
    verdicts = {}
    for label, perturb in (("threshold", 0.0), ("perturbed", -0.05)):
        expo = r + alpha + 1.0 - 1.0 / p + perturb
        ser = power_law_series(expo, 2 ** 14, with_tail=True)
        vals = [monotone_coefficient_form(ser, params, int(n)) for n in ns]
        verdicts[label] = membership_of_values(ns, vals, phi).verdict
    ok = verdicts["threshold"] == "bounded" and verdicts["perturbed"] == "unbounded-trend"
    report("C10 single-coefficient threshold", ok, f"verdicts {verdicts}", t0)
    assert verdicts["threshold"] == "bounded"
    assert verdicts["perturbed"] == "unbounded-trend"


def test_c11_cli_determinism(tmp_path):
    """Identical config + seed give byte-identical CSV; threads do not matter."""
    t0 = time.time()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "ineq.lemmas = jensen,hardy_upper,hardy_lower,reverse_copson,two_sided\n"
        "ineq.families = power,geometric,random\n"
        "ineq.alpha_values = 0.5,1\n"
        "ineq.lambda_values = 0,0.5\n"
        "ineq.p_values = 1,2\n"
        "ineq.p_lower_values = 0.5,1\n"
        "ineq.m_values = 2\n"
        "ineq.n_values = 32,64\n"
        "ineq.jensen_cases = 200\n"
        "ineq.jensen_len = 32\n")
    outs = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(["ineq-sweep", "--config", str(cfg), "--seed", "11",
                 "--out", str(outs[0]), "--quiet"]) == 0
    assert main(["ineq-sweep", "--config", str(cfg), "--seed", "11",
                 "--out", str(outs[1]), "--quiet"]) == 0
    assert main(["ineq-sweep", "--config", str(cfg), "--seed", "11", "--threads", "8",
                 "--out", str(outs[2]), "--quiet"]) == 0
    same_seed = outs[0].read_bytes() == outs[1].read_bytes()
    same_threads = outs[0].read_bytes() == outs[2].read_bytes()
    ok = same_seed and same_threads
    report("C11 CLI determinism", ok,
           f"seed-repeat identical: {same_seed}, threads 1 vs 8 identical: {same_threads}", t0)
    assert same_seed and same_threads
