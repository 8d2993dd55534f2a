"""Command-line front end.

Subcommands: modulus | best-approx | equivalence | example | ineq-sweep | phi-check.

A run is described by a config file, either flat ``key = value`` text with dotted
sections or an equivalent JSON document::

    series.generator = power:2:4096     # or series.coeffs = 1,0.5,0.25
    series.tag = monotone
    series.tail = power:1:2             # "none" or power:c:s
    params.p = 2
    params.theta = 1
    params.r = 0.5
    params.lambda = 0.3
    params.k = 1
    phi.kind = power
    phi.alpha = 0.4
    sweep.n_values = 2,4,8,16,32,64,128,256

Exit codes: 0 success, 2 config errors, 3 fixture/tag errors, 4 truncation budget
exceeded.  CSV output uses a header row, comma separators, '.'-decimals,
17-significant-digit floats and LF line endings, so identical config + seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import approximation, functionals, inequalities
from .core import (
    ClassParams,
    CosineSeries,
    MajorantPhi,
    PowerLawTail,
    lacunary_geometric_series,
    phi_eval,
    phi_property_check,
    power_law_series,
    random_bandlimited_series,
    validate_params,
)
from .errors import (
    ConfigError,
    ConfigNotFound,
    ConstraintViolation,
    PreconditionError,
    SmoothnessError,
    TruncationBudgetError,
    TruncationWarning,
)
from .function_model import DEFAULT_H_SAMPLES, ModulusRequest, auto_grid_size, modulus, modulus_p2_exact

DEFAULT_SLOPE_TOL = functionals.DEFAULT_SLOPE_TOL
DEFAULT_TRUNCATION_BUDGET = 0.5
DEFAULT_EQUIV_N = (2, 4, 8, 16, 32, 64, 128, 256)


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------

def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_value(text: str):
    if "," in text:
        return [_parse_scalar(part) for part in text.split(",") if part.strip() != ""]
    return _parse_scalar(text)


def parse_flat_config(text: str) -> dict:
    """Parse ``dotted.key = value`` lines into a nested dict."""
    root: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        node = root
        parts = [p.strip() for p in key.strip().split(".")]
        if any(not p for p in parts):
            raise ConfigError(f"line {lineno}: empty key component in {key!r}")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {lineno}: {part!r} is both a value and a section")
        node[parts[-1]] = _parse_value(value)
    return root


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigNotFound(f"config file not found: {path}")
    text = p.read_text()
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("JSON config must be an object")
        return cfg
    return parse_flat_config(text)


def cfg_get(cfg: dict, dotted: str, default=None):
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _as_list(value) -> list:
    if value is None:
        return []
    if isinstance(value, list):
        return value
    return [value]


def _number(convert, value, what: str):
    """convert(value) for convert in (int, float), a bad value becoming a ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be {'an integer' if convert is int else 'a number'}, "
                          f"got {value!r}") from None


def _cfg_number(cfg: dict, dotted: str, convert, default):
    return _number(convert, cfg_get(cfg, dotted, default), dotted)


def _as_int_list(value, what: str) -> list[int]:
    out = []
    for v in _as_list(value):
        if not isinstance(v, (int,)) or isinstance(v, bool):
            raise ConfigError(f"{what} must be integers, got {v!r}")
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def build_series(cfg: dict, seed: int) -> CosineSeries:
    scfg = cfg_get(cfg, "series")
    if not isinstance(scfg, dict):
        raise ConfigError("config needs a [series] section (coeffs or generator)")
    tag = scfg.get("tag", "general")
    tail = _build_tail(scfg.get("tail"))
    if "coeffs" in scfg:
        coeffs = [_number(float, c, "series.coeffs") for c in _as_list(scfg["coeffs"])]
        return CosineSeries(np.asarray(coeffs, dtype=float), tag=tag, tail=tail)
    gen = scfg.get("generator")
    if gen is None:
        raise ConfigError("series section needs either 'coeffs' or 'generator'")
    parts = str(gen).split(":")
    kind, args = parts[0], parts[1:]
    what = f"series.generator {gen!r}"
    if kind == "power":
        s = _number(float, args[0], what) if args else 2.0
        n_terms = _number(int, args[1], what) if len(args) > 1 else 4096
        base = power_law_series(s, n_terms, with_tail=tail is None)
        return CosineSeries(base.coeffs, tag=tag if tag != "general" else "monotone",
                            tail=tail if tail is not None else base.tail)
    if kind == "lacunary_geometric":
        ratio = _number(float, args[0], what) if args else 0.5
        levels = _number(int, args[1], what) if len(args) > 1 else 16
        return lacunary_geometric_series(ratio, levels)
    if kind == "random_bandlimited":
        max_freq = _number(int, args[0], what) if args else 64
        rng = np.random.default_rng(seed)
        base = random_bandlimited_series(rng, max_freq)
        return CosineSeries(base.coeffs, tag=tag, tail=tail)
    raise ConfigError(f"unknown series generator {kind!r}")


def _build_tail(spec) -> PowerLawTail | None:
    if spec is None or spec == "none":
        return None
    parts = str(spec).split(":")
    if parts[0] != "power" or len(parts) != 3:
        raise ConfigError(f"tail must be 'none' or 'power:c:s', got {spec!r}")
    return PowerLawTail(c=_number(float, parts[1], "series.tail"),
                        s=_number(float, parts[2], "series.tail"))


def build_params(cfg: dict) -> ClassParams:
    pcfg = cfg_get(cfg, "params")
    if not isinstance(pcfg, dict):
        raise ConfigError("config needs a [params] section with p, theta, r, lambda, k")
    try:
        return validate_params(
            p=_number(float, pcfg["p"], "params.p"),
            theta=_number(float, pcfg["theta"], "params.theta"),
            r=_number(float, pcfg["r"], "params.r"),
            lam=_number(float, pcfg["lambda"], "params.lambda"),
            k=_number(int, pcfg["k"], "params.k"),
        )
    except KeyError as exc:
        raise ConfigError(f"params section missing {exc}") from exc
    except ConstraintViolation as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def build_phi(cfg: dict) -> MajorantPhi:
    pcfg = cfg_get(cfg, "phi")
    if not isinstance(pcfg, dict) or "kind" not in pcfg:
        raise ConfigError("config needs a [phi] section with a 'kind'")
    kind = pcfg["kind"]
    try:
        if kind == "power":
            return MajorantPhi.power(_number(float, pcfg["alpha"], "phi.alpha"))
        if kind == "inv_log":
            return MajorantPhi.inv_log(_number(float, pcfg["alpha"], "phi.alpha"))
        if kind == "constant":
            return MajorantPhi.constant()
        if kind == "tabulated":
            return MajorantPhi.tabulated(_as_list(pcfg["deltas"]), _as_list(pcfg["values"]))
    except (KeyError, ConstraintViolation) as exc:
        raise ConfigError(f"invalid phi section: {exc}") from exc
    raise ConfigError(f"unknown phi kind {kind!r}")


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

@dataclass
class Report:
    columns: list[str]
    rows: list[list]
    comments: list[str] = field(default_factory=list)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    x = float(value)
    if not math.isfinite(x):
        raise SmoothnessError("non-finite numeric cell in report")
    return f"{x:.17g}"


def render_csv(report: Report) -> str:
    lines = [",".join(report.columns)]
    for row in report.rows:
        lines.append(",".join(_fmt_cell(cell) for cell in row))
    for comment in report.comments:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def render_json(report: Report, command: str) -> str:
    def cell(v):
        if isinstance(v, (np.integer,)):
            return int(v)
        if isinstance(v, (np.floating,)):
            v = float(v)
        if isinstance(v, float) and not math.isfinite(v):
            raise SmoothnessError("non-finite numeric cell in report")
        return v

    doc = {
        "command": command,
        "columns": report.columns,
        "rows": [[cell(v) for v in row] for row in report.rows],
        "comments": report.comments,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(report: Report, command: str, out: str | None, fmt: str, quiet: bool) -> None:
    text = render_csv(report) if fmt == "csv" else render_json(report, command)
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
        if not quiet:
            print(f"{command}: wrote {len(report.rows)} rows to {out}")
    else:
        sys.stdout.write(text)


def _safe_div(a, b):
    if a is None or b is None or b == 0.0:
        return None
    return a / b


def _membership_comment(name: str, rep: functionals.MembershipReport) -> str:
    if rep.verdict == functionals.VERDICT_DIVERGENT:
        return f"membership {name} vs {rep.phi.label()}: verdict=divergent"
    return (f"membership {name} vs {rep.phi.label()}: verdict={rep.verdict} "
            f"sup_ratio={rep.sup_ratio:.17g} tail_slope={rep.tail_slope:.17g}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_modulus(cfg: dict, args) -> Report:
    series = build_series(cfg, args.seed)
    params = build_params(cfg)
    t_values = [_number(float, t, "sweep.t_values")
                for t in _as_list(cfg_get(cfg, "sweep.t_values"))]
    if not t_values:
        t_values = [math.pi * (i + 1) / 8.0 for i in range(8)]
    h_samples = _cfg_number(cfg, "sweep.h_samples", int, DEFAULT_H_SAMPLES)
    grid_n = cfg_get(cfg, "sweep.grid_n")
    n = _number(int, grid_n, "sweep.grid_n") if grid_n is not None else auto_grid_size(series)
    try:
        reqs = [ModulusRequest(k=params.k, t=t, p=params.p, h_samples=h_samples) for t in t_values]
    except ConstraintViolation as exc:
        raise ConfigError(f"invalid sweep: {exc}") from exc
    include_exact = params.p == 2.0
    columns = ["t", "omega"] + (["omega_p2_exact"] if include_exact else [])
    rows = []
    for req in reqs:
        row = [req.t, modulus(series, req, n)]
        if include_exact:
            row.append(modulus_p2_exact(series, params.k, req.t, h_samples))
        rows.append(row)
    return Report(columns=columns, rows=rows, comments=[f"grid_n={n} h_samples={h_samples}"])


def cmd_best_approx(cfg: dict, args) -> Report:
    series = build_series(cfg, args.seed)
    params = build_params(cfg)
    n_values = _as_int_list(cfg_get(cfg, "sweep.n_values", list(DEFAULT_EQUIV_N)), "sweep.n_values")
    rows = []
    for n in n_values:
        res = approximation.best_approx(series, n, params.p)
        rows.append([n, res.value, res.kind])
    return Report(columns=["n", "e_value", "kind"], rows=rows)


def cmd_phi_check(cfg: dict, args) -> Report:
    phi = build_phi(cfg)
    grid_size = _cfg_number(cfg, "sweep.grid_size", int, 256)
    rep = phi_property_check(phi, grid_size=grid_size)
    row = [phi.kind, phi.alpha if phi.alpha is not None else None, rep.c1, rep.c2, rep.passed]
    return Report(columns=["kind", "alpha", "c1", "c2", "pass"], rows=[row])


def cmd_equivalence(cfg: dict, args) -> Report:
    series = build_series(cfg, args.seed)
    params = build_params(cfg)
    phi = build_phi(cfg)
    n_values = _as_int_list(cfg_get(cfg, "sweep.n_values", list(DEFAULT_EQUIV_N)), "sweep.n_values")
    if any(n < 2 for n in n_values):
        raise ConfigError("equivalence sweep needs n >= 2 (phi is evaluated at 1/n)")
    n_values = sorted(set(n_values))
    slope_tol = _cfg_number(cfg, "tolerances.slope_tol", float, DEFAULT_SLOPE_TOL)
    budget = _cfg_number(cfg, "tolerances.truncation_budget", float, DEFAULT_TRUNCATION_BUDGET)
    h_samples = _cfg_number(cfg, "sweep.h_samples", int, DEFAULT_H_SAMPLES)
    nu_max = args.max_nu if args.max_nu else max(4 * max(n_values), functionals.MIN_NU_MAX)

    table = functionals.ModulusTable(series, params.k, params.p, h_samples=h_samples)

    def _finite(x):
        return x if x is not None and math.isfinite(x) else None

    max_fraction = 0.0
    rows = []
    series_vals, coeff_vals = [], []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TruncationWarning)
        for n in n_values:
            i_val = functionals.integral_form(series, params, 1.0 / (n + 1),
                                              quad_points=nu_max, table=table)
            j_val = functionals.series_form(series, params, n, nu_max=nu_max, table=table)
            if series.tag == "monotone":
                c_val = functionals.monotone_coefficient_form(series, params, n)
            elif series.tag == "lacunary":
                c_val = functionals.lacunary_coefficient_form(series, params, n)
            else:
                c_val = None
            if (n & (n - 1)) == 0:
                level = n.bit_length() - 1
                d_val = functionals.dyadic_approx_form(series, params, level)
            else:
                d_val = None
            series_vals.append(j_val)
            coeff_vals.append(c_val)

            i_c, j_c, c_c, d_c = _finite(i_val), _finite(j_val), _finite(c_val), _finite(d_val)
            rows.append([
                n, i_c, j_c, c_c, d_c, phi_eval(phi, 1.0 / n),
                _safe_div(j_c, i_c), _safe_div(c_c, j_c), _safe_div(c_c, d_c),
            ])
    for w in caught:
        if isinstance(w.message, TruncationWarning):
            max_fraction = max(max_fraction, w.message.fraction)
    if max_fraction > budget:
        raise TruncationBudgetError(
            f"truncation remainder fraction {max_fraction:.3g} exceeds budget {budget:g}")

    comments = [f"omega_path={table.path} nu_max={nu_max}"]
    mem = functionals.membership_of_values(n_values, series_vals, phi,
                                           label="series_form", slope_tol=slope_tol)
    comments.append(_membership_comment("series_form", mem))
    if all(c is not None for c in coeff_vals):
        mem_c = functionals.membership_of_values(n_values, coeff_vals, phi,
                                                 label="coeff_form", slope_tol=slope_tol)
        comments.append(_membership_comment("coeff_form", mem_c))
    columns = ["n", "integral_form", "series_form", "coeff_form", "dyadic_e_form",
               "phi", "ratio_series_integral", "ratio_coeff_series", "ratio_coeff_dyadic"]
    return Report(columns=columns, rows=rows, comments=comments)


def cmd_example(cfg: dict, args) -> Report:
    r, alpha, theta, lam = args.r, args.alpha, args.theta, args.lam
    max_n = args.max_n
    profile = functionals.lacunary_log_power_profile(r, alpha, theta, lam,
                                                     range(1, max_n + 1))
    slope_tol = _cfg_number(cfg, "tolerances.slope_tol", float, DEFAULT_SLOPE_TOL)
    rows = [[int(n), t1, t2, int(m), d]
            for n, t1, t2, m, d in zip(profile.ns, profile.t1, profile.t2,
                                       profile.d_ms, profile.d_values)]
    comments = [f"sequence: a_mu = 2^(-mu*{r:g}) * (mu+1)^(-({alpha:g}+1/{theta:g}))"]
    for phi in (MajorantPhi.inv_log(alpha), MajorantPhi.constant(),
                MajorantPhi.power(0.1), MajorantPhi.power(0.25)):
        mem = functionals.membership_of_values(profile.d_ms, profile.d_values, phi,
                                               label="coeff_form", slope_tol=slope_tol)
        comments.append(_membership_comment("coeff_form", mem))
    return Report(columns=["n", "t1", "t2", "d_m", "d_value"], rows=rows, comments=comments)


# --- ineq-sweep ------------------------------------------------------------

INEQ_COLUMNS = ["lemma_id", "variant", "alpha", "lambda_exp", "p", "m", "n",
                "lhs", "rhs", "ratio", "seed", "status", "direction", "clause"]

DEFAULT_INEQ = {
    "lemmas": ["jensen", "hardy_upper", "hardy_lower", "reverse_copson", "two_sided"],
    "families": ["power", "geometric", "log_power", "random"],
    "alpha_values": [0.5, 1, 2],
    "lambda_values": [-0.5, 0.0, 0.5],
    "p_values": [1, 2, 3],
    "p_lower_values": [0.25, 0.5, 1],
    "m_values": [2],
    "n_values": [32, 128],
    "variants": ["tail", "head"],
    "jensen_cases": 100,
    "jensen_len": 32,
}


def _ineq_cfg(cfg: dict, key: str):
    return cfg_get(cfg, f"ineq.{key}", DEFAULT_INEQ[key])


def _ineq_numbers(cfg: dict, key: str, convert) -> list:
    return [_number(convert, x, f"ineq.{key}") for x in _as_list(_ineq_cfg(cfg, key))]


def _make_sequence(family: str, n: int, seed: int, index: int) -> tuple[np.ndarray, int | None]:
    if family == "random":
        rng = inequalities.case_rng(seed, index)
        return inequalities.random_monotone_sequence(rng, n), index
    try:
        return inequalities.SEQUENCE_FAMILIES[family](n), None
    except KeyError:
        raise ConfigError(f"unknown sequence family {family!r}") from None


def _ineq_case_specs(cfg: dict, seed: int) -> list[dict]:
    specs = []
    index = 0
    lemmas = [str(x) for x in _as_list(_ineq_cfg(cfg, "lemmas"))]
    families = [str(x) for x in _as_list(_ineq_cfg(cfg, "families"))]
    alphas = _ineq_numbers(cfg, "alpha_values", float)
    lams = _ineq_numbers(cfg, "lambda_values", float)
    ps = _ineq_numbers(cfg, "p_values", float)
    ps_low = _ineq_numbers(cfg, "p_lower_values", float)
    ms = _ineq_numbers(cfg, "m_values", int)
    nvals = _ineq_numbers(cfg, "n_values", int)
    n_jensen = _number(int, _ineq_cfg(cfg, "jensen_cases"), "ineq.jensen_cases")
    jensen_len = _number(int, _ineq_cfg(cfg, "jensen_len"), "ineq.jensen_len")
    variants = [str(x) for x in _as_list(_ineq_cfg(cfg, "variants"))]

    for lemma in lemmas:
        if lemma == "jensen":
            for _ in range(n_jensen):
                specs.append({"index": index, "lemma": "jensen", "len": jensen_len,
                              "seed": seed})
                index += 1
            continue
        p_list = ps_low if lemma == "hardy_lower" else ps
        for family in families:
            for alpha in alphas:
                for lam in lams:
                    for p in p_list:
                        for m in ms:
                            for n in nvals:
                                for variant in variants:
                                    specs.append({
                                        "index": index, "lemma": lemma, "family": family,
                                        "alpha": alpha, "lam": lam, "p": p, "m": m,
                                        "n": n, "variant": variant, "seed": seed,
                                    })
                                    index += 1
    return specs


def _eval_ineq_case(spec: dict) -> list:
    index = spec["index"]
    if spec["lemma"] == "jensen":
        rng = inequalities.case_rng(spec["seed"], index)
        exps = np.sort(rng.uniform(0.1, 4.0, size=2))
        alpha, beta = float(exps[0]), float(max(exps[1], exps[0] + 1e-3))
        seq = rng.random(spec["len"])
        v = inequalities.check_jensen(seq, alpha, beta)
        return ["jensen", "", alpha, 0.0, beta, 1, spec["len"],
                v.lhs, v.rhs, v.ratio, index, "ok", v.direction, v.clause]

    seq, used_seed = _make_sequence(spec["family"], spec["n"], spec["seed"], index)
    base = [spec["lemma"], spec["variant"], spec["alpha"], spec["lam"], spec["p"],
            spec["m"], spec["n"]]
    tail = [used_seed if used_seed is not None else None]
    try:
        case = inequalities.IneqCase(seq=seq, alpha=spec["alpha"], lam_exp=spec["lam"],
                                     p=spec["p"], m=spec["m"], n=spec["n"])
        if spec["lemma"] == "hardy_upper":
            v = inequalities.check_hardy_upper(case, spec["variant"])
        elif spec["lemma"] == "hardy_lower":
            v = inequalities.check_hardy_lower(case, spec["variant"])
        elif spec["lemma"] == "reverse_copson":
            v = inequalities.check_reverse_copson(case, spec["variant"])
        elif spec["lemma"] == "two_sided":
            v = replace(inequalities.check_two_sided_asymp(case, spec["variant"])[0],
                        direction="two-sided")
        else:
            raise ConfigError(f"unknown lemma {spec['lemma']!r}")
        return base + [v.lhs, v.rhs, v.ratio] + tail + ["ok", v.direction, v.clause]
    except PreconditionError as exc:
        return base + [0.0, 0.0, 0.0] + tail + ["skip", "", str(exc).replace(",", ";")]


def cmd_ineq_sweep(cfg: dict, args) -> Report:
    specs = _ineq_case_specs(cfg, args.seed)
    rows = [_eval_ineq_case(s) for s in specs]
    return Report(columns=INEQ_COLUMNS, rows=rows,
                  comments=[f"seed={args.seed} cases={len(specs)}"])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "modulus": cmd_modulus,
    "best-approx": cmd_best_approx,
    "equivalence": cmd_equivalence,
    "example": cmd_example,
    "ineq-sweep": cmd_ineq_sweep,
    "phi-check": cmd_phi_check,
}

NEEDS_CONFIG = {"modulus", "best-approx", "equivalence", "ineq-sweep", "phi-check"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigsmooth",
        description="Smoothness-class functionals and inequality sweeps for cosine series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("--config", default=None, help="config file (flat key=value or JSON)")
        cp.add_argument("--out", default=None, help="output path (default: stdout)")
        cp.add_argument("--format", default="csv", choices=("csv", "json"))
        cp.add_argument("--seed", type=int, default=0)
        cp.add_argument("--quiet", action="store_true")
        if name == "ineq-sweep":
            cp.add_argument("--threads", type=int, default=1,
                            help="accepted for compatibility; has no effect")
        if name == "equivalence":
            cp.add_argument("--max-nu", dest="max_nu", type=int, default=0,
                            help="truncation range for the omega-based sums")
        if name == "example":
            cp.add_argument("--r", type=float, default=1.0)
            cp.add_argument("--alpha", type=float, default=0.5)
            cp.add_argument("--theta", type=float, default=1.0)
            cp.add_argument("--lam", type=float, default=0.25)
            cp.add_argument("--max-n", dest="max_n", type=int, default=60)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in NEEDS_CONFIG:
            if not args.config:
                raise ConfigError(f"command {args.command!r} requires --config")
            cfg = load_config(args.config)
        else:
            cfg = load_config(args.config) if args.config else {}
        report = COMMANDS[args.command](cfg, args)
        emit(report, args.command, args.out, args.format, args.quiet)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TruncationBudgetError as exc:
        print(f"truncation budget exceeded: {exc}", file=sys.stderr)
        return 4
    except SmoothnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
