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

Every key, with its type and default, is listed in ``CONFIG_KEYS``; any other key,
or a non-integral value for an integer key, is a config error.

Exit codes: 0 success, 2 config errors, 3 fixture/tag errors, 4 truncation budget
exceeded.  CSV output uses a header row, comma separators, '.'-decimals,
17-significant-digit floats and LF line endings, so identical config + seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
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
)
from .function_model import (DEFAULT_H_SAMPLES, MAX_H_SAMPLES, ModulusRequest, auto_grid_size,
                             modulus, modulus_p2_exact)


def _each(ok, what: str) -> tuple:
    """(valid, message) of a list key each of whose entries must pass ok: be what."""
    return (lambda v: all(map(ok, v))), "{key} entries must be " + what + ", got {}"


_POSITIVE = _each(lambda x: 0.0 < x < math.inf, "positive and finite")  # NaN fails too
_LEMMAS = ("jensen", *inequalities.LEMMAS)
_FAMILIES = (*inequalities.SEQUENCE_FAMILIES, "random")
_VARIANTS = ("tail", "head")

#: Every config key: dotted name -> (type, default[, valid, message]).  A list type
#: such as [float] is a comma list of that type; a default of None means the key has
#: none.  A set value v (a whole list) failing valid(v) exits 2: message.format(v, key=key).
CONFIG_KEYS = {
    "series.coeffs": ([float], None),
    "series.generator": (str, None),
    "series.tag": (str, None),
    "series.tail": (str, "none"),
    "params.p": (float, None),
    "params.theta": (float, None),
    "params.r": (float, None),
    "params.lambda": (float, None),
    "params.k": (int, None),
    "phi.kind": (str, None),
    "phi.alpha": (float, None),
    "phi.deltas": ([float], None),
    "phi.values": ([float], None),
    "sweep.n_values": ([int], (2, 4, 8, 16, 32, 64, 128, 256)),
    "sweep.t_values": ([float], tuple(math.pi * i / 8.0 for i in range(1, 9)),
                       *_each(lambda t: 0.0 <= t <= math.pi, "in [0, pi]")),
    "sweep.h_samples": (int, DEFAULT_H_SAMPLES, lambda v: 16 <= v <= MAX_H_SAMPLES,
                        f"invalid sweep: h_samples must be at least 16 and at most {MAX_H_SAMPLES}, "
                        "got {}"),
    "sweep.grid_n": (int, None),
    "sweep.grid_size": (int, 256),
    "tolerances.slope_tol": (float, functionals.DEFAULT_SLOPE_TOL, lambda v: not math.isnan(v),
                             "tolerances.slope_tol must not be NaN"),
    "tolerances.truncation_budget": (float, 0.5, lambda v: v >= 0,  # NaN fails too
                                     "tolerances.truncation_budget must be >= 0 or inf, got {}"),
    "ineq.lemmas": ([str], _LEMMAS, *_each(_LEMMAS.__contains__, "one of " + ",".join(_LEMMAS))),
    "ineq.families": ([str], _FAMILIES,
                      *_each(_FAMILIES.__contains__, "one of " + ",".join(_FAMILIES))),
    "ineq.alpha_values": ([float], (0.5, 1.0, 2.0), *_POSITIVE),
    "ineq.lambda_values": ([float], (-0.5, 0.0, 0.5), *_each(math.isfinite, "finite")),
    "ineq.p_values": ([float], (1.0, 2.0, 3.0), *_POSITIVE),
    "ineq.p_lower_values": ([float], (0.25, 0.5, 1.0), *_POSITIVE),
    "ineq.m_values": ([int], (2,), *_each(lambda x: x >= 1, ">= 1")),
    "ineq.n_values": ([int], (32, 128), *_each(lambda x: x >= 1, ">= 1")),
    "ineq.variants": ([str], _VARIANTS, *_each(_VARIANTS.__contains__, "one of tail,head")),
    "ineq.jensen_cases": (int, 100, lambda v: v >= 0, "ineq.jensen_cases must be >= 0, got {}"),
    "ineq.jensen_len": (int, 32, lambda v: v >= 0, "ineq.jensen_len must be non-negative, got {}"),
}


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


def _check_keys(node: dict, prefix: str = "") -> None:
    for name, value in node.items():
        key = f"{prefix}{name}"
        if isinstance(value, dict):
            _check_keys(value, key + ".")
        elif key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")


def load_config(path: str) -> dict:
    """Read a flat or JSON config file; a key not in CONFIG_KEYS is a ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigNotFound(f"config file not found: {path}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not valid UTF-8: {exc}") from exc
    if p.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("JSON config must be an object")
    else:
        cfg = parse_flat_config(text)
    _check_keys(cfg)
    return cfg


def _coerce(kind, value, what: str):
    """value as kind (int, float or str); lists, booleans and non-integral ints are errors."""
    try:
        if isinstance(value, (list, dict)) or (kind is not str and isinstance(value, bool)):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from None


def setting(cfg: dict, key: str):
    """The value of a CONFIG_KEYS key, coerced to its type and validated; its default when
    absent or null."""
    kind, default, *rule = CONFIG_KEYS[key]
    value = cfg
    for part in key.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    if value is None:
        return default
    value = ([_coerce(kind[0], v, key) for v in (value if isinstance(value, list) else [value])]
             if isinstance(kind, list) else _coerce(kind, value, key))
    if rule and not rule[0](value):
        raise ConfigError(rule[1].format(value, key=key))
    return value


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------

def build_series(cfg: dict, seed: int) -> CosineSeries:
    tag = setting(cfg, "series.tag")  # None: the generator's own tag
    tail = _build_tail(setting(cfg, "series.tail"))
    coeffs = setting(cfg, "series.coeffs")
    if coeffs is not None:
        return CosineSeries(coeffs, tag="general" if tag is None else tag, tail=tail)
    gen = setting(cfg, "series.generator")
    if gen is None:
        raise ConfigError("config needs series.coeffs or series.generator")
    kind, *args = gen.split(":")

    def arg(i: int, convert, default):
        return _coerce(convert, args[i], f"series.generator {gen!r}") if i < len(args) else default

    if kind == "lacunary_geometric":
        if tag not in (None, "lacunary") or tail is not None:
            raise ConfigError(f"series.generator {gen!r} makes a lacunary series with no "
                              "tail: series.tag must be lacunary or unset, series.tail none")
        return lacunary_geometric_series(arg(0, float, 0.5), arg(1, int, 16))
    if kind == "power":
        base = power_law_series(arg(0, float, 2.0), arg(1, int, 4096), with_tail=tail is None)
        tag, tail = "monotone" if tag in (None, "general") else tag, tail or base.tail
    elif kind == "random_bandlimited":
        base = random_bandlimited_series(np.random.default_rng(seed), arg(0, int, 64))
    else:
        raise ConfigError(f"unknown series generator {kind!r}")
    return CosineSeries.from_support(*base.support(), base.n_stored,
                                     tag="general" if tag is None else tag, tail=tail)


def _build_tail(spec: str) -> PowerLawTail | None:
    if spec == "none":
        return None
    parts = spec.split(":")
    if parts[0] != "power" or len(parts) != 3:
        raise ConfigError(f"tail must be 'none' or 'power:c:s', got {spec!r}")
    return PowerLawTail(c=_coerce(float, parts[1], "series.tail"),
                        s=_coerce(float, parts[2], "series.tail"))


def build_params(cfg: dict) -> ClassParams:
    p, theta, r, lam, k = (setting(cfg, f"params.{name}")
                           for name in ("p", "theta", "r", "lambda", "k"))
    if None in (p, theta, r, lam, k):
        raise ConfigError("config needs params.p, .theta, .r, .lambda and .k")
    try:
        return validate_params(p=p, theta=theta, r=r, lam=lam, k=k)
    except ConstraintViolation as exc:
        raise ConfigError(f"invalid params: {exc}") from exc


def build_phi(cfg: dict) -> MajorantPhi:
    kind = setting(cfg, "phi.kind")
    if kind is None:
        raise ConfigError("config needs phi.kind")
    alpha = setting(cfg, "phi.alpha") if kind in ("power", "inv_log") else None
    table = (setting(cfg, "phi.deltas"), setting(cfg, "phi.values")) if kind == "tabulated" else None
    try:
        return MajorantPhi(kind, alpha=alpha, table=table)
    except ConstraintViolation as exc:
        raise ConfigError(f"invalid phi section: {exc}") from exc


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
    h_samples = setting(cfg, "sweep.h_samples")
    grid_n = setting(cfg, "sweep.grid_n")
    n = grid_n if grid_n is not None else auto_grid_size(series)
    include_exact = params.p == 2.0
    columns = ["t", "omega"] + (["omega_p2_exact"] if include_exact else [])
    rows = []
    for t in setting(cfg, "sweep.t_values"):
        rows.append([t, modulus(series, ModulusRequest(params.k, t, params.p, h_samples), n)])
        if include_exact:
            rows[-1].append(modulus_p2_exact(series, params.k, t, h_samples))
    return Report(columns=columns, rows=rows, comments=[f"grid_n={n} h_samples={h_samples}"])


def cmd_best_approx(cfg: dict, args) -> Report:
    series = build_series(cfg, args.seed)
    params = build_params(cfg)
    rows = []
    for n in setting(cfg, "sweep.n_values"):
        res = approximation.best_approx(series, n, params.p)
        rows.append([n, res.value, res.kind])
    return Report(columns=["n", "e_value", "kind"], rows=rows)


def cmd_phi_check(cfg: dict, args) -> Report:
    phi = build_phi(cfg)
    rep = phi_property_check(phi, grid_size=setting(cfg, "sweep.grid_size"))
    row = [phi.kind, phi.alpha, rep.c1, rep.c2, rep.passed]
    return Report(columns=["kind", "alpha", "c1", "c2", "pass"], rows=[row])


def cmd_equivalence(cfg: dict, args) -> Report:
    series = build_series(cfg, args.seed)
    params = build_params(cfg)
    phi = build_phi(cfg)
    n_values = sorted(set(setting(cfg, "sweep.n_values")))
    if not n_values or n_values[0] < 2:
        raise ConfigError("equivalence sweep needs n values >= 2 (phi is evaluated at 1/n)")
    slope_tol = setting(cfg, "tolerances.slope_tol")
    budget = setting(cfg, "tolerances.truncation_budget")
    h_samples = setting(cfg, "sweep.h_samples")
    nu_max = args.max_nu if args.max_nu else max(4 * max(n_values), functionals.MIN_NU_MAX)

    table = functionals.ModulusTable(series, params.k, params.p, h_samples=h_samples)

    def _finite(x):
        return x if x is not None and math.isfinite(x) else None

    max_fraction = 0.0
    rows = []
    series_vals, coeff_vals = [], []
    for n in n_values:
        i_rec = functionals.integral_record(series, params, 1.0 / (n + 1),
                                            quad_points=nu_max, table=table)
        j_rec = functionals.series_record(series, params, n, nu_max=nu_max, table=table)
        if series.tag == "monotone":
            c_val = functionals.monotone_coefficient_form(series, params, n)
        elif series.tag == "lacunary":
            c_val = functionals.lacunary_coefficient_form(series, params, n)
        else:
            c_val = None
        d_rec = None
        if (n & (n - 1)) == 0:
            d_rec = functionals.dyadic_record(series, params, n.bit_length() - 1)
        # a non-finite coefficient form is a coefficient tail that does not converge
        c_fraction = 0.0 if c_val is None or math.isfinite(c_val) else math.inf
        max_fraction = max(max_fraction, i_rec.fraction, j_rec.fraction, c_fraction,
                           d_rec.fraction if d_rec else 0.0)
        series_vals.append(j_rec.value)
        coeff_vals.append(c_val)

        i_c, j_c, c_c = _finite(i_rec.value), _finite(j_rec.value), _finite(c_val)
        d_c = _finite(d_rec.value) if d_rec else None
        rows.append([
            n, i_c, j_c, c_c, d_c, phi_eval(phi, 1.0 / n),
            _safe_div(j_c, i_c), _safe_div(c_c, j_c), _safe_div(c_c, d_c),
        ])
    if max_fraction > budget:
        raise TruncationBudgetError(
            f"truncation remainder fraction {max_fraction:.3g} exceeds budget {budget:g}")

    comments = [f"omega_path={table.path} nu_max={nu_max}"]
    mem = functionals.membership_of_values(n_values, series_vals, phi, slope_tol=slope_tol)
    comments.append(_membership_comment("series_form", mem))
    if all(c is not None for c in coeff_vals):
        mem_c = functionals.membership_of_values(n_values, coeff_vals, phi, slope_tol=slope_tol)
        comments.append(_membership_comment("coeff_form", mem_c))
    columns = ["n", "integral_form", "series_form", "coeff_form", "dyadic_e_form",
               "phi", "ratio_series_integral", "ratio_coeff_series", "ratio_coeff_dyadic"]
    return Report(columns=columns, rows=rows, comments=comments)


def cmd_example(cfg: dict, args) -> Report:
    r, alpha, theta, lam = args.r, args.alpha, args.theta, args.lam
    max_n = args.max_n
    profile = functionals.lacunary_log_power_profile(r, alpha, theta, lam,
                                                     range(1, max_n + 1))
    slope_tol = setting(cfg, "tolerances.slope_tol")
    rows = [[int(n), t1, t2, int(m), d]
            for n, t1, t2, m, d in zip(profile.ns, profile.t1, profile.t2,
                                       profile.d_ms, profile.d_values)]
    comments = [f"sequence: a_mu = 2^(-mu*{r:g}) * (mu+1)^(-({alpha:g}+1/{theta:g}))"]
    for phi in (MajorantPhi.inv_log(alpha), MajorantPhi.constant(),
                MajorantPhi.power(0.1), MajorantPhi.power(0.25)):
        mem = functionals.membership_of_values(profile.d_ms, profile.d_values, phi,
                                               slope_tol=slope_tol)
        comments.append(_membership_comment("coeff_form", mem))
    return Report(columns=["n", "t1", "t2", "d_m", "d_value"], rows=rows, comments=comments)


# --- ineq-sweep ------------------------------------------------------------

INEQ_COLUMNS = ["lemma_id", "variant", "alpha", "lambda_exp", "p", "m", "n",
                "lhs", "rhs", "ratio", "seed", "status", "direction", "clause"]


def cmd_ineq_sweep(cfg: dict, args) -> Report:
    """Rows in grid order: cases are checked in that order, and summed in blocks of one
    n and variant (the Jensen cases form one more block) once they hold enough terms."""
    seed = args.seed
    lemmas, families, alphas, lams, ps, ps_low, ms, nvals, variants = (
        setting(cfg, f"ineq.{key}") for key in (
            "lemmas", "families", "alpha_values", "lambda_values", "p_values",
            "p_lower_values", "m_values", "n_values", "variants"))
    n_jensen, jensen_len = setting(cfg, "ineq.jensen_cases"), setting(cfg, "ineq.jensen_len")
    rows, blocks, samples, held = [], {}, {}, 0

    def evaluate():
        for key, cases in blocks.items():
            inputs = [case for _, case in cases]
            verdicts = (inequalities.jensen_verdicts(inputs) if key is None
                        else inequalities.hardy_verdicts(*key, inputs))
            for (i, _), v in zip(cases, verdicts):
                rows[i][7:10], rows[i][12:] = (v.lhs, v.rhs, v.ratio), (v.direction, v.clause)
        blocks.clear()

    def hold(key, row, case, terms):
        nonlocal held
        rows.append(row)
        blocks.setdefault(key, []).append((len(rows) - 1, case))
        held += terms
        if held > 2 ** 15:   # sequence terms held by cases that wait for their sums
            evaluate()
            held = 0

    for lemma in lemmas:
        if lemma == "jensen":
            for _ in range(n_jensen):
                rng = inequalities.case_rng(seed, len(rows))
                exps = np.sort(rng.uniform(0.1, 4.0, size=2))
                alpha, beta = float(exps[0]), float(max(exps[1], exps[0] + 1e-3))
                hold(None, ["jensen", "", alpha, 0.0, beta, 1, jensen_len, 0, 0, 0, len(rows),
                            "ok", "", ""], (rng.random(jensen_len), alpha, beta), jensen_len)
            continue
        grid = itertools.product(families, alphas, lams, ps_low if lemma == "hardy_lower" else ps,
                                 ms, nvals, variants)
        for family, alpha, lam, p, m, n, variant in grid:
            # IneqCase's checks always pass: alpha, p, m and n are checked where the config
            # is read, and a family's sequence is finite, non-negative and n long
            if family == "random" or (family, n) not in samples:
                used_seed = len(rows) if family == "random" else None
                seq = (inequalities.SEQUENCE_FAMILIES[family](n) if used_seed is None else
                       inequalities.random_monotone_sequence(
                           inequalities.case_rng(seed, used_seed), n))
                samples[family, n] = seq, used_seed, inequalities.non_increasing(seq)
            seq, used_seed, monotone = samples[family, n]
            base = [lemma, variant, alpha, lam, p, m, n]
            try:
                clause = inequalities.clause(lemma, p, m, n, variant, monotone)
            except PreconditionError as exc:
                rows.append(base + [0.0, 0.0, 0.0, used_seed, "skip", "",
                                    str(exc).replace(",", ";")])
                continue
            hold((n, variant), base + [0, 0, 0, used_seed, "ok", "", ""],
                 (seq, alpha, lam, p, clause), n if family == "random" else 0)
    evaluate()
    return Report(columns=INEQ_COLUMNS, rows=rows, comments=[f"seed={seed} cases={len(rows)}"])


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
        if args.command in NEEDS_CONFIG and not args.config:
            raise ConfigError(f"command {args.command!r} requires --config")
        if args.seed < 0:  # numpy's seeding rejects it with a traceback
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
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
