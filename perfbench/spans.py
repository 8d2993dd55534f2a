"""Per-layer tracing from outside the program.

``install`` replaces the public functions of each trigsmooth module with
wrappers that record a span per call, at the place each name is looked up
(``functionals.modulus_p2_exact`` is the name ``ModulusTable`` calls, the
``cli.COMMANDS`` table holds the subcommands).  No source file changes.

Spans are kept in memory.  Each span has a parent: the innermost open span of
its own thread or, for a thread with none open (an ``ineq-sweep`` pool worker),
the innermost open span of the main thread, which is the command waiting on the
pool.  A span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass

OP = "op"


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    start: float
    end: float
    op: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._op = 0
        # per-op memo for counters that need a property of an argument
        self._support_size: dict[int, tuple[object, int]] = {}
        self._omega_seen: dict[int, tuple[object, set]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self._op))

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def begin_op(self) -> None:
        self._op += 1
        self._support_size.clear()
        self._omega_seen.clear()

    def support_size(self, series) -> int:
        got = self._support_size.get(id(series))
        if got is None:
            import numpy as np
            got = self._support_size[id(series)] = (series, int(np.count_nonzero(series.coeffs)))
        return got[1]

    def omega_repeat(self, table, nu: int) -> bool:
        """True when this table was already asked for w(1/nu): a cache hit."""
        entry = self._omega_seen.get(id(table))
        if entry is None:
            entry = self._omega_seen[id(table)] = (table, set())
        seen = entry[1]
        if nu in seen:
            return True
        seen.add(nu)
        return False


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time and call count, and the share of op time under layer spans."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    op_time = op_covered = 0.0
    for s in spans:
        covered = _covered(children.get(s.sid, []), s.start, s.end)
        if s.name == OP:
            op_time += s.end - s.start
            op_covered += covered
            continue
        self_s[s.name] += s.end - s.start - covered
        calls[s.name] += 1
    coverage = op_covered / op_time if op_time > 0 else 0.0
    return self_s, calls, coverage


# ---------------------------------------------------------------------------
# what is wrapped, and where
# ---------------------------------------------------------------------------

FORMS = ("integral_form", "series_form", "monotone_coefficient_form",
         "lacunary_coefficient_form", "dyadic_approx_form", "membership_of_values")
CHECKS = ("check_jensen", "check_hardy_upper", "check_hardy_lower",
          "check_reverse_copson", "check_two_sided_asymp")
CLI_FUNCS = ("load_config", "build_series", "emit")
COMMANDS = ("modulus", "best-approx", "equivalence", "example", "ineq-sweep", "phi-check")


def cmd_layer(command: str) -> str:
    return "cli.cmd_" + command.replace("-", "_")


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(layer, *fields):
        for f in fields:
            unit, better = {
                "calls": ("count", "lower"), "self_s": ("s", "lower"),
                "terms": ("count", "lower"), "fft_points": ("count", "lower"),
                "spectrum_bytes": ("B", "lower"), "surrogate_calls": ("count", "lower"),
                "scanned": ("count", "lower"), "cache_hits": ("count", "higher"),
            }[f]
            out.append((f"{layer}.{f}", unit, better))

    add("function_model.modulus_p2_exact", "calls", "self_s", "terms")
    add("function_model.modulus", "calls", "self_s", "fft_points", "spectrum_bytes")
    add("function_model.synthesize", "calls", "self_s")
    add("function_model.lp_norm", "calls", "self_s")
    add("approximation.best_approx", "calls", "self_s", "surrogate_calls")
    add("core.CosineSeries.support", "calls", "self_s", "scanned")
    add("core.CosineSeries.max_freq", "calls", "self_s")
    add("functionals.ModulusTable.omega_at", "calls", "cache_hits")
    add("functionals.ModulusTable.omega_upto", "self_s")
    for form in FORMS:
        add(f"functionals.{form}", "self_s")
    add("core.phi_values", "self_s")
    for check in CHECKS:
        add(f"inequalities.{check}", "calls", "self_s")
    for func in CLI_FUNCS:
        add(f"cli.{func}", "self_s")
    for command in COMMANDS:
        add(cmd_layer(command), "self_s")
    out.append(("trace.coverage", "frac", "higher"))
    out.append(("trace.overhead_frac", "frac", "lower"))
    return out


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def install(tracer: Tracer, ts) -> Callable[[], None]:
    """Wrap the layer functions of the trigsmooth package ``ts``; return an undo function.

    A name the package no longer has is skipped, and its metrics read 0.
    """
    undo = []

    def patch(owner, attr, make):
        is_dict = isinstance(owner, dict)
        if (attr not in owner) if is_dict else not hasattr(owner, attr):
            return
        old = owner[attr] if is_dict else owner.__dict__.get(attr, getattr(owner, attr))
        new = make(old)
        if is_dict:
            owner[attr] = new
            undo.append(lambda: owner.__setitem__(attr, old))
        else:
            setattr(owner, attr, new)
            undo.append(lambda: setattr(owner, attr, old))

    def span(name, before=None, after=None):
        return lambda fn: _spanned(tracer, name, fn, before, after)

    fm, approx, fn_, core, ineq, cli = (ts.function_model, ts.approximation, ts.functionals,
                                        ts.core, ts.inequalities, ts.cli)

    def p2_counts(series, k, t, h_samples=fm.DEFAULT_H_SAMPLES):
        if t != 0.0:
            tracer.add("function_model.modulus_p2_exact.terms",
                       h_samples * tracer.support_size(series))

    def grid_counts(series, req, n=fm.DEFAULT_GRID_N):
        if req.t == 0.0:
            return
        tracer.add("function_model.modulus.fft_points", req.h_samples * n)
        # computed from the batch rule of modulus(): max(8, 2**23 // n) shift rows
        # of complex128 spectrum per irfft call
        rows = min(max(8, 2**23 // n), req.h_samples)
        tracer.peak("function_model.modulus.spectrum_bytes", rows * (n // 2 + 1) * 16)

    def surrogate_count(result):
        if result.kind == approx.PARTIAL_SUM:
            tracer.add("approximation.best_approx.surrogate_calls")

    for owner in (fn_, cli):
        patch(owner, "modulus_p2_exact", span("function_model.modulus_p2_exact", p2_counts))
        patch(owner, "modulus", span("function_model.modulus", grid_counts))
    for name in ("synthesize", "lp_norm"):
        patch(approx, name, span(f"function_model.{name}"))
    for owner in (approx, fn_):
        patch(owner, "best_approx", span("approximation.best_approx", after=surrogate_count))
    patch(core, "phi_values", span("core.phi_values"))
    for form in FORMS:
        patch(fn_, form, span(f"functionals.{form}"))
    for check in CHECKS:
        patch(ineq, check, span(f"inequalities.{check}"))
    for func in CLI_FUNCS:
        patch(cli, func, span(f"cli.{func}"))
    for command in COMMANDS:
        patch(cli.COMMANDS, command, span(cmd_layer(command)))

    series_cls, table_cls = core.CosineSeries, fn_.ModulusTable
    patch(series_cls, "support", span(
        "core.CosineSeries.support",
        lambda self: tracer.add("core.CosineSeries.support.scanned", self.coeffs.size)))
    patch(series_cls, "max_freq",
          lambda prop: property(_spanned(tracer, "core.CosineSeries.max_freq", prop.fget)))
    patch(table_cls, "omega_upto", span("functionals.ModulusTable.omega_upto"))

    def omega_at(fn):
        def wrapper(self, nu):
            tracer.add("functionals.ModulusTable.omega_at.calls")
            if tracer.omega_repeat(self, nu):
                tracer.add("functionals.ModulusTable.omega_at.cache_hits")
            return fn(self, nu)
        return wrapper
    patch(table_cls, "omega_at", omega_at)

    def restore():
        for step in reversed(undo):
            step()
    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric value except trace.overhead_frac."""
    self_s, calls, coverage = self_times(tracer.spans)
    values = {}
    for name, _unit, _better in layer_metric_names():
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif field == "calls" and layer in calls:
            values[name] = float(calls[layer])
        else:
            values[name] = float(tracer.counts.get(name, 0.0))
    values["trace.coverage"] = coverage
    values.pop("trace.overhead_frac")
    return values
