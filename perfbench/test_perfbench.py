"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The pass test runs every workload's ops once, in-process and without set-up
probes or repeats (about half a minute on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import threading
from pathlib import Path

import pytest

import check
import run
import spans
import worker
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ts():
    return worker.import_program()


def _pass(ts, workload: str, seed: int, workdir: Path, refs: dict | None = None) -> dict:
    """One untraced pass checked against refs, shaped like a worker report."""
    refs = refs if refs is not None else check.load_refs(workloads.data_seed(seed))
    results = []
    for op in workloads.prepare(workload, seed, workdir):
        code, stderr, _wall = worker.run_op(ts.cli.main, list(op.argv), None)
        got = check.result_record(code, op.out, stderr)
        results.append({"op": op.spec.name, "exit": code,
                        "problems": check.compare(got, refs[op.spec.ref_key])})
    return {"ops": results}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload_passes_the_check(ts, workload, tmp_path):
    for seed in workloads.REFERENCE_SEEDS:
        if seed != workloads.REFERENCE_SEEDS[0] and not any(
                spec.seeded for spec in workloads.WORKLOADS[workload]):
            continue
        report = _pass(ts, workload, seed, tmp_path / str(seed))
        for op in report["ops"]:
            assert op["problems"] == [], op
        attempted, failed, correct = run._op_totals([report])
        assert correct
        # the README op exits 4 (truncation budget), a known defect kept on purpose
        assert failed == (1 if workload == "equiv_p2_dense" else 0)


def _perturb_first_number(csv: str, factor: float) -> str:
    lines = csv.split("\n")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        for j, cell in enumerate(cells):
            if re.fullmatch(r"[+-]?\d+\.\d+(e[+-]?\d+)?", cell) and float(cell) != 0.0:
                cells[j] = repr(float(cell) * factor)
                lines[i] = ",".join(cells)
                return "\n".join(lines)
    raise AssertionError("no numeric cell to perturb")


@pytest.mark.parametrize("factor, flagged", [(1 + 1e-9, True), (1 + 1e-14, False)])
def test_perturbed_reference_cell_counts_as_failed_op(ts, tmp_path, factor, flagged):
    refs = check.load_refs(0)
    refs["phi_power"] = dict(refs["phi_power"], csv=_perturb_first_number(refs["phi_power"]["csv"],
                                                                          factor))
    report = _pass(ts, "ineq_sweep", 0, tmp_path, refs)
    attempted, failed, correct = run._op_totals([report])
    assert attempted == len(workloads.WORKLOADS["ineq_sweep"])
    assert (failed, correct) == ((1, False) if flagged else (0, True))


def test_exit_code_and_text_cells_must_match_exactly():
    want = {"exit": 0, "csv": "kind,pass\npower,true\n", "stderr": ""}
    assert check.compare(dict(want), want) == []
    assert check.compare(dict(want, exit=3), want)
    assert check.compare(dict(want, csv="kind,pass\npower,false\n"), want)
    assert check.compare(dict(want, csv="kind,pass\npower,true\npower,true\n"), want)


def test_traced_run_reports_every_per_layer_metric():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "equiv_p2_sparse", "--seed", "0", "--trace", "1"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = [name for name, _unit, _better in spans.layer_metric_names()]
    assert set(result["metrics"]) == set(names)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == names
    metrics = result["metrics"]
    assert metrics["core.CosineSeries.support.calls"]["value"] > 0
    assert metrics["functionals.ModulusTable.omega_at.cache_hits"]["value"] > 0
    assert 0.9 < metrics["trace.coverage"]["value"] <= 1.0


def test_benchmark_json_lists_the_reported_end_to_end_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_worker_thread_spans_belong_to_the_waiting_command():
    tracer = spans.Tracer()

    def pool_work():
        tracer.call("inner", lambda: None)

    def command():
        worker_thread = threading.Thread(target=pool_work)
        worker_thread.start()
        worker_thread.join(timeout=10)
        assert not worker_thread.is_alive()

    tracer.call(spans.OP, tracer.call, "cmd", command)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["cmd"].sid
    assert by_name["cmd"].parent == by_name[spans.OP].sid
    self_s, calls, coverage = spans.self_times(tracer.spans)
    cmd = by_name["cmd"]
    inner = by_name["inner"]
    assert self_s["cmd"] == pytest.approx((cmd.end - cmd.start) - (inner.end - inner.start))
    assert calls == {"cmd": 1, "inner": 1}
    op = by_name[spans.OP]
    assert coverage == pytest.approx((cmd.end - cmd.start) / (op.end - op.start))


def test_install_wraps_and_restores_the_layer_functions(ts):
    tracer = spans.Tracer()
    originals = (ts.functionals.modulus_p2_exact, ts.cli.COMMANDS["equivalence"],
                 ts.core.CosineSeries.support, ts.core.CosineSeries.__dict__["max_freq"])
    restore = spans.install(tracer, ts)
    try:
        assert ts.functionals.modulus_p2_exact is not originals[0]
        series = ts.lacunary_geometric_series(0.5, 4)
        ts.functionals.ModulusTable(series, 1, 2.0).omega_upto(3)
        assert tracer.counts["function_model.modulus_p2_exact.terms"] == 3 * 257 * 4
    finally:
        restore()
    assert (ts.functionals.modulus_p2_exact, ts.cli.COMMANDS["equivalence"],
            ts.core.CosineSeries.support, ts.core.CosineSeries.__dict__["max_freq"]) == originals
