"""trigsmooth benchmark: end-to-end and per-layer metrics of the CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its src/.
Each workload (workloads.py) is a list of ``trigsmooth.cli.main`` calls whose
outputs are checked against stored references (check.py).

With ``--trace 0`` the run starts several set-up probes and then fresh worker
processes, one pass each, until the next pass would end after ``--seconds``;
it reports medians over them of wall time, CPU time, peak RSS and set-up time,
plus the share of ops that exit 0 and pass the check.  With ``--trace 1`` it
runs one plain pass and one traced pass (spans.py) and reports the per-layer
metrics; the ratio of the two walls is the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Machine facts and every sample go to
``.perfbench_out/`` in the checkout.  Thread counts of BLAS and scipy.fft are
left at their defaults, as users run them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: set-up probes per run, besides the set-up of each pass process
SETUP_PROBES = 5
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"),
              ("setup_s", "s"), ("ok_frac", "frac"))


class WorkerFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.workdir = WORK_DIR / f"run-{time.time_ns()}"
        self._n = 0

    def spawn(self, mode: str, spans_path: Path | None = None) -> dict:
        """Start one worker process, wait for it and return its report."""
        self._n += 1
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode,
               "--workdir", str(self.workdir / str(self._n))]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time")
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker timed out after {exc.timeout:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _op_totals(passes: list[dict]) -> tuple[int, int, bool]:
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["exit"] != 0 or op["problems"])
    correct = not any(op["problems"] for op in ops)
    return len(ops), failed, correct


def _print_ops(passes: list[dict]) -> None:
    for p in passes:
        for op in p["ops"]:
            status = "ok" if op["exit"] == 0 and not op["problems"] else "FAILED"
            print(f"  {op['op']}: exit {op['exit']}, {op['wall_s']:.3f} s, {status}")
            for problem in op["problems"]:
                print(f"    check: {problem}")


def measure(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[float]]:
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        passes.append(runner.spawn("pass"))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    attempted, failed, _ = _op_totals(passes)
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(setups),
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, passes, setups


def measure_layers(runner: Runner, spans_path: Path) -> tuple[dict, list[dict]]:
    plain = runner.spawn("pass")
    traced = runner.spawn("trace", spans_path)
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in spans.layer_metric_names()}

    self_s = {name[: -len(".self_s")]: v for name, v in values.items() if name.endswith(".self_s")}
    busy = sum(self_s.values())
    print(f"traced wall {traced['wall_s']:.3f} s, plain wall {plain['wall_s']:.3f} s, "
          f"coverage {values['trace.coverage']:.3f}")
    for layer, v in sorted(self_s.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  self {layer}: {v:.3f} s ({v / busy:.1%} of layer self time)")
    for prefix in ("inequalities.", "cli."):
        share = sum(v for k, v in self_s.items() if k.startswith(prefix))
        print(f"  {prefix}* self time: {share:.3f} s ({share / busy:.1%})")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trigsmooth" / "__init__.py").is_file():
        print(f"run.py: no trigsmooth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = Runner(args.workload, args.seed, time.monotonic() + RUN_LIMIT_S)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, passes = measure_layers(runner, stem.with_name(stem.name + "-spans.json"))
            setups = []
        else:
            metrics, passes, setups = measure(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    attempted, failed, correct = _op_totals(passes)
    machine = passes[0]["machine"]
    print(f"workload {args.workload} seed {args.seed} (data seed "
          f"{workloads.data_seed(args.seed)}): {len(passes)} passes, "
          f"failed_frac {failed / attempted:.3f}")
    _print_ops(passes[:1] + [p for p in passes[1:] if any(op["problems"] for op in p["ops"])])
    print("machine " + json.dumps(machine, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, setup_samples=setups,
                  passes=[{k: v for k, v in p.items() if k not in ("machine", "layers")}
                          for p in passes])
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
