"""One benchmark process: a set-up probe, or one pass over a workload's ops.

run.py starts it as a fresh interpreter, so that set-up time and peak RSS are
those a user's process would see, and reads the one JSON line it prints::

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass|trace \\
        --spawned T --workdir DIR [--spans PATH]

``--spawned`` is the parent's ``time.monotonic()`` just before the start, so
set-up time runs from interpreter start, through ``import trigsmooth``, to the
first timed op.  In trace mode the layer functions are wrapped (spans.py) and
the spans are written to ``--spans`` at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(Exception):
    pass


def import_program():
    """Import trigsmooth from this checkout's src/, never from anywhere else."""
    package = SRC / "trigsmooth"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no trigsmooth sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trigsmooth
    import trigsmooth.cli

    if Path(trigsmooth.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"trigsmooth was imported from {trigsmooth.__file__}")
    return trigsmooth


def run_op(main, argv: list[str], tracer: spans.Tracer | None) -> tuple[int, str, float]:
    """Exit code, stderr text and wall time of one CLI call, as ``trigsmooth`` would exit."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                tracer.begin_op()
                code = tracer.call(spans.OP, main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is what a user sees as exit 1
            traceback.print_exc(file=err)
            code = 1
    return code, err.getvalue(), time.perf_counter() - start


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


def one_pass(args) -> dict:
    ts = import_program()
    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer, ts)
    ops = workloads.prepare(args.workload, args.seed, Path(args.workdir))
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        return {"setup_s": setup_s}

    main = ts.cli.main
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    outcomes = [run_op(main, list(op.argv), tracer) for op in ops]
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    peak_rss_mib = usage1.ru_maxrss / 1024.0  # KiB on Linux

    refs = check.load_refs(workloads.data_seed(args.seed))
    results = []
    for op, (code, stderr, op_wall) in zip(ops, outcomes):
        want = refs.get(op.spec.ref_key)
        got = check.result_record(code, op.out, stderr)
        problems = check.compare(got, want) if want else ["no stored reference"]
        results.append({"op": op.spec.name, "exit": code, "wall_s": op_wall,
                        "problems": problems[:5]})
    report = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mib": peak_rss_mib, "ops": results, "machine": machine_facts()}
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer)
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": report["machine"], "layers": report["layers"],
                       "spans": [[s.sid, s.parent, s.name, s.start, s.end, s.op]
                                 for s in tracer.spans]}, fh)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    try:
        report = one_pass(args)
    except MissingProgram as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
