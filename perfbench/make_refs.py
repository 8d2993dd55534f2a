"""Regenerate the stored reference outputs in perfbench/refs/.

    python3 perfbench/make_refs.py

Runs every op of every workload once per reference seed and stores its exit
code, CSV output and stderr.  Only regenerate when a change to the program is
meant to change its output, and say so in that change.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import check
import worker
import workloads


def main() -> int:
    ts = worker.import_program()
    shared: dict[str, dict] = {}
    for seed in workloads.REFERENCE_SEEDS:
        refs = {}
        with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
            for name in workloads.WORKLOADS:
                for op in workloads.prepare(name, seed, Path(tmp) / name):
                    key = op.spec.ref_key
                    if key in refs:
                        continue
                    if not op.spec.seeded and key in shared:
                        refs[key] = shared[key]
                        continue
                    code, stderr, wall = worker.run_op(ts.cli.main, list(op.argv), None)
                    refs[key] = check.result_record(code, op.out, stderr)
                    if not op.spec.seeded:
                        shared[key] = refs[key]
                    print(f"seed {seed} {key}: exit {code} in {wall:.1f} s", flush=True)
        check.save_refs(seed, refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
