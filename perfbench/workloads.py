"""The benchmark's workloads: each is a list of CLI ops run in one process.

An op is one ``trigsmooth.cli.main(argv)`` call on a generated config.  The
workloads split the omega-table work by kernel path (closed-form p = 2 against
the grid path at p != 2) and by support density (dense power laws against a
20-level lacunary series and a 64-frequency random polynomial), plus one
workload for the inequality sweeps, which fill no omega table at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Seeds with stored reference outputs: the CLI default and one held-out seed.
REFERENCE_SEEDS = (0, 7)

# The README config block, verbatim.
README_CONFIG = """\
series.generator = power:2:4096
series.tag = monotone
series.tail = power:1:2
params.p = 2
params.theta = 1
params.r = 0.5
params.lambda = 0.3
params.k = 1
phi.kind = power
phi.alpha = 0.4
sweep.n_values = 2,4,8,16,32,64,128,256
sweep.t_values = 0.5,1.0
tolerances.slope_tol = 0.02
tolerances.truncation_budget = 0.5
"""


def _config(generator: str, tag: str, p: float, k: int, extra: str) -> str:
    return (f"series.generator = {generator}\n"
            f"series.tag = {tag}\n"
            f"params.p = {p:g}\n"
            "params.theta = 1\n"
            "params.r = 0.5\n"
            "params.lambda = 0.3\n"
            f"params.k = {k}\n"
            "phi.kind = power\n"
            "phi.alpha = 0.4\n" + extra)


INEQ_CONFIG = """\
ineq.n_values = 32,128,512,2048
ineq.jensen_cases = 1000
ineq.jensen_len = 256
"""

PHI_CONFIGS = {
    "power": "phi.kind = power\nphi.alpha = 0.4\n",
    "constant": "phi.kind = constant\n",
    "inv_log": "phi.kind = inv_log\nphi.alpha = 0.5\n",
    "tabulated": ("phi.kind = tabulated\n"
                  "phi.deltas = 0.001,0.01,0.1,0.5,0.9\n"
                  "phi.values = 0.1,0.2,0.4,0.7,0.95\n"),
}


@dataclass(frozen=True)
class OpSpec:
    """One CLI call: subcommand, config text (None for no --config) and extra flags.

    ``seeded`` ops get the workload's data seed through ``--seed``; ``ref`` names
    the stored reference the output is checked against (ops that must print the
    same table share one).
    """

    name: str
    command: str
    config: str | None
    flags: tuple[str, ...] = ()
    seeded: bool = False
    ref: str = ""

    @property
    def ref_key(self) -> str:
        return self.ref or self.name


WORKLOADS: dict[str, tuple[OpSpec, ...]] = {
    # ~95% of the time is modulus_p2_exact over a dense 2048- to 4096-term support.
    # The README op exits 4 (truncation budget, a known defect); it stays as
    # written so that fixing the defect shows as a rise in ok_frac.
    "equiv_p2_dense": (
        OpSpec("readme_power2_4096", "equivalence", README_CONFIG),
        OpSpec("power1.5_2048_k3", "equivalence",
               _config("power:1.5:2048", "monotone", 2, 3,
                       "sweep.n_values = 2,4,8,16,32,64,128\n")),
    ),
    # The same kernel and table on 20 and 64 frequencies: support() re-scanning
    # the dense coefficient array dominates.
    "equiv_p2_sparse": (
        OpSpec("lacunary20", "equivalence",
               _config("lacunary_geometric:0.5:20", "lacunary", 2, 1,
                       "sweep.n_values = 2,4,8,16,32,64\n")),
        OpSpec("band64", "equivalence",
               _config("random_bandlimited:64", "general", 2, 1,
                       "sweep.n_values = 2,4,8,16,32,64\n"),
               seeded=True),
    ),
    # Only the grid path at p != 2 runs: batched irfft, |x|^p and the
    # best_approx surrogate; the largest spectrum batch sets the peak RSS.
    "equiv_grid_p3": (
        OpSpec("power2_256_p3", "equivalence",
               _config("power:2:256", "monotone", 3, 1, "sweep.n_values = 2,4,8,16\n"),
               flags=("--max-nu", "256")),
        OpSpec("modulus_p1.5_k2_n16384", "modulus",
               _config("power:2:256", "monotone", 1.5, 2, "sweep.grid_n = 16384\n")),
    ),
    # Inequality checkers, large-CSV emit and the ineq-sweep thread pool; no omega table.
    "ineq_sweep": (
        OpSpec("ineq_threads1", "ineq-sweep", INEQ_CONFIG, flags=("--threads", "1"),
               seeded=True),
        OpSpec("ineq_threads2", "ineq-sweep", INEQ_CONFIG, flags=("--threads", "2"),
               seeded=True, ref="ineq_threads1"),
        OpSpec("example_61", "example", None, flags=("--max-n", "61")),
        *(OpSpec(f"phi_{kind}", "phi-check", text) for kind, text in PHI_CONFIGS.items()),
    ),
}


def data_seed(seed: int) -> int:
    """Seed handed to the program's random generators for a workload seed.

    Every run's output must have a stored reference, so workload seeds map onto
    the reference seeds.
    """
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


@dataclass(frozen=True)
class Op:
    spec: OpSpec
    argv: tuple[str, ...]
    out: Path


def prepare(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's configs into workdir and return its ops in run order."""
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for spec in WORKLOADS[workload]:
        out = workdir / f"{spec.name}.csv"
        argv = [spec.command, "--out", str(out), "--quiet"]
        if spec.config is not None:
            cfg = workdir / f"{spec.name}.cfg"
            cfg.write_text(spec.config)
            argv += ["--config", str(cfg)]
        if spec.seeded:
            argv += ["--seed", str(data_seed(seed))]
        argv += spec.flags
        ops.append(Op(spec, tuple(argv), out))
    return ops
