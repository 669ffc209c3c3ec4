"""What the benchmark runs and what it reports.

This file is the single source of the workloads and metric names. Running it
prints every metric with its unit and direction and rewrites
``BENCHMARK.json`` at the repository root:

    python3 perfbench/spec.py
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 25
# set-up is measured in this many fresh processes besides the run's own
SETUP_PROBES = 8
SANDWICH_TRIALS = 3
SWEEP_TRIALS = 20
# strichartz-sweep uses system sizes 1, 2, 4, 8 and 16 at k_max = 4
SWEEP_SIZES = 5

_N1 = ["--n", "1", "--grid-m", "48", "--nt", "16"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # one round: the CLI invocations, each an argument list without --seed/--out
    round: tuple
    units_per_round: int
    # invocations that fill caches and the BLAS pool before timing starts
    warmup: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sandwich",
            why="Schatten and duality path of criteria 7 and 10: n=1 twisted convolutions and sandwich SVDs",
            round=(
                ("schatten-bound", *_N1, "--kmax", "4", "--trials", str(SANDWICH_TRIALS)),
                ("duality-check", *_N1, "--kmax", "6", "--trials", str(SANDWICH_TRIALS)),
            ),
            units_per_round=2 * SANDWICH_TRIALS,
            warmup=(
                ("schatten-bound", *_N1, "--kmax", "4", "--trials", "1"),
                ("duality-check", *_N1, "--kmax", "6", "--trials", "1"),
            ),
        ),
        Workload(
            name="sweep",
            why="Strichartz synthesis path of criteria 8 and 9; no twisted or schatten call, the control for those layers",
            round=(("strichartz-sweep", *_N1, "--kmax", "4", "--trials", str(SWEEP_TRIALS)),),
            units_per_round=SWEEP_SIZES * SWEEP_TRIALS,
            warmup=(("strichartz-sweep", *_N1, "--kmax", "4", "--trials", "1"),),
        ),
        Workload(
            name="verify",
            why="Abel sums at tau=1e-5 and the only n=2 twisted convolution, on the other side of its method switch",
            round=(
                ("verify-basis", *_N1, "--kmax", "4"),
                ("verify-kernel", *_N1, "--kmax", "4"),
                ("singularity", "--n", "1"),
                ("verify-kernel", "--n", "2", "--kmax", "1", "--grid-m", "10", "--nt", "16"),
            ),
            # 2 + 4 + 2 + 4 check lines
            units_per_round=12,
            warmup=(("verify-basis", *_N1, "--kmax", "4"),),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("units_per_s", "units/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

MODULES = ("cli", "indices", "basis", "grids", "twisted", "propagator", "schatten", "singularity", "strichartz")

# per round unless the README says otherwise
FUNCTION_SELF_S = (
    "twisted.twisted_convolve.n1",
    "twisted.twisted_convolve.n2",
    "twisted.forward_transform",
    "twisted.inverse_transform",
    "twisted.apply_twisted_laplacian",
    "propagator.mehler_kernel_field",
    "propagator.evolve_kernel",
    "schatten.random_smoothed_weight",
    "schatten.SandwichOperator.singular_values",
    "schatten.PropagationMatrix.apply",
    "schatten.matched_system",
    "schatten.duality_check",
    "strichartz.sweep",
    "strichartz.density",
    "strichartz.sample_orthonormal_system",
    "grids.mixed_norm",
    "singularity.abel_sum",
    "singularity.remainder_profile",
)
FUNCTION_CALLS = (
    "twisted.twisted_convolve.n1",
    "twisted.twisted_convolve.n2",
    "schatten.SandwichOperator.singular_values",
    "grids.mixed_norm",
    "grids.lp_norm",
    "singularity.abel_sum",
)

PER_LAYER = (
    *(Metric(f"{m}.self_s", "s", "lower") for m in MODULES),
    *(Metric(f"{m}.calls", "count", "lower") for m in MODULES),
    *(Metric(f"{f}.self_s", "s", "lower") for f in FUNCTION_SELF_S),
    *(Metric(f"{f}.calls", "count", "lower") for f in FUNCTION_CALLS),
    # measured in the traced set-up, where the basis cache is filled
    Metric("basis.basis_matrix.self_s", "s", "lower"),
    Metric("basis.basis_matrix.calls", "count", "lower"),
    Metric("basis.basis_matrix.total_s", "s", "lower"),
    Metric("twisted.cached_basis.hit_ratio", "ratio", "higher"),
    Metric("schatten.build_propagation_matrix.bytes", "bytes", "lower"),
    Metric("singularity.abel_sum.terms", "count", "lower"),
    Metric("click.self_s", "s", "lower"),
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.overhead_frac", "ratio", "lower"),
    Metric("process.cpu_s", "s", "lower"),
    Metric("process.cpu_per_wall", "ratio", "higher"),
    Metric("process.alloc_peak_mb", "MB", "lower"),
    Metric("failed_frac", "ratio", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }


def main() -> None:
    for kind, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        for m in metrics:
            bound = f"  bound {m.bound}" if m.bound is not None else ""
            print(f"{kind:10s}  {m.name:48s} {m.unit:8s} {m.better}{bound}")
    (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")


if __name__ == "__main__":
    main()
