"""Benchmark of the specherm CLI: one workload per process, in-process through click.

    python3 perfbench/run.py --workload sandwich --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout this file sits in. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run; see
``perfbench/README.md``. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from the start of this script

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PROBE_TIMEOUT_S = 150
try:
    LIBC = ctypes.CDLL("libc.so.6")
except OSError:  # not glibc: no heap trimming
    LIBC = None

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
from spec import END_TO_END, FUNCTION_CALLS, FUNCTION_SELF_S, MODULES, PER_LAYER, RUN_SECONDS, SETUP_PROBES, WORKLOADS  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

HOOKS = {
    "twisted.twisted_convolve": lambda args, kwargs, result: (f"n{args[0].grid.n}", {}),
    # computed from the array size, not measured memory traffic
    "schatten.build_propagation_matrix": lambda args, kwargs, result: ("", {"bytes": result.matrix.nbytes}),
    "singularity.abel_sum": lambda args, kwargs, result: ("", {"terms": args[0].k_cut}),
}


def import_program():
    """Import specherm, and every module of it, from this checkout's ``src/``."""
    package_dir = SRC / "specherm"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no specherm source tree at {package_dir}")
    sys.path.insert(0, str(SRC))
    import specherm

    if Path(specherm.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: imported specherm from {specherm.__file__}, not {package_dir}")
    for info in pkgutil.iter_modules(specherm.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"specherm.{info.name}")
    from specherm import cli

    return cli


def release_memory() -> None:
    """Start each invocation from a clean heap, as a fresh CLI process would.

    In-process, the SystemExit traceback keeps an invocation's arrays in
    reference cycles until the cyclic collector runs, and glibc keeps freed
    heap pages; when either lets go varies from run to run, and with it the
    peak RSS of the next invocation.
    """
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


def invoke(cli, args, seed: int):
    """Run one CLI invocation in-process; return its record, wall and CPU time."""
    from click.testing import CliRunner

    out_path = OUT / "invocation.json"
    out_path.unlink(missing_ok=True)
    full = [*args, "--seed", str(seed), "--out", str(out_path)]
    start, cpu_start = time.perf_counter(), time.process_time()
    result = CliRunner().invoke(cli.main, full)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    release_memory()
    error = None
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        error = "".join(traceback.format_exception(*result.exc_info))
    elif result.exit_code not in (0, 1):
        error = f"exit {result.exit_code}: {result.output[-2000:]}"
    out = None
    if out_path.exists():
        try:
            out = json.loads(out_path.read_text())
        except json.JSONDecodeError as exc:
            error = error or f"--out is not JSON: {exc}"
    record = {
        "args": list(args),
        "exit": result.exit_code,
        "verdicts": reference.verdict_lines(result.stdout),
        "out": out,
        "error": error,
    }
    return record, wall, cpu


def run_round(cli, invocations, seed: int):
    """Invoke each argument list once; return the records and summed wall and CPU time."""
    records, wall, cpu = [], 0.0, 0.0
    for args in invocations:
        record, seconds, cpu_seconds = invoke(cli, args, seed)
        records.append(record)
        wall += seconds
        cpu += cpu_seconds
    return records, wall, cpu


class Checker:
    """Counts failed invocations against the stored reference or the first round."""

    def __init__(self, workload: str, seed: int):
        self.expected = reference.load(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.last: list = []

    def check(self, records: list, is_round: bool) -> None:
        if is_round:
            self.last = records
            if self.expected is None:
                self.expected = records
        for i, record in enumerate(records):
            problems = [record["error"]] if record["error"] else []
            problems += reference.nonfinite(record)
            if is_round and not record["error"]:
                if i < len(self.expected):
                    problems += reference.compare(self.expected[i], record)
                else:
                    problems.append("no reference record for this invocation")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append({"args": record["args"], "problems": problems})


def setup(cli, workload, seed: int, checker: Checker, tracer: Tracer | None = None) -> float:
    """Warm-up invocations; returns the set-up time since the script started."""
    if tracer is not None:
        tracer.run = "setup"
    with tracer or contextlib.nullcontext():
        records, _, _ = run_round(cli, workload.warmup, seed)
    elapsed = time.perf_counter() - T0
    checker.check(records, is_round=False)
    return elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, which runs only the set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(cli, workload, seed: int, seconds: float, checker: Checker,
                 tracer: Tracer | None = None, between=None) -> list:
    """Rounds until their wall time adds up to ``seconds``; ``between()`` runs after each.

    Each sample is (wall, CPU time, peak RSS so far).
    """
    samples = []
    while not samples or sum(wall for wall, _, _ in samples) < seconds:
        if tracer is not None:
            tracer.run = len(samples)
        with tracer or contextlib.nullcontext():
            records, wall, cpu = run_round(cli, workload.round, seed)
        samples.append((wall, cpu, peak_rss_mb()))
        checker.check(records, is_round=True)
        if between is not None:
            between()
    return samples


def alloc_peak_round(cli, workload, seed: int, checker: Checker) -> float:
    """Peak of memory allocated during one round, as tracemalloc sees it (bytes).

    A round of its own: tracemalloc slows allocation-heavy Python far more
    than the span wrappers do, and would distort the span self times.
    """
    tracemalloc.start()
    try:
        records, _, _ = run_round(cli, workload.round, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checker.check(records, is_round=True)
    return peak


def layer_metrics(tracer: Tracer, traced: list, untraced: list, alloc_peak: float) -> dict:
    """Per-layer metrics of the traced round with the median wall time.

    One whole round, rather than a median per metric, keeps the module self
    times plus ``click.self_s`` equal to ``trace.wall_s``. The basis cache is
    filled in the set-up, so ``basis.basis_matrix.*`` come from the traced set-up.
    """
    walls = [wall for wall, _, _ in traced]
    run = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    summary = summarize(tracer.spans, run)
    names, counts = summary["names"], tracer.counts[run]

    def total(name, key):
        return names.get(name, {}).get(key, 0)

    m = {}
    for module in MODULES:
        own = [v for k, v in names.items() if k.split(".", 1)[0] == module]
        m[f"{module}.self_s"] = sum(v["self_s"] for v in own)
        m[f"{module}.calls"] = sum(v["calls"] for v in own)
    for name in FUNCTION_SELF_S:
        m[f"{name}.self_s"] = total(name, "self_s")
    for name in FUNCTION_CALLS:
        m[f"{name}.calls"] = total(name, "calls")
    lookups = total("twisted.cached_basis", "calls")
    m["twisted.cached_basis.hit_ratio"] = 1.0 - total("basis.basis_matrix", "calls") / lookups if lookups else 0.0
    for key in ("schatten.build_propagation_matrix.bytes", "singularity.abel_sum.terms"):
        m[key] = counts.get(key, 0)
    m["click.self_s"] = walls[run] - summary["root_s"]
    m["trace.wall_s"] = walls[run]
    m["trace.overhead_frac"] = walls[run] / statistics.median(w for w, _, _ in untraced) - 1.0
    setup = summarize(tracer.spans, "setup")["names"].get("basis.basis_matrix", {})
    for key in ("self_s", "calls", "total_s"):
        m[f"basis.basis_matrix.{key}"] = setup.get(key, 0)
    m["process.cpu_s"] = statistics.median(c for _, c, _ in untraced)
    m["process.cpu_per_wall"] = statistics.median(c / w for w, c, _ in untraced)
    m["process.alloc_peak_mb"] = alloc_peak / 2**20
    return m


def environment() -> dict:
    """Machine, BLAS and version record written with every result."""
    from importlib import metadata

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(lib_path).name] = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"), "threads": threads},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "git_sha": git_sha(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving it; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = import_program()
    OUT.mkdir(exist_ok=True)
    checker = Checker(workload.name, args.seed)

    if args.setup_probe:
        elapsed = setup(cli, workload, args.seed, checker)
        if checker.failed:
            raise SystemExit(f"perfbench: set-up failed: {checker.problems}")
        print(json.dumps({"setup_s": elapsed}))
        return 0

    env = environment()
    if args.trace:
        tracer = Tracer("specherm", HOOKS)
        setup(cli, workload, args.seed, checker, tracer)
        untraced = timed_rounds(cli, workload, args.seed, args.seconds / 2, checker)
        traced = timed_rounds(cli, workload, args.seed, args.seconds / 2, checker, tracer)
        alloc_peak = alloc_peak_round(cli, workload, args.seed, checker)
        metrics = layer_metrics(tracer, traced, untraced, alloc_peak)
        metrics["failed_frac"] = checker.failed / checker.attempted
        units = {m.name: m.unit for m in PER_LAYER}
        samples = {"traced": traced, "untraced": untraced, "alloc_peak": alloc_peak}
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}, separators=(",", ":")))
    else:
        setup_times = [setup(cli, workload, args.seed, checker)]

        def probe():
            # between rounds, so that the set-ups sample the whole run, not one moment of it
            if len(setup_times) <= SETUP_PROBES:
                setup_times.append(probe_setup(workload.name, args.seed))

        rounds = timed_rounds(cli, workload, args.seed, args.seconds, checker, between=probe)
        while len(setup_times) <= SETUP_PROBES:
            probe()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "units_per_s": statistics.median(workload.units_per_round / wall for wall, _, _ in rounds),
            # after a fixed amount of work: the heap grows with the number of rounds
            "peak_rss_mb": rounds[0][2],
        }
        units = {m.name: m.unit for m in END_TO_END}
        samples = {"setup_s": setup_times, "rounds": rounds}

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env,
              "samples": samples, "problems": checker.problems, "records": checker.last, "result": result}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    for problem in checker.problems[:5]:
        print(f"perfbench: failed {problem}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
