"""Invocation records and the comparison that decides whether one failed.

A record holds what an invocation of the CLI showed its user: the argument
list, the exit status, the ``[PASS]``/``[FAIL]`` verdict lines and the
numbers of its ``--out`` JSON file. A verdict is an output: a FAIL that the
stored reference also shows is not a failure.

Numbers are compared with ``|a - b| <= ATOL + RTOL * max(|a|, |b|)``. The
planned rewrites of the numerical core compute the same quadrature sums and
agreed with the current code to 1.6e-15 relative; RTOL leaves a wide margin
over that roundoff while catching any change of a computed quantity. ATOL
covers quantities that are themselves at roundoff level (Gram errors, norm
drifts). A number printed in a verdict line also gets one unit of its last
printed digit, since roundoff can flip the rounding of a printed value.

Record references for the shipped seeds, or compare two result files:

    python3 perfbench/reference.py record [WORKLOAD ...]
    python3 perfbench/reference.py compare A.json B.json
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SHIPPED_SEEDS = range(0, 32)

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_NONFINITE = re.compile(r"(?i)(?<![\w.])[-+]?(?:nan|inf(?:inity)?)(?!\w)")


def verdict_lines(stdout: str) -> list:
    return [line for line in stdout.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]


def _last_digit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.split(".", 1)[1]) if "." in mantissa else 0
    return 10.0 ** (int(exponent or 0) - decimals)


def _close(a: float, b: float, slack: float = 0.0) -> bool:
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b)) + slack


def nonfinite(record: dict) -> list:
    """Descriptions of every non-finite number the invocation printed or wrote."""
    found = [f"verdict {line!r}" for line in record["verdicts"] if _NONFINITE.search(line)]

    def walk(value, path):
        if isinstance(value, float) and not math.isfinite(value):
            found.append(f"out{path} = {value}")
        elif isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{path}.{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(v, f"{path}[{i}]")

    walk(record["out"], "")
    return found


def _compare_line(ref: str, got: str) -> str | None:
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", got):
        return f"verdict {got!r} != {ref!r}"
    for r, g in zip(_NUMBER.findall(ref), _NUMBER.findall(got)):
        if not _close(float(r), float(g), max(_last_digit(r), _last_digit(g))):
            return f"verdict number {g} != {r} in {got!r}"
    return None


def _compare_value(ref, got, path: str, errors: list) -> None:
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        if ref != got:
            errors.append(f"out{path}: {got!r} != {ref!r}")
    elif isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)) or not _close(float(ref), float(got)):
            errors.append(f"out{path}: {got!r} != {ref!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            errors.append(f"out{path}: keys differ")
            return
        for k in ref:
            _compare_value(ref[k], got[k], f"{path}.{k}", errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            errors.append(f"out{path}: lengths differ")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_value(r, g, f"{path}[{i}]", errors)
    else:
        errors.append(f"out{path}: unexpected value {ref!r}")


def compare(ref: dict, got: dict) -> list:
    """Differences of ``got`` from ``ref`` beyond roundoff; empty when they agree."""
    if ref["args"] != got["args"]:
        return [f"arguments {got['args']} != {ref['args']}"]
    errors = []
    if ref["exit"] != got["exit"]:
        errors.append(f"exit {got['exit']} != {ref['exit']}")
    if len(ref["verdicts"]) != len(got["verdicts"]):
        errors.append(f"{len(got['verdicts'])} verdict lines != {len(ref['verdicts'])}")
    else:
        errors += filter(None, map(_compare_line, ref["verdicts"], got["verdicts"]))
    _compare_value(ref["out"], got["out"], "", errors)
    return errors


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str, seed: int) -> list | None:
    """The stored records of one round for this seed, or None when none ship."""
    path = reference_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def record(names: list) -> None:
    from run import OUT, import_program, run_round
    from spec import WORKLOADS

    cli = import_program()
    OUT.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in (WORKLOADS[name] for name in names or WORKLOADS):
        seeds = {}
        for seed in SHIPPED_SEEDS:
            records, _, _ = run_round(cli, workload.round, seed)
            bad = [r for r in records if r["error"] or nonfinite(r)]
            if bad:
                raise SystemExit(f"{workload.name} seed {seed}: invalid output {bad}")
            seeds[str(seed)] = [{k: r[k] for k in ("args", "exit", "verdicts", "out")} for r in records]
            print(workload.name, seed, [r["exit"] for r in records], flush=True)
        reference_path(workload.name).write_text(json.dumps({"seeds": seeds}, indent=1) + "\n")


def compare_files(a: str, b: str) -> int:
    """Compare the invocation records of two result files written by run.py."""
    ra, rb = (json.loads(Path(p).read_text())["records"] for p in (a, b))
    if len(ra) != len(rb):
        print(f"{len(ra)} records != {len(rb)}")
        return 1
    errors = [e for x, y in zip(ra, rb) for e in compare(x, y)]
    print("\n".join(errors) or "outputs agree")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if sys.argv[1:2] == ["record"]:
        record(sys.argv[2:])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare_files(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
