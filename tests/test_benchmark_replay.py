"""One seed-0 round of each benchmark workload against its stored reference.

The rounds are those of ``perfbench/spec.py``, run in-process by
``perfbench/run.py``'s ``invoke`` and compared by ``perfbench/reference.py``:
a change that moves any printed verdict or ``--out`` number beyond roundoff
fails here, not only in the benchmark.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402


@pytest.mark.parametrize("workload", ["sandwich", "sweep", "verify"])
def test_round_matches_stored_reference(workload):
    stored = reference.load(workload, 0)
    invocations = spec.WORKLOADS[workload].round
    assert stored is not None and len(stored) == len(invocations)
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    for args, expected in zip(invocations, stored):
        record, _, _ = run.invoke(cli, list(args), 0)
        assert record["error"] is None, record["error"]
        assert reference.nonfinite(record) == []
        assert reference.compare(expected, record) == []
