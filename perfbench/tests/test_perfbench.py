"""Self-tests of the benchmark: span arithmetic, tracer wrapping, reference checks.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import copy
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402


# -- self time -----------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, None, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["d", 5.0, 9.0, 0, 0],
        ["b", 11.0, 12.0, None, 0],
        ["a", 0.0, 7.0, None, 1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0, 7.0]
    summary = summarize(spans, 0)
    assert summary["names"]["a"] == {"self_s": 3.0, "total_s": 10.0, "calls": 1}
    assert summary["names"]["b"] == {"self_s": 3.0, "total_s": 4.0, "calls": 2}
    assert summary["root_s"] == 11.0
    assert sum(v["self_s"] for v in summary["names"].values()) == summary["root_s"]


# -- tracer --------------------------------------------------------------------

@pytest.fixture
def fake_package():
    """A two-module package whose second module imports a name from the first."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    exec(
        "def square(x):\n"
        "    return helper(x) * x\n"
        "def helper(x):\n"
        "    return x\n"
        "def _private(x):\n"
        "    return x\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    def get(self):\n"
        "        return self.v\n"
        "    @classmethod\n"
        "    def make(cls, v):\n"
        "        return cls(v)\n"
        "    @staticmethod\n"
        "    def twice(v):\n"
        "        return 2 * v\n"
        "    @property\n"
        "    def prop(self):\n"
        "        return self.v\n",
        core.__dict__,
    )
    user = types.ModuleType("fakepkg.user")
    user.square = core.square
    user.alias = core.square
    exec("def run(x):\n    return alias(x) + 1\n", user.__dict__)
    for m in (pkg, core, user):
        sys.modules[m.__name__] = m
    yield core, user
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        sys.modules.pop(name)


def _bindings(core, user):
    return {
        "core": dict(vars(core)),
        "user": dict(vars(user)),
        "Box": dict(vars(core.Box)),
    }


def test_tracer_wraps_rebinds_and_restores(fake_package):
    core, user = fake_package
    before = _bindings(core, user)
    expected = (user.run(3), core.Box.make(4).get(), core.Box.twice(5), core.Box(6).prop)
    tracer = Tracer("fakepkg", {"core.square": lambda a, k, r: (f"x{a[0]}", {"calls_seen": 1})})
    tracer.run = "r"
    with tracer:
        assert user.alias is not before["user"]["alias"]
        assert user.alias is core.square
        got = (user.run(3), core.Box.make(4).get(), core.Box.twice(5), core.Box(6).prop)
    assert got == expected
    names = [s[0] for s in tracer.spans]
    assert names == ["user.run", "core.square.x3", "core.helper", "core.Box.make", "core.Box.get", "core.Box.twice"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [None, 0, 1, None, None, None]
    assert tracer.counts["r"]["core.square.x3.calls_seen"] == 1
    assert _bindings(core, user) == before


def test_hook_that_cannot_read_its_input_is_skipped(fake_package):
    core, user = fake_package
    tracer = Tracer("fakepkg", {"core.helper": lambda a, k, r: ("", {"n": a[5]})})
    with tracer:
        assert user.run(2) == 5
    assert [s[0] for s in tracer.spans] == ["user.run", "core.square", "core.helper"]
    assert not any(tracer.counts.values())


def test_span_closes_when_the_call_raises(fake_package):
    core, _ = fake_package
    tracer = Tracer("fakepkg")
    with tracer, pytest.raises(TypeError):
        core.square(None)
    assert tracer.spans[0][0] == "core.square" and tracer.spans[0][2] is not None
    assert tracer._stack == []


def _wrapped_names(package: str) -> list:
    found = []
    for modname, mod in list(sys.modules.items()):
        if not (modname == package or modname.startswith(package + ".")) or mod is None:
            continue
        for attr, obj in vars(mod).items():
            if getattr(obj, "__wrapped_by_tracer__", False):
                found.append(f"{modname}.{attr}")
            if getattr(getattr(obj, "callback", None), "__wrapped_by_tracer__", False):
                found.append(f"{modname}.{attr}.callback")
            if isinstance(obj, type):
                for name, raw in vars(obj).items():
                    raw = getattr(raw, "__func__", raw)
                    if getattr(raw, "__wrapped_by_tracer__", False):
                        found.append(f"{modname}.{attr}.{name}")
    return found


def test_traced_specherm_gives_identical_results_and_unwraps_cleanly():
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    from specherm.grids import Field, default_half_width, make_grid
    from specherm.propagator import ComplexTime, mehler_kernel_field
    from specherm.twisted import twisted_convolve

    def compute():
        grid = make_grid(1, default_half_width(1, 2), 16)
        rng = np.random.default_rng(3)
        f = Field(grid, rng.standard_normal(grid.shape) + 0j)
        conv = sys.modules["specherm.twisted"].twisted_convolve
        return conv(f, mehler_kernel_field(ComplexTime(0.2, 0.0), grid)).values

    plain = compute()
    tracer = Tracer("specherm", run.HOOKS)
    tracer.run = 0
    with tracer:
        assert _wrapped_names("specherm")
        traced = compute()
        record, _, _ = run.invoke(cli, ["verify-kernel", "--kmax", "2", "--grid-m", "16"], 0)
    assert np.array_equal(plain, traced)
    assert record["error"] is None
    names = summarize(tracer.spans, 0)["names"]
    # reached through names the cli and propagator modules imported at import time
    assert names["cli.verify_kernel"]["calls"] == 1
    assert names["twisted.twisted_convolve.n1"]["calls"] == 2
    assert names["propagator.evolve_kernel"]["calls"] == 1
    assert _wrapped_names("specherm") == []
    assert sys.modules["specherm.twisted"].twisted_convolve is twisted_convolve


# -- reference comparison ------------------------------------------------------

RECORD = {
    "args": ["duality-check", "--trials", "2"],
    "exit": 1,
    "verdicts": [
        "[PASS] constants-finite (sandwich 0.0942, density 0.2709)",
        "[FAIL] kernel-vs-spectral (rel L2 err 4.489e-01)",
    ],
    "out": {"factor": 2.8741234567, "rows": [[0, 1.25e-15], [1, 0.5]], "label": "x", "ok": True},
}


def _perturbed(path, value):
    got = copy.deepcopy(RECORD)
    *keys, last = path
    target = got
    for key in keys:
        target = target[key]
    target[last] = value
    return got


def test_reference_accepts_roundoff():
    assert reference.compare(RECORD, copy.deepcopy(RECORD)) == []
    assert reference.compare(RECORD, _perturbed(("out", "factor"), 2.8741234567 * (1 + 3e-15))) == []
    assert reference.compare(RECORD, _perturbed(("out", "rows", 0, 1), 4.4e-16)) == []
    # a printed value whose rounding flips in the last digit
    flipped = _perturbed(("verdicts", 0), "[PASS] constants-finite (sandwich 0.0943, density 0.2709)")
    assert reference.compare(RECORD, flipped) == []


@pytest.mark.parametrize(
    "path, value",
    [
        (("out", "factor"), 2.8741234567 * (1 + 1e-7)),
        (("out", "rows", 1, 1), 0.5 + 1e-8),
        (("out", "label"), "y"),
        (("out", "ok"), False),
        (("exit",), 0),
        (("verdicts", 0), "[PASS] constants-finite (sandwich 0.0945, density 0.2709)"),
        (("verdicts", 1), "[PASS] kernel-vs-spectral (rel L2 err 4.489e-01)"),
        (("verdicts", 1), "[FAIL] kernel-vs-spectral (rel L2 err 4.487e-01)"),
    ],
)
def test_reference_flags_a_perturbed_output(path, value):
    assert reference.compare(RECORD, _perturbed(path, value))


def test_nonfinite_numbers_are_found():
    assert reference.nonfinite(RECORD) == []
    assert reference.nonfinite(_perturbed(("out", "rows", 1, 1), float("nan")))
    assert reference.nonfinite(_perturbed(("verdicts", 0), "[PASS] ratios-finite (max inf)"))
    assert not reference.nonfinite(_perturbed(("verdicts", 0), "[PASS] ratios-finite (5 weights)"))


def test_stored_reference_matches_a_fresh_verify_invocation():
    stored = reference.load("verify", 0)
    assert stored is not None
    cli = run.import_program()
    run.OUT.mkdir(exist_ok=True)
    for expected in stored[:2]:
        record, _, _ = run.invoke(cli, expected["args"], 0)
        assert reference.compare(expected, record) == []


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
