import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from specherm import strichartz
from specherm.cli import main
from specherm.singularity import abel_sum, default_config


@pytest.fixture
def runner():
    return CliRunner()


def test_import_leaves_scipy_linalg_unloaded():
    # specherm runs on numpy and click alone: scipy.linalg links a second
    # OpenBLAS whose thread pool contends with numpy's, and scipy.special
    # alone costs more import time than the rest of the program
    probe = (
        "import importlib, pkgutil, sys, specherm, specherm.cli\n"
        "for info in pkgutil.iter_modules(specherm.__path__):\n"
        "    importlib.import_module('specherm.' + info.name)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


INVALID_COMMON = (
    ("--seed", "-1"),
    ("--grid-l", "nan"),
    ("--grid-l", "inf"),
    ("--grid-l", "0"),
    ("--grid-l", "1e-300"),  # every quadrature weight underflows to 0
    ("--nt", "0"),
    ("--grid-m", "9"),
    ("--n", "0"),
    ("--kmax", "-1"),
    ("--out", os.path.join("no-such-directory", "out.json")),  # rejected before any check runs
)
COMMON_FLAGS = ("--n", "--kmax", "--grid-m", "--grid-l", "--nt", "--seed", "--out", "--format", "--config")


class TestUsage:
    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("verify-basis", "verify-kernel", "schatten-bound",
                     "singularity", "strichartz-sweep", "duality-check"):
            assert name in result.output

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_subcommand_help_lists_common_flags(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        for flag in COMMON_FLAGS:
            assert flag in result.output

    def test_bad_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify-kernel", "--kmax", "not-a-number"])
        assert result.exit_code == 2

    def test_bad_format_rejected(self, runner):
        result = runner.invoke(main, ["verify-kernel", "--format", "xml"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        # every subcommand with every invalid common value, so a new subcommand is covered too
        *([command, *value] for command in sorted(main.commands) for value in INVALID_COMMON),
        # values only some subcommands take
        ["schatten-bound", "--trials", "0"],
        ["duality-check", "--trials", "0"],
        ["strichartz-sweep", "--trials", "0"],
        ["verify-basis", "--grid-m", "8"],  # too coarse for the Laplacian
        ["strichartz-sweep", "--kmax", "0"],  # one pair: too few system sizes for the growth fit
        ["strichartz-sweep", "--n", "2", "--kmax", "0"],
    ])
    def test_invalid_value_is_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output


class TestConfigFile:
    def test_config_supplies_flags(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax = 2\ngrid-m = 32\nseed = 3\n# comment line\n")
        result = runner.invoke(main, ["verify-kernel", "--config", str(cfg)])
        assert result.exit_code == 0, result.output

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 7\n")
        result = runner.invoke(main, ["verify-kernel", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_malformed_line_rejected(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax\n")
        result = runner.invoke(main, ["verify-kernel", "--config", str(cfg)])
        assert result.exit_code == 2

    def test_invalid_value_is_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid-m = 9\n")
        result = runner.invoke(main, ["verify-kernel", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_negative_seed_is_usage_error(self, runner, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = -1\n")
        result = runner.invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

    @pytest.mark.parametrize("text", ["format = xml\n", "trials = 3\n", "out = no-such-directory/out.json\n"])
    def test_bad_key_or_value_is_usage_error(self, runner, tmp_path, text):
        # --trials is not a common flag, so the file cannot set it
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["singularity", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output

    def test_config_format_and_out_match_flags(self, runner, tmp_path):
        # the file's "format" key sets --format, whose value is named fmt
        by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = csv\nout = {by_file}\n")
        for extra in (["--format", "csv", "--out", str(by_flag)], ["--config", str(cfg)]):
            result = runner.invoke(main, ["singularity", *extra])
            assert result.exit_code == 0, result.output
        assert by_file.read_text().startswith("z_re,z_im,t,")
        assert by_file.read_text() == by_flag.read_text()

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax = 6\n")
        result = runner.invoke(main, ["verify-kernel", "--config", str(cfg), "--kmax", "2", "--grid-m", "32"])
        assert result.exit_code == 0, result.output

    def test_config_without_kmax_keeps_command_default(self, runner, tmp_path):
        # duality-check defaults to kmax = 6; a config file that does not set
        # kmax must not fall back to the common default of 4
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 0\n")
        payloads = []
        for extra in ([], ["--config", str(cfg)]):
            out = tmp_path / f"duality{len(extra)}.json"
            result = runner.invoke(main, ["duality-check", "--trials", "1", "--out", str(out), *extra])
            assert result.exit_code == 0, result.output
            payloads.append(json.loads(out.read_text()))
        assert payloads[0] == payloads[1]


class TestCommands:
    def test_verify_kernel_passes(self, runner):
        result = runner.invoke(main, ["verify-kernel", "--kmax", "2", "--grid-m", "32"])
        assert result.exit_code == 0, result.output
        assert "[PASS] kernel-vs-spectral" in result.output

    def test_verify_basis_passes_and_writes_json(self, runner, tmp_path):
        out = tmp_path / "basis.json"
        result = runner.invoke(main, ["verify-basis", "--kmax", "2", "--grid-m", "48", "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["gram_error"] < 1e-6

    def test_singularity_passes(self, runner, tmp_path):
        out = tmp_path / "probe.csv"
        result = runner.invoke(main, ["singularity", "--out", str(out), "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert "[PASS] kernel-rate-law" in result.output
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == [
            "z_re", "z_im", "t", "tau",
            "abel_re", "abel_im", "singular_re", "singular_im", "remainder_abs",
        ]
        assert len(rows) == 1 + 9
        t = float(rows[1][2])
        assert float(rows[1][4]) == pytest.approx(abel_sum(default_config(-0.5, 1e-4), t).real, rel=1e-12)

    def test_schatten_bound_csv_output(self, runner, tmp_path):
        out = tmp_path / "ratios.csv"
        result = runner.invoke(main, [
            "schatten-bound", "--trials", "4", "--kmax", "2",
            "--grid-m", "32", "--nt", "12", "--out", str(out), "--format", "csv",
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,ratio"
        assert len(lines) == 5

    def test_strichartz_sweep_passes(self, runner, tmp_path):
        out = tmp_path / "rows.csv"
        args = ["strichartz-sweep", "--trials", "2", "--kmax", "4", "--nt", "12"]
        result = runner.invoke(main, [*args, "--out", str(out), "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert "[PASS] growth-exponent" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "n,p,q,N,trial,ratio,lhs,rhs"
        assert len(lines) == 1 + 4 * 5 * 2  # q values x system sizes x trials

    def test_strichartz_sweep_json_output(self, runner, tmp_path):
        out = tmp_path / "sweep.json"
        args = ["strichartz-sweep", "--trials", "1", "--kmax", "4", "--nt", "12", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert f"[PASS] ratios-finite (max {payload['max_ratio']:.4f})" in result.stdout
        assert f"[PASS] growth-exponent ({payload['growth_exponent']:.4f})" in result.stdout

    def test_strichartz_sweep_cells_are_row_maxima(self, runner, tmp_path):
        args = ["strichartz-sweep", "--trials", "3", "--kmax", "4", "--nt", "12", "--seed", "7"]
        paths = {fmt: tmp_path / f"sweep.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            result = runner.invoke(main, [*args, "--format", fmt, "--out", str(path)])
            assert result.exit_code == 0, result.output
        want = {}
        for line in paths["csv"].read_text().splitlines()[1:]:
            _, _, q, N, _, ratio, _, _ = line.split(",")
            key = (float(q), int(N))
            want[key] = max(want.get(key, -math.inf), float(ratio))
        cells = json.loads(paths["json"].read_text())["max_ratio_by_cell"]
        assert list(cells) == [f"q={q},N={N}" for q, N in sorted(want)]
        assert list(cells.values()) == [want[key] for key in sorted(want)]

    def test_strichartz_sweep_nan_ratio_fails(self, runner, tmp_path, monkeypatch):
        # the first (p, q) = (3, 1.5) norm is the sweep's third, of N = 1 trial 0: not the first
        # row, which is a (2, 2) norm, so a maximum that skips a NaN would not see it
        real, seen = strichartz.density_norm, []

        def density_norm(dens, tg, grid, p, q, measure="dt"):
            seen.append(q)
            return math.nan if seen.count(1.5) == 1 and q == 1.5 else real(dens, tg, grid, p, q, measure)

        monkeypatch.setattr(strichartz, "density_norm", density_norm)
        out = tmp_path / "sweep.json"
        result = runner.invoke(main, ["strichartz-sweep", "--trials", "2", "--grid-m", "24", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "[FAIL] ratios-finite (max nan)" in result.stdout
        assert result.stderr.splitlines() == ["failed: ratios-finite"]
        cells = json.loads(out.read_text())["max_ratio_by_cell"]
        assert [key for key, value in cells.items() if math.isnan(value)] == ["q=1.5,N=1"]

    def test_strichartz_sweep_n2(self, runner, tmp_path):
        # the exponent grid q = 1 + j/(4n) stays inside [1, 1 + 1/n]; the n = 2 growth band is not set yet
        out = tmp_path / "sweep.json"
        args = ["strichartz-sweep", "--n", "2", "--kmax", "1", "--grid-m", "16", "--trials", "1", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1), result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        verdicts = [line for line in result.stdout.splitlines() if line.startswith(("[PASS]", "[FAIL]"))]
        assert len(verdicts) == 3
        assert "[PASS] single-mode-closed-form" in result.stdout
        cells = json.loads(out.read_text())["max_ratio_by_cell"]
        assert sorted({key.split(",")[0] for key in cells}) == ["q=1.0", "q=1.125", "q=1.25", "q=1.5"]

    def test_duality_check_passes(self, runner):
        result = runner.invoke(main, ["duality-check", "--trials", "4", "--nt", "12", "--grid-m", "40"])
        assert result.exit_code == 0, result.output
        assert "[PASS] constants-comparable" in result.output

    @pytest.mark.parametrize("command, exit_code, want", [
        ("schatten-bound", 0, {"max_ratio": 0.005436551806521211, "median_ratio": 0.005253991252385489,
                               "rows": [[0, 0.005071430698249766], [1, 0.005436551806521211]]}),
        ("duality-check", 1, {"max_sandwich_ratio": 0.005436551806521214, "max_density_ratio": 0.08644981933723947,
                              "factor": 15.901590275207495, "skipped": 0}),
    ])
    def test_n2_weights_keep_their_numbers(self, runner, tmp_path, command, exit_code, want):
        # n = 2 random weights, smoothed by one pass of the n = 1 kernel per coordinate; the
        # numbers are those of the convolution on the whole n = 2 grid that the passes replaced
        out = tmp_path / "n2.json"
        args = [command, "--n", "2", "--kmax", "1", "--grid-m", "10", "--nt", "4", "--trials", "2"]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == exit_code, result.output
        payload = json.loads(out.read_text())
        for key, value in want.items():
            np.testing.assert_allclose(payload[key], value, rtol=1e-12, atol=0, err_msg=key)

    def test_failed_check_exits_one_with_stderr(self, runner):
        # a half-width of 3 cuts off the k_max = 4 modes: neither identity holds
        result = runner.invoke(main, ["verify-basis", "--kmax", "4", "--grid-m", "16", "--grid-l", "3.0"])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "[FAIL] gram-identity" in result.stdout
        assert result.stderr.splitlines() == ["failed: gram-identity", "failed: eigenrelation"]
