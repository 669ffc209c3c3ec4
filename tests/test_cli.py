import json

import pytest
from click.testing import CliRunner

from specherm.cli import main


@pytest.fixture
def runner():
    return CliRunner()


class TestUsage:
    def test_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for name in ("verify-basis", "verify-kernel", "schatten-bound",
                     "singularity", "strichartz-sweep", "duality-check"):
            assert name in result.output

    def test_bad_flag_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify-kernel", "--kmax", "not-a-number"])
        assert result.exit_code == 2

    def test_bad_format_rejected(self, runner):
        result = runner.invoke(main, ["verify-kernel", "--format", "xml"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["verify-kernel", "--grid-m", "9"],
        ["verify-kernel", "--grid-l", "-1"],
        ["verify-kernel", "--kmax", "-1"],
        ["verify-kernel", "--n", "0"],
        ["schatten-bound", "--nt", "0"],
        ["schatten-bound", "--trials", "0"],
        ["duality-check", "--trials", "0"],
        ["duality-check", "--grid-l", "0"],
        ["strichartz-sweep", "--trials", "0"],
        ["singularity", "--n", "0"],
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

    def test_singularity_passes(self, runner):
        result = runner.invoke(main, ["singularity"])
        assert result.exit_code == 0, result.output
        assert "[PASS] kernel-rate-law" in result.output

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

    def test_strichartz_sweep_passes(self, runner):
        result = runner.invoke(main, ["strichartz-sweep", "--trials", "2", "--kmax", "4", "--nt", "12"])
        assert result.exit_code == 0, result.output
        assert "[PASS] growth-exponent" in result.output

    def test_duality_check_passes(self, runner):
        result = runner.invoke(main, ["duality-check", "--trials", "4", "--nt", "12", "--grid-m", "40"])
        assert result.exit_code == 0, result.output
        assert "[PASS] constants-comparable" in result.output

    def test_failed_check_exits_one_with_stderr(self, runner):
        # an absurdly coarse grid cannot hold the Gram identity to 1e-6
        result = runner.invoke(main, ["verify-basis", "--kmax", "4", "--grid-m", "8", "--grid-l", "3.0"])
        assert result.exit_code == 1
        assert "[FAIL]" in result.output
