import importlib.metadata as md
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blindim import analysis, cli, model

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


class TestDof:
    def test_default_config(self, tmp_path):
        code, text = run(tmp_path, "dof")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "K,L_D,L_I,N,dof_theorem1,dof_symmetric,dof_ic"
        assert lines[1] == "2,4,2,3,1,1,0.8"

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 3\nusers_per_cell = 3\ncir_len = 8,2,2; 2,8,2; 2,2,8\n")
        code, text = run(tmp_path, "dof", "--config", str(cfgfile))
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[:5] == ["3", "8", "2", "8", "2"]
        # U = 3 < L_D - L_I, so the symmetric closed form does not apply
        assert row[5] == ""
        assert float(row[6]) == pytest.approx(18 / 13)

    def test_asymmetric_leaves_blanks(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text(
            "K = 3\nusers_per_cell = 3\ncir_len = 5,2,2; 2,6,2; 2,2,8\n"
        )
        code, text = run(tmp_path, "dof", "--config", str(cfgfile))
        row = text.splitlines()[1].split(",")
        assert code == 0
        assert row[5] == "" and row[6] == ""
        assert float(row[4]) > 1.0


class TestSweep:
    def test_ld_sweep(self, tmp_path):
        code, text = run(tmp_path, "sweep", "--sweep", "L_D=4,8,16")
        lines = text.splitlines()
        assert code == 0
        assert lines[0].startswith("sweep_L_D,")
        assert len(lines) == 4
        dofs = [float(line.split(",")[5]) for line in lines[1:]]
        assert dofs == sorted(dofs)

    def test_ld_sweep_keeps_config_interfering_length(self, tmp_path):
        # L_I comes from the config (here 3) and U = L_D - L_I, as for the K axis
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 5\ncir_len = 8,3; 3,8\n")
        code, text = run(tmp_path, "sweep", "--sweep", "L_D=6,9", "--config", str(cfgfile))
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(r[0], r[2], r[3]) for r in rows] == [("6", "6", "3"), ("9", "9", "3")]
        for r in rows:
            x = int(r[0])
            assert float(r[6]) == pytest.approx(analysis.dof_symmetric(2, x, 3, x - 3))

    def test_missing_axis_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep")
        assert code == 2

    def test_unknown_axis_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--sweep", "bogus=1,2")
        assert code == 2


class TestRate:
    def test_output_shape_and_monotonicity(self, tmp_path):
        code, text = run(tmp_path, "rate", "--snr", "0,20,40", "--trials", "10")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "snr_db,proposed_sum_se,baseline_sum_se"
        proposed = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(proposed) == 3
        assert proposed == sorted(proposed)

    def test_rerun_is_byte_identical(self, tmp_path):
        _, a = run(tmp_path, "rate", "--snr", "10", "--trials", "5", name="a.csv")
        _, b = run(tmp_path, "rate", "--snr", "10", "--trials", "5", name="b.csv")
        assert a == b

    def test_seed_changes_output(self, tmp_path):
        _, a = run(tmp_path, "rate", "--snr", "10", "--trials", "5", "--seed", "1", name="a.csv")
        _, b = run(tmp_path, "rate", "--snr", "10", "--trials", "5", "--seed", "2", name="b.csv")
        assert a != b


class TestDrawCount:
    @pytest.mark.parametrize("command", ["rate", "verify"])
    def test_each_trial_drawn_once(self, tmp_path, monkeypatch, command):
        # both rate columns, and both verify checks, read the same draws
        calls = []
        original = model.sample_channel_iid

        def counting(cfg, rng):
            calls.append(rng)
            return original(cfg, rng)

        monkeypatch.setattr(model, "sample_channel_iid", counting)
        code, _ = run(tmp_path, command, "--trials", "7")
        assert code == 0
        assert len(calls) == 7


class TestSimulate:
    def test_noiseless_like_mse_is_small_at_high_snr(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nsnr_db = 60\nsubblocks = 4\n")
        code, text = run(tmp_path, "simulate", "--config", str(cfgfile), "--trials", "5")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "trial,cell,normalized_mse"
        assert len(lines) == 1 + 5 * 2
        mse = [float(line.split(",")[2]) for line in lines[1:]]
        assert max(mse) < 1e-3


    def test_idle_cell_rows_omitted(self, tmp_path):
        # cell 1's desired links are no longer than its interfering ones, so it
        # has no active user: only cell 0 gets rows, and none is nan
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 2,3\ncir_len = 5,2; 2,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, text = run(tmp_path, "simulate", "--config", str(cfgfile), "--trials", "3")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("1", "0"), ("2", "0")]
        assert "nan" not in text
        assert all(np.isfinite(float(r[2])) for r in rows)

    @pytest.mark.parametrize("to_file", [True, False])
    def test_rank_deficient_draw_is_one_error_line(self, tmp_path, capsys, to_file):
        # cell 1's lone user carries 6 symbols on a 6 x 6 H_1; trial 83 of seed
        # 48 is the first draw whose H_1 fails the rank criterion (ratio 3.7e-10)
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 4,1\ncir_len = 2,1; 1,7\n")
        argv = ["simulate", "--config", str(cfgfile), "--seed", "48", "--trials", "242"]
        if to_file:
            code, text = run(tmp_path, *argv)
            assert not (tmp_path / "out.csv").exists()
        else:
            code, text = cli.main(argv), ""
        out, err = capsys.readouterr()
        assert (code, text, out) == (1, "", "")
        assert err == "error: trial 83, cell 1: effective channel is numerically rank deficient\n"


class TestVerify:
    def test_all_checks_pass(self, tmp_path):
        code, text = run(tmp_path, "verify", "--trials", "20")
        assert code == 0
        rows = text.splitlines()[1:]
        assert len(rows) == 4
        assert all(",pass," in row for row in rows)


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        code, _ = run(tmp_path, "dof", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_invalid_config_values(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 1,2,3\n")
        code, _ = run(tmp_path, "dof", "--config", str(cfgfile))
        assert code == 2

    def test_parse_error(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K == 2\n")
        code, _ = run(tmp_path, "dof", "--config", str(cfgfile))
        assert code == 2

    def test_errors_from_no_config_line_name_none(self, tmp_path, capsys):
        # a violated invariant and a missing --sweep come from no line of
        # the config file, so the message carries no line number
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 0\n")
        assert run(tmp_path, "dof", "--config", str(cfgfile)) == (2, "")
        assert capsys.readouterr().err == (
            "error: U_k >= 1 violated at cell 0 (U=0); U_k >= 1 violated at cell 1 (U=0)\n")
        assert run(tmp_path, "sweep") == (2, "")
        assert capsys.readouterr().err == "error: sweep requires --sweep key=v1,v2,...\n"

    @pytest.mark.parametrize("command", ["rate", "fig5", "verify"])
    def test_trials_below_one(self, tmp_path, capsys, command):
        code, text = run(tmp_path, command, "--trials", "0")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"

    def test_negative_seed(self, tmp_path, capsys):
        code, text = run(tmp_path, "rate", "--seed", "-1", "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("axis", ["L_D=x", "K=2,x", "subblocks=1.5", "snr_db=x"])
    def test_non_numeric_sweep_values(self, tmp_path, capsys, axis):
        code, text = run(tmp_path, "sweep", "--sweep", axis)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep %s values must be" % axis.partition("=")[0])
        assert err.count("\n") == 1

    def test_deployment_key_in_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nbandwidth_hz = 5\npdp_decay = 0.1; 0.2\n")
        code, text = run(tmp_path, "rate", "--config", str(cfgfile), "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: line 2: unknown key 'bandwidth_hz'\n"

    @pytest.mark.parametrize("snr", ["abc", "10,x", "nan"])
    def test_non_numeric_snr(self, tmp_path, capsys, snr):
        code, text = run(tmp_path, "rate", "--snr", snr, "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --snr must be")


class TestParserReuse:
    """main parses with one parser per process; build_parser stays fresh."""

    def test_build_parser_is_fresh_each_call(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_usage_errors_exit_2_before_and_after_a_run(self, tmp_path, capsys):
        cli._parser.cache_clear()
        for bad in (["fig5", "--trials", "two"], ["fig6"], []):
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
            assert run(tmp_path, "fig5", "--trials", "2")[0] == 0
            with pytest.raises(SystemExit) as exc:
                cli.main(bad)
            assert exc.value.code == 2
        assert "usage: blindim" in capsys.readouterr().err

    def test_successive_calls_write_the_same_csv(self, tmp_path):
        first = run(tmp_path, "rate", "--trials", "3", name="a.csv")
        other = run(tmp_path, "rate", "--trials", "4", "--seed", "5", "--snr", "0,20",
                    name="b.csv")
        again = run(tmp_path, "rate", "--trials", "3", name="c.csv")
        assert first == again != other
        # defaults come back after a call that set every option
        assert cli._parser().parse_args(["rate"]) == cli.build_parser().parse_args(["rate"])


class TestExperimentCommands:
    def test_fig3_small(self, tmp_path):
        code, text = run(tmp_path, "fig3", "--snr", "10,30", "--trials", "5")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "snr_db,K,proposed_sum_se,baseline_sum_se"
        assert len(lines) == 1 + 2 * 3   # two SNRs, K in {1, 2, 3}
        for line in lines[1:]:
            s, K, prop, base = line.split(",")
            assert float(prop) > 0 and float(base) > 0

    def test_fig5_smoke(self, tmp_path):
        code, text = run(tmp_path, "fig5", "--trials", "2")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "d_user_m,proposed_se,ofdma_se"
        assert len(lines) == 1 + 13
        assert all(float(x) > 0 for line in lines[1:] for x in line.split(",")[1:])


class TestImports:
    def test_no_scipy_at_run_time(self, tmp_path):
        # numpy is the only runtime dependency: neither importing the CLI nor
        # running simulate, the command that decodes, may load scipy, also
        # lazily; a fresh interpreter starts without the test suite's imports
        script = (
            "import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import blindim.cli\n"
            "print(scipy_modules())\n"
            "code = blindim.cli.main(['simulate', '--trials', '2', '--out', sys.argv[1]])\n"
            "print(code, scipy_modules())\n"
        )
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sim.csv")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 []"]
        assert len((tmp_path / "sim.csv").read_text().splitlines()) > 1


def _blindim_installed():
    try:
        md.distribution("blindim")
    except md.PackageNotFoundError:
        return False
    return True


class TestConsoleScript:
    def test_entry_point_installed(self, tmp_path):
        # Read the console scripts from the metadata that the build backend
        # generates from pyproject.toml (the egg_info step of an install), so
        # the declaration is checked without installing the package.
        pytest.importorskip("setuptools")
        proc = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        dist = md.Distribution.at(tmp_path / "blindim.egg-info")
        eps = dist.entry_points.select(group="console_scripts")
        assert any(ep.name == "blindim" and ep.value == "blindim.cli:main" for ep in eps)
        assert eps["blindim"].load() is cli.main

    @pytest.mark.skipif(
        not _blindim_installed(),
        reason="no blindim distribution is installed in this interpreter",
    )
    def test_installed_distribution_declares_entry_point(self):
        eps = md.entry_points(group="console_scripts")
        assert any(ep.name == "blindim" and ep.value == "blindim.cli:main" for ep in eps)
