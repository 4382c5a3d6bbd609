import importlib
import importlib.metadata as md
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blindim import analysis, cli, model, transceiver, verify
from oracles import distance_comparison_by_distance

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

    def test_one_cell_has_no_interference_channel(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 1\nusers_per_cell = 2\ncir_len = 5\n")
        code, text = run(tmp_path, "dof", "--config", str(cfgfile))
        assert code == 0
        assert text.splitlines()[1] == "1,5,1,6,1,,"


class TestSweep:
    def test_k_sweep_leaves_one_cell_interference_channel_blank(self, tmp_path):
        code, text = run(tmp_path, "sweep", "--sweep", "K=1,2")
        assert code == 0
        assert text.splitlines()[1:] == ["1,1,4,1,4,1,,", "2,2,4,2,3,1,1,0.8"]

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

    @pytest.mark.parametrize("config, L_I", [
        # one cell has no cross link
        ("K = 1\nusers_per_cell = 3\ncir_len = 5\n", 1),
        # the longest cross link is not cir_len[0][1]
        ("K = 3\nusers_per_cell = 5\ncir_len = 9,2,2; 2,9,4; 2,2,9\n", 4),
    ])
    def test_ld_sweep_takes_the_l_i_that_dof_reports(self, tmp_path, config, L_I):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text(config)
        dof = run(tmp_path, "dof", "--config", str(cfgfile), name="dof.csv")[1]
        assert dof.splitlines()[1].split(",")[2] == str(L_I)
        code, text = run(tmp_path, "sweep", "--sweep", "L_D=8,9", "--config", str(cfgfile))
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [(r[0], r[2], r[3]) for r in rows] == [("8", "8", str(L_I)), ("9", "9", str(L_I))]

    def test_missing_axis_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep")
        assert code == 2

    def test_unknown_axis_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--sweep", "bogus=1,2")
        assert code == 2

    @pytest.mark.parametrize("config, axis, L_I", [
        (None, "L_D=2,3", 2),
        (None, "L_D=4,1", 2),
        ("K = 2\nusers_per_cell = 5\ncir_len = 8,3; 3,8\n", "L_D=6,3", 3),
    ])
    def test_ld_not_above_interfering_length(self, tmp_path, capsys, config, axis, L_I):
        # the error names the swept L_D and the config's L_I, not the derived
        # U = L_D - L_I the user never set
        argv = ["sweep", "--sweep", axis]
        if config:
            cfgfile = tmp_path / "sys.cfg"
            cfgfile.write_text(config)
            argv += ["--config", str(cfgfile)]
        assert run(tmp_path, *argv) == (2, "")
        assert capsys.readouterr().err == (
            "error: --sweep L_D values must exceed L_I = %d, since each cell has "
            "U = L_D - L_I users, got %r\n" % (L_I, axis))


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
    @staticmethod
    def opened(tmp_path, monkeypatch, *argv):
        """The trials whose streams a successful run of argv opens, in order."""
        calls = []
        original = model.trial_rng

        def counting(seed, trial):
            calls.append(trial)
            return original(seed, trial)

        monkeypatch.setattr(model, "trial_rng", counting)
        code, _ = run(tmp_path, *argv)
        assert code == 0
        return calls

    @pytest.mark.parametrize("command", ["rate", "verify", "fig3", "fig5"])
    def test_each_trial_drawn_once(self, tmp_path, monkeypatch, command):
        # both rate columns, both verify checks, fig3's three networks and
        # fig5's distances read the same draws: each trial's stream is opened once
        assert self.opened(tmp_path, monkeypatch, command, "--trials", "7") == list(range(7))

    def test_fig3_draws_each_trial_once_across_blocks(self, tmp_path, monkeypatch):
        trials = model.TRIAL_BLOCK + 1
        calls = self.opened(tmp_path, monkeypatch, "fig3", "--trials", str(trials))
        assert calls == list(range(trials))


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
    def test_no_active_cell_is_an_error(self, tmp_path, capsys, monkeypatch, to_file):
        # every L_kk <= L_I leaves no cell to decode: no header-only CSV and
        # exit 0, but one error line before any draw (one active cell keeps
        # its rows: test_idle_cell_rows_omitted)
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 2\ncir_len = 2,2; 2,2\n")
        monkeypatch.setattr(model, "trial_rng",
                            lambda *a: pytest.fail("simulate drew a trial"))
        argv = ["simulate", "--config", str(cfgfile), "--trials", "3"]
        code = run(tmp_path, *argv)[0] if to_file else cli.main(argv)
        assert code == 2
        assert not (tmp_path / "out.csv").exists()
        assert capsys.readouterr() == (
            "", "error: simulate needs a cell with L_kk > L_I; every L_kk <= L_I = 2\n")

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

    def test_config_seed_is_used(self, tmp_path):
        # the config is verify's default network, so only the seed can differ
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 3\nusers_per_cell = 3\ncir_len = 8,2,2; 2,8,2; 2,2,8\nseed = 5\n")
        from_file = run(tmp_path, "verify", "--config", str(cfgfile), "--trials", "10",
                        name="a.csv")
        from_flag = run(tmp_path, "verify", "--seed", "5", "--trials", "10", name="b.csv")
        seed_0 = run(tmp_path, "verify", "--trials", "10", name="c.csv")
        assert from_file[0] == 0
        assert from_file == from_flag != seed_0

    def test_no_active_cell_is_an_error(self, tmp_path, capsys):
        # every L_kk <= L_I leaves no column to check: no CSV of passes
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 2\ncir_len = 2,2; 2,2\n")
        assert run(tmp_path, "verify", "--config", str(cfgfile), "--trials", "5") == (2, "")
        assert not (tmp_path / "out.csv").exists()
        assert capsys.readouterr().err == (
            "error: verify needs a cell with L_kk > L_I; every L_kk <= L_I = 2\n")

    def test_one_active_cell_passes(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nusers_per_cell = 2\ncir_len = 5,2; 2,2\n")
        code, text = run(tmp_path, "verify", "--config", str(cfgfile), "--trials", "5")
        rows = text.splitlines()[1:]
        assert code == 0
        assert len(rows) == 4 and all(",pass," in row for row in rows)

    @pytest.mark.parametrize("to_file", [True, False])
    def test_failed_check_exits_1_with_its_table(self, tmp_path, capsys, monkeypatch,
                                                 to_file):
        # no residual is within a negative tolerance: the decomposition check
        # fails, and the table still reports every check
        monkeypatch.setattr(verify, "DECOMPOSITION_TOL", -1.0)
        argv = ["verify", "--trials", "2"]
        if to_file:
            code, text = run(tmp_path, *argv)
            stdout, err = capsys.readouterr()
        else:
            code = cli.main(argv)
            text, err = capsys.readouterr()
            stdout = ""
        assert (code, stdout, err) == (1, "", "")
        rows = text.splitlines()
        assert rows[0] == "check,detail,status,residual"
        assert len(rows) == 5
        assert rows[1].startswith("decomposition,2 random channels,FAIL,")
        assert all(",pass," in row for row in rows[2:])


class TestErrors:
    def test_missing_config_file(self, tmp_path):
        code, _ = run(tmp_path, "dof", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    @pytest.mark.parametrize("case", ["out is a directory", "config is a directory",
                                      "config is not text"])
    def test_unusable_path(self, tmp_path, capsys, case):
        # a file that cannot be written or read is a usage error: one error
        # line that names the path, no traceback and no CSV
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xffK = 2\n")
        out = tmp_path / "out.csv"
        path, argv = {"out is a directory": (tmp_path, ["dof", "--out", str(tmp_path)]),
                      "config is a directory": (tmp_path, ["dof", "--config", str(tmp_path)]),
                      "config is not text": (bad, ["dof", "--config", str(bad)])}[case]
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert cli.main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        # --out is opened before the command's work starts
        monkeypatch.setattr(analysis, "run_snr_comparison",
                            lambda *a, **k: pytest.fail("fig3 ran before --out was opened"))
        assert cli.main(["fig3", "--trials", "20000", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err

    def test_failed_run_keeps_an_existing_out(self, tmp_path):
        # a failed command leaves an existing --out file's bytes as they
        # were; a run that succeeds replaces them
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 0\n")
        out = tmp_path / "out.csv"
        out.write_bytes(b"old bytes that outlast the new table" * 10)
        assert cli.main(["dof", "--config", str(cfgfile), "--out", str(out)]) == 2
        assert out.read_bytes() == b"old bytes that outlast the new table" * 10
        assert cli.main(["dof", "--out", str(out)]) == 0
        assert out.read_text() == run(tmp_path, "dof", name="fresh.csv")[1]

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

    @pytest.mark.parametrize("command", ["rate", "fig5", "verify", "simulate", "fig3"])
    def test_trials_below_one(self, tmp_path, capsys, command):
        code, text = run(tmp_path, command, "--trials", "0")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["rate", "simulate", "verify", "fig3", "fig5"])
    def test_negative_seed(self, tmp_path, capsys, command):
        # the config the seed enters rejects it
        code, text = run(tmp_path, command, "--seed", "-1", "--trials", "2")
        assert (code, text) == (2, "")
        assert not (tmp_path / "out.csv").exists()
        assert capsys.readouterr().err == "error: seed >= 0 violated (seed=-1)\n"

    @pytest.mark.parametrize("command", ["rate", "simulate", "verify"])
    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "seed >= 0 violated (seed=-1)"),
        ("snr_db = nan", "snr_db must be finite (snr_db=nan)"),
        ("snr_db = inf", "snr_db must be finite (snr_db=inf)"),
        ("snr_db = 4000", "snr_db <= 1541.27 violated (snr_db=4000.0)"),
        ("snr_db = -4000", "snr_db >= -1541.27 violated (snr_db=-4000.0)"),
    ])
    def test_config_invariant_violated(self, tmp_path, capsys, command, line, message):
        # a config file's negative seed, or an SNR that is not finite or
        # whose linear value squared overflows or underflows to 0, is a
        # configuration error: no traceback, and no CSV of nan or inf rows
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\n%s\n" % line)
        code, text = run(tmp_path, command, "--config", str(cfgfile), "--trials", "2")
        assert (code, text) == (2, "")
        assert not (tmp_path / "out.csv").exists()
        assert capsys.readouterr().err == "error: %s\n" % message

    def test_seed_option_does_not_rescue_a_config_seed(self, tmp_path, capsys):
        # the file's config is checked when it is read, before --seed replaces its seed
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nseed = -1\n")
        code, text = run(tmp_path, "rate", "--config", str(cfgfile), "--seed", "3",
                         "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: seed >= 0 violated (seed=-1)\n"

    @pytest.mark.parametrize("axis", ["L_D=x", "K=2,x", "L_D=4,1.5", "K=x", "L_D=4,,8", "K=2,"])
    def test_non_numeric_sweep_values(self, tmp_path, capsys, axis):
        code, text = run(tmp_path, "sweep", "--sweep", axis)
        assert (code, text) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep %s values must be" % axis.partition("=")[0])
        assert err.count("\n") == 1

    def test_empty_sweep_list(self, tmp_path, capsys):
        code, text = run(tmp_path, "sweep", "--sweep", "L_D=")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: empty sweep list for 'L_D'\n"

    @pytest.mark.parametrize("axis", ["snr_db=0,10", "subblocks=1,2", "seed=0,1"])
    def test_axes_a_dof_row_ignores(self, tmp_path, capsys, axis):
        # a DoF row depends on neither the SNR, B nor the seed: no rows of copies
        code, text = run(tmp_path, "sweep", "--sweep", axis)
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: unknown sweep key %r: supported sweep keys are L_D and K\n"
            % axis.partition("=")[0])

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

    @pytest.mark.parametrize("command", ["rate", "fig3"])
    def test_snr_that_overflows(self, tmp_path, capsys, command):
        code, text = run(tmp_path, command, "--snr", "10,4000", "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --snr must be a comma-separated list of numbers from -1541.27 to "
            "1541.27 dB, got '10,4000'\n")

    @pytest.mark.parametrize("command", ["rate", "fig3"])
    def test_snr_that_underflows(self, tmp_path, capsys, command):
        # the linear SNR of -4000 dB underflows to 0
        code, text = run(tmp_path, command, "--snr=-4000", "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == (
            "error: --snr must be a comma-separated list of numbers from -1541.27 to "
            "1541.27 dB, got '-4000'\n")

    @pytest.mark.parametrize("command", ["rate", "simulate"])
    def test_largest_snr_gives_finite_rows(self, tmp_path, command):
        # at the bound, powers times channel gains stay finite end to end
        self._check_finite_rows(tmp_path, command, model.MAX_SNR_DB)

    @pytest.mark.parametrize("command", ["rate", "simulate"])
    def test_smallest_snr_gives_finite_rows(self, tmp_path, command):
        # at the lower bound the symbol power stays above zero, so simulate's
        # error over it stays finite
        self._check_finite_rows(tmp_path, command, -model.MAX_SNR_DB)

    @staticmethod
    def _check_finite_rows(tmp_path, command, snr_db):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\nsnr_db = %r\n" % snr_db)
        code, text = run(tmp_path, command, "--config", str(cfgfile), "--trials", "3")
        assert code == 0
        values = np.array([line.split(",") for line in text.splitlines()[1:]], dtype=float)
        assert values.size and np.isfinite(values).all()


# The options each command reads
READS = {
    "dof": {"--config", "--out"},
    "sweep": {"--config", "--out", "--sweep"},
    "rate": {"--config", "--out", "--seed", "--trials", "--snr"},
    "simulate": {"--config", "--out", "--seed", "--trials"},
    "verify": {"--config", "--out", "--seed", "--trials"},
    "fig3": {"--out", "--seed", "--trials", "--snr"},
    "fig5": {"--out", "--seed", "--trials"},
}
OPTIONS = ["--config", "--out", "--seed", "--trials", "--snr", "--sweep"]


class TestOptionsPerCommand:
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, reads in READS.items() for flag in OPTIONS
        if flag not in reads
    ])
    def test_unread_option_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s 1" % flag in capsys.readouterr().err

    def test_benchmark_command_lines_parse(self, tmp_path):
        cfgfile = tmp_path / "sys.cfg"
        cfgfile.write_text("K = 2\n")
        for argv in (["fig3"], ["verify"], ["fig5"], ["simulate", "--config", str(cfgfile)]):
            code, text = run(tmp_path, *argv, "--trials", "1", "--seed", "3")
            assert code == 0 and text


# arguments each handler runs on: every command, on few trials
SMALL = {
    "dof": ["dof"],
    "sweep": ["sweep", "--sweep", "L_D=4,8"],
    "rate": ["rate", "--trials", "2", "--snr", "0,20"],
    "simulate": ["simulate", "--trials", "2"],
    "verify": ["verify", "--trials", "2"],
    "fig3": ["fig3", "--trials", "1", "--snr", "10"],
    "fig5": ["fig5", "--trials", "1"],
}


class TestHandlers:
    """A command computes its table and main alone writes it."""

    def test_every_command_is_covered(self):
        assert set(SMALL) == set(cli.COMMANDS)

    @pytest.mark.parametrize("command", SMALL)
    def test_handler_returns_its_table_and_prints_nothing(self, capsys, command):
        args = cli.build_parser().parse_args(SMALL[command])
        header, rows, ok = cli.COMMANDS[command][0](args)
        assert capsys.readouterr() == ("", "")
        assert ok is True
        assert header and rows
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("exists", [True, False])
    def test_failed_write_exits_2(self, tmp_path, capsys, monkeypatch, exists):
        # a write that fails part way through the table: a file the run
        # created is removed, an existing one keeps its bytes
        real_write_csv = cli._write_csv

        def failing_write(out, header, rows):
            real_write_csv(out, header, rows[:1])
            out.flush()
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_csv", failing_write)
        out = tmp_path / "out.csv"
        old = b"old bytes that a failed write leaves\n" * 3
        if exists:
            out.write_bytes(old)
        assert cli.main(["fig5", "--trials", "1", "--out", str(out)]) == 2
        assert (out.read_bytes() == old) if exists else not out.exists()
        assert capsys.readouterr() == ("", "error: disk full\n")


# a command line of each kind the --out tests run: a DoF row, a Monte Carlo
# rate and fig5
REWRITTEN = {
    "dof": ["dof"],
    "rate": ["rate", "--trials", "2"],
    "fig5": ["fig5", "--trials", "1"],
}


class TestOutRewrite:
    """--out is opened once before the run and not truncated: the CSV is
    written over it from offset 0 and the file cut at the end of the new
    bytes."""

    @pytest.fixture
    def failing(self, tmp_path, monkeypatch):
        """command -> (argv, status) of a run that fails after --out is
        opened: a config error, a bad --snr, a rank failure in fig5's rates
        and simulate's trial 83 (test_rank_deficient_draw_is_one_error_line)."""
        bad = tmp_path / "bad.cfg"
        bad.write_text("K = 0\n")
        rank = tmp_path / "rank.cfg"
        rank.write_text("K = 2\nusers_per_cell = 4,1\ncir_len = 2,1; 1,7\n")

        def rank_failure(**kwargs):
            raise transceiver.RankDeficientError("cell 0: effective channel is rank deficient")

        monkeypatch.setattr(analysis, "run_distance_comparison", rank_failure)
        return {
            "dof": (["dof", "--config", str(bad)], 2),
            "rate": (["rate", "--trials", "2", "--snr", "x"], 2),
            "fig5": (["fig5", "--trials", "1"], 1),
            "simulate": (["simulate", "--config", str(rank), "--seed", "48", "--trials", "242"], 1),
        }

    @pytest.mark.parametrize("command", REWRITTEN)
    def test_longer_file_holds_exactly_the_new_bytes(self, tmp_path, capsys, monkeypatch,
                                                     command):
        assert cli.main(REWRITTEN[command]) == 0
        want = capsys.readouterr().out.encode()
        out = tmp_path / "out.csv"
        out.write_bytes(b"an older, longer table\n" * len(want))
        inode = out.stat().st_ino
        flags = []
        real_open = os.open

        def recording(path, flag, *args):
            if str(path) == str(out):
                flags.append(flag)
            return real_open(path, flag, *args)

        monkeypatch.setattr(os, "open", recording)
        assert cli.main(REWRITTEN[command] + ["--out", str(out)]) == 0
        assert out.read_bytes() == want
        # the same file, rewritten in place: never truncated to 0
        assert out.stat().st_ino == inode
        assert flags and not any(flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("command", REWRITTEN)
    def test_stdout_is_the_file_bytes(self, tmp_path, capsys, command):
        code, text = run(tmp_path, *REWRITTEN[command])
        assert cli.main(REWRITTEN[command]) == code == 0
        assert capsys.readouterr().out == text
        rows = {"dof": 1, "rate": 1, "fig5": 13}[command]
        assert len(text.splitlines()) == 1 + rows and text.endswith("\n")

    @pytest.mark.parametrize("command", list(REWRITTEN) + ["simulate"])
    def test_failed_run_keeps_an_existing_file(self, tmp_path, capsys, failing, command):
        argv, status = failing[command]
        out = tmp_path / "out.csv"
        old = b"old bytes that a failed run leaves\n" * 3
        out.write_bytes(old)
        assert cli.main(argv + ["--out", str(out)]) == status
        assert out.read_bytes() == old
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", list(REWRITTEN) + ["simulate"])
    def test_failed_run_removes_the_file_it_created(self, tmp_path, failing, command):
        argv, status = failing[command]
        out = tmp_path / "out.csv"
        assert cli.main(argv + ["--out", str(out)]) == status
        assert not out.exists()

    def test_a_device_is_written_but_not_cut(self):
        # a character device cannot be truncated: the CSV goes through and
        # the command exits 0
        assert cli.main(["dof", "--out", os.devnull]) == 0


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

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_fig5_csv_matches_one_distance_at_a_time(self, tmp_path, monkeypatch, seed):
        # fig5 draws the links into cell 0 only and rates several distances
        # per call; rating each distance alone on every link's draws writes
        # the same bytes
        code, text = run(tmp_path, "fig5", "--seed", seed)
        assert code == 0
        monkeypatch.setattr(analysis, "run_distance_comparison",
                            lambda trials, seed: distance_comparison_by_distance(trials=trials,
                                                                                 seed=seed))
        assert run(tmp_path, "fig5", "--seed", seed, name="every.csv") == (0, text)


class TestImports:
    def test_no_scipy_at_run_time(self, tmp_path):
        # numpy is the only runtime dependency: neither importing the CLI nor
        # running any command may load scipy, also lazily.  The test extra
        # installs scipy, so only a fresh interpreter, which starts without
        # the test suite's imports, sees a stray import
        commands = [["dof"], ["rate"], ["verify"], ["fig3", "--trials", "2"],
                    ["fig5", "--trials", "2"], ["simulate", "--trials", "2"]]
        script = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "import blindim.cli\n"
            "print(scipy_modules())\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    out = '%s/%d.csv' % (sys.argv[2], i)\n"
            "    print(argv[0], blindim.cli.main(argv + ['--out', out]), scipy_modules())\n"
        )
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"] + ["%s 0 []" % argv[0] for argv in commands]
        for i in range(len(commands)):
            assert len((tmp_path / ("%d.csv" % i)).read_text().splitlines()) > 1

    def test_thread_pool_only_when_trials_run_on_threads(self, tmp_path):
        # importing the CLI loads no concurrent.futures, and nor does a
        # simulate on one thread (the default config's decode work is 16); a
        # large link with BLAS pinned to one thread loads it exactly when
        # its trials go to threads, which needs a second CPU
        script = (
            "import sys\n"
            "def pool():\n"
            "    return 'concurrent.futures' in sys.modules\n"
            "import blindim.cli\n"
            "from blindim import model, transceiver\n"
            "print(pool())\n"
            "blindim.cli.main(['simulate', '--trials', '2', '--out', sys.argv[1]])\n"
            "print(pool())\n"
            "cfg = model.SystemConfig.symmetric(K=7, L_D=32, L_I=4, U=6, subblocks=3)\n"
            "plan = model.make_plan(cfg)\n"
            "transceiver.run_link_trials(cfg, plan, 2)\n"
            "print(pool() == (transceiver._trial_workers(plan, 2) > 1))\n"
        )
        path = filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sim.csv")],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["False", "False", "True"]


class TestReadme:
    def test_quick_start_runs(self, tmp_path):
        # the README's python quick-start block, run as a reader would from a
        # source checkout: it prints the plan, the sum DoF, the noiseless
        # decoding error and the ergodic rates
        text = (REPO_ROOT / "README.md").read_text()
        start = text.index("```python\n", text.index("## Library quick start")) + 10
        script = text[start : text.index("```", start)]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[1] == "2.0"
        assert float(lines[2]) <= 1e-9

    def test_named_functions_exist(self):
        # every `module.name` the README names, for a blindim submodule, exists
        import blindim

        submodules = {m.name for m in pkgutil.iter_modules(blindim.__path__)}
        text = (REPO_ROOT / "README.md").read_text()
        spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
        named = {m.groups() for m in map(re.compile(r"(\w+)\.(\w+)").match, spans)
                 if m and m[1] in submodules}
        assert named
        missing = ["%s.%s" % (mod, name) for mod, name in sorted(named)
                   if not hasattr(importlib.import_module("blindim." + mod), name)]
        assert missing == []


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
