import numpy as np
import pytest

from blindim import cli


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

    @pytest.mark.parametrize("command", ["rate", "fig5", "verify"])
    def test_trials_below_one(self, tmp_path, capsys, command):
        code, text = run(tmp_path, command, "--trials", "0")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"

    def test_negative_seed(self, tmp_path, capsys):
        code, text = run(tmp_path, "rate", "--seed", "-1", "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("snr", ["abc", "10,x", "nan"])
    def test_non_numeric_snr(self, tmp_path, capsys, snr):
        code, text = run(tmp_path, "rate", "--snr", snr, "--trials", "2")
        assert (code, text) == (2, "")
        assert capsys.readouterr().err.startswith("error: --snr must be")


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


class TestConsoleScript:
    def test_entry_point_installed(self):
        import importlib.metadata as md

        eps = md.entry_points(group="console_scripts")
        assert any(ep.name == "blindim" and ep.value == "blindim.cli:main" for ep in eps)
