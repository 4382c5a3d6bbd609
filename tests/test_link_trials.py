"""transceiver.run_link_trials, simulate's trials: whether they run on one
thread or as contiguous chunks on several, the rows and the first error are
those of one thread running the trials in order (oracles.link_trials_in_order).

The threaded path is forced by pinning BLAS to one thread through its
variables and by setting the CPU count; with a BLAS that reads none of
transceiver.BLAS_THREAD_VARS the rule keeps one thread, so those tests skip."""

import concurrent.futures
import dataclasses
import threading
import time

import numpy as np
import pytest

from blindim import cli, configfile, model, transceiver
from oracles import link_trials_in_order

# perfbench's link_large: K=7, L_D=32, L_I=4, U=6, B=100 at 20 dB
LARGE = model.SystemConfig.symmetric(K=7, L_D=32, L_I=4, U=6, subblocks=100, snr_db=20.0)
# cell 2 is idle (L_22 = L_I = 4); the others send 6 x 4 and 4 x 5 streams
IDLE_CELL = model.SystemConfig(K=3, users_per_cell=[6, 4, 2],
                               cir_len=[[32, 4, 3], [4, 24, 4], [2, 4, 4]], subblocks=30)
# seed 3 fails the rank criterion first at trial 17, seed 7 at trial 179
FAILING = "K = 2\nusers_per_cell = 4\ncir_len = 32,4; 4,32\nsubblocks = 100\n"
BLAS_VARS = {var for names in transceiver.BLAS_THREAD_VARS.values() for var in names}
BLAS_NAME = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
pinnable = pytest.mark.skipif(BLAS_NAME not in transceiver.BLAS_THREAD_VARS,
                              reason="numpy's BLAS %s has no known thread variable" % BLAS_NAME)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(transceiver.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _blas(monkeypatch, threads=None):
    """Leave every BLAS thread variable unset, or set the first each library
    reads to threads."""
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        for names in transceiver.BLAS_THREAD_VARS.values():
            monkeypatch.setenv(names[0], str(threads))


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every ThreadPoolExecutor run_link_trials makes."""
    made = []
    real = concurrent.futures.ThreadPoolExecutor

    class Recording(real):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
    return made


@pytest.fixture
def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_link_trials made a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def _check_against_oracle(cfg, trials, pools, cpus):
    plan = model.make_plan(cfg)
    before = set(threading.enumerate())
    rows = transceiver.run_link_trials(cfg, plan, trials)
    assert set(threading.enumerate()) == before
    assert rows == link_trials_in_order(cfg, plan, trials)
    # the calling thread takes the first chunk, the pool the others
    assert pools == ([min(trials, cpus) - 1] if trials > 1 else [])


@pinnable
class TestThreadedRows:
    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("trials", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", [0, 7, 7919])
    def test_large_link_equals_the_loop(self, monkeypatch, pools, seed, trials, cpus):
        _cpus(monkeypatch, cpus)
        _blas(monkeypatch, 1)
        cfg = model.SystemConfig(**{**vars(LARGE), "seed": seed})
        _check_against_oracle(cfg, trials, pools, cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_idle_cell_equals_the_loop(self, monkeypatch, pools, seed, cpus):
        _cpus(monkeypatch, cpus)
        _blas(monkeypatch, 1)
        cfg = model.SystemConfig(**{**vars(IDLE_CELL), "seed": seed})
        _check_against_oracle(cfg, 5, pools, cpus)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_qpsk_equals_the_loop(self, monkeypatch, pools, seed):
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        cfg = model.SystemConfig(**{**vars(LARGE), "seed": seed, "symbol_model": "qpsk"})
        _check_against_oracle(cfg, 3, pools, 2)

    def test_cpu_count_without_affinity(self, monkeypatch, pools):
        # where os.sched_getaffinity is missing, os.cpu_count counts the CPUs
        monkeypatch.delattr(transceiver.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(transceiver.os, "cpu_count", lambda: 3)
        _blas(monkeypatch, 1)
        _check_against_oracle(LARGE, 3, pools, 3)


@pinnable
class TestFirstFailingTrial:
    """The threaded run reports the failure one thread in trial order would:
    one error line, exit 1, no CSV, and no thread left running."""

    @pytest.mark.parametrize("seed, trial, cell", [(3, 17, 1), (7, 179, 0)])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, pools, seed, trial, cell):
        # 300 trials on 2 CPUs: chunk 0 is trials 0-149, the worker's 150-299
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        opened = []
        original = model.trial_rng

        def counting(seed, t):
            opened.append(t)
            return original(seed, t)

        monkeypatch.setattr(model, "trial_rng", counting)
        cfgfile, out = tmp_path / "fail.cfg", tmp_path / "out.csv"
        cfgfile.write_text(FAILING)
        before = set(threading.enumerate())
        argv = ["simulate", "--config", str(cfgfile), "--seed", str(seed), "--trials", "300"]
        assert cli.main(argv + ["--out", str(out)]) == 1
        assert set(threading.enumerate()) == before
        assert pools == [1] and not out.exists()
        assert capsys.readouterr() == (
            "", "error: trial %d, cell %d: effective channel is numerically rank deficient\n"
            % (trial, cell))
        # every trial up to the failure ran
        assert set(range(trial + 1)) <= set(opened)
        # the loop fails at the same trial
        cfg = dataclasses.replace(configfile.load_system_config(FAILING), seed=seed)
        with pytest.raises(transceiver.RankDeficientError, match="^trial %d, " % trial):
            link_trials_in_order(cfg, model.make_plan(cfg), 300)

    @pytest.mark.parametrize("failing, first", [({7}, 7), ({4, 1}, 1), ({2, 6}, 2)])
    def test_earlier_chunks_run_on(self, monkeypatch, pools, failing, first):
        # 9 trials on 3 CPUs: chunks 0-2, 3-5 and 6-8.  Chunk 0 is slow, so a
        # later chunk's failure comes first in time; chunk 0 still runs to its
        # own failure, which is the one raised
        _cpus(monkeypatch, 3)
        _blas(monkeypatch, 1)
        ran = []

        def trial(cfg, plan, t):
            if t < 3:
                time.sleep(0.02)
            ran.append(t)
            if t in failing:
                raise transceiver.RankDeficientError("trial %d" % t)
            return [(t, 0, 0.0)]

        monkeypatch.setattr(transceiver, "_link_trial", trial)
        before = set(threading.enumerate())
        with pytest.raises(transceiver.RankDeficientError, match="^trial %d$" % first):
            transceiver.run_link_trials(LARGE, model.make_plan(LARGE), 9)
        assert set(threading.enumerate()) == before
        assert pools == [2]
        assert set(range(first + 1)) <= set(ran)

    def test_later_chunks_stop_at_their_next_trial(self, monkeypatch, pools):
        # 9 trials on 3 CPUs; trial 0 fails at once while the other chunks'
        # trials take 0.1 s each: each of them ends after the trial it was in
        _cpus(monkeypatch, 3)
        _blas(monkeypatch, 1)
        ran = []

        def trial(cfg, plan, t):
            ran.append(t)
            if t == 0:
                raise transceiver.RankDeficientError("trial 0")
            time.sleep(0.1)
            return [(t, 0, 0.0)]

        monkeypatch.setattr(transceiver, "_link_trial", trial)
        with pytest.raises(transceiver.RankDeficientError, match="^trial 0$"):
            transceiver.run_link_trials(LARGE, model.make_plan(LARGE), 9)
        assert set(ran) <= {0, 3, 6}


class TestSerialSide:
    """Each side of the rule that keeps one thread: no pool is made, and the
    rows are the loop's."""

    def test_small_decode_work(self, monkeypatch, no_pool):
        # the default config's decode work is 16, K=7/L_D=12/L_I=4/U=6's 2016
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        for cfg in (model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[4, 2], [2, 4]]),
                    model.SystemConfig.symmetric(K=7, L_D=12, L_I=4, U=6, seed=5)):
            plan = model.make_plan(cfg)
            rows = transceiver.run_link_trials(cfg, plan, 7)
            assert rows == link_trials_in_order(cfg, plan, 7)

    @pytest.mark.parametrize("cpus, threads", [(1, 1), (2, None), (2, 2), (3, 2)])
    def test_no_idle_core(self, monkeypatch, no_pool, cpus, threads):
        # one CPU; BLAS free to use every core; or a BLAS thread count that
        # leaves no core for a second trial
        _cpus(monkeypatch, cpus)
        _blas(monkeypatch, threads)
        plan = model.make_plan(LARGE)
        assert transceiver.run_link_trials(LARGE, plan, 2) == link_trials_in_order(LARGE, plan, 2)

    def test_one_trial(self, monkeypatch, no_pool):
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        plan = model.make_plan(LARGE)
        assert transceiver.run_link_trials(LARGE, plan, 1) == link_trials_in_order(LARGE, plan, 1)

    def test_default_simulate_runs(self, tmp_path, monkeypatch, no_pool):
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        out = tmp_path / "out.csv"
        assert cli.main(["simulate", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 200


class TestErrorRows:
    """A trial takes each cell group's errors in one stacked pass; its rows,
    in cell order, are the bits of the oracle's cell-by-cell ones."""

    @pytest.mark.parametrize("cfg", [
        model.SystemConfig(K=3, users_per_cell=[3, 2, 3], subblocks=2,
                           cir_len=[[8, 2, 2], [2, 8, 2], [2, 2, 8]]),
        model.SystemConfig(K=4, users_per_cell=[2, 2, 2, 3], subblocks=3, symbol_model="qpsk",
                           cir_len=[[2, 2, 2, 2], [2, 8, 2, 2], [2, 2, 2, 2], [2, 2, 2, 8]]),
        IDLE_CELL,
    ], ids=["groups (0, 2) and (1,)", "idle cells 0 and 2, qpsk", "idle cell 2"])
    def test_match_the_per_cell_rows(self, cfg):
        plan = model.make_plan(cfg)
        rows = transceiver.run_link_trials(cfg, plan, 5)
        assert [k for _, k, _ in rows[: len(rows) // 5]] == [
            k for k in range(cfg.K) if plan.U_active[k] * plan.M[k]]
        assert rows == link_trials_in_order(cfg, plan, 5)


@pinnable
class TestTrialCount:
    """The trial-count rule of every trial loop, on the path that would run
    LARGE's trials on threads."""

    def test_integral_real_runs_as_its_int(self, monkeypatch, pools):
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        plan = model.make_plan(LARGE)
        before = set(threading.enumerate())
        assert transceiver.run_link_trials(LARGE, plan, 2.0) == link_trials_in_order(LARGE, plan, 2)
        assert set(threading.enumerate()) == before
        assert pools == [1]

    @pytest.mark.parametrize("trials, message", [
        (2.5, "an integer, got 2.5"), ("2", "an integer, got '2'"),
        (None, "an integer, got None"), (0, ">= 1, got 0"), (-1, ">= 1, got -1")])
    def test_bad_count_raises_before_any_thread(self, monkeypatch, pools, trials, message):
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        before = set(threading.enumerate())
        with pytest.raises(ValueError) as exc:
            transceiver.run_link_trials(LARGE, model.make_plan(LARGE), trials)
        assert str(exc.value) == "trials must be " + message
        assert pools == []
        assert set(threading.enumerate()) == before

    def test_no_active_cell_raises_before_any_thread(self, monkeypatch, pools):
        # every L_kk <= L_I: no cell sends, so there is no row to compute
        _cpus(monkeypatch, 2)
        _blas(monkeypatch, 1)
        cfg = model.SystemConfig.symmetric(K=2, L_D=2, L_I=2, U=2)
        before = set(threading.enumerate())
        with pytest.raises(model.ConfigError) as exc:
            transceiver.run_link_trials(cfg, model.make_plan(cfg), 3)
        assert str(exc.value) == "simulate needs a cell with L_kk > L_I; every L_kk <= L_I = 2"
        assert pools == []
        assert set(threading.enumerate()) == before


class TestBlasThreads:
    @pytest.mark.parametrize("name, env, threads", [
        ("scipy-openblas", {}, 4),
        ("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 1),
        ("openblas", {"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": "2"}, 2),
        ("openblas", {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "3"}, 3),
        ("openblas", {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "-1"}, 4),
        ("openblas", {"MKL_NUM_THREADS": "1"}, 4),
        ("mkl", {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ("mkl", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 1),
        ("mkl", {"OPENBLAS_NUM_THREADS": "1"}, 4),
        ("accelerate", {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4),
    ])
    def test_read_from_the_library_variables(self, monkeypatch, name, env, threads):
        # the first positive count among the variables numpy's BLAS reads, in
        # its order; otherwise every CPU
        config = {"Build Dependencies": {"blas": {"name": name}}}
        monkeypatch.setattr(transceiver.np, "show_config", lambda mode: config)
        _blas(monkeypatch)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert transceiver._blas_threads(4) == threads
