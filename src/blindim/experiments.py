# blindim/experiments.py
"""Canned experiment scenarios used by the CLI: the ergodic sum-rate
comparison against TDMA-OFDMA over an SNR grid, the 7-cell geometric
comparison against OFDMA versus user-to-BS distance, and the link
simulator's independent trials."""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import analysis, model, transceiver
from .extensions import make_delayed_plan, rate_with_residual_ici

FIG3_SNR_GRID = tuple(range(0, 45, 5))
FIG3_K_LIST = (1, 2, 3)
FIG5_DISTANCES_M = np.arange(20.0, 150.0, 10.0)   # user-to-BS distances (m)


def run_snr_comparison(snr_db, trials, seed):
    """Ergodic sum spectral efficiency of the proposed scheme and the
    TDMA-OFDMA baseline for the fig3 scenario: symmetric K-cell networks,
    K in FIG3_K_LIST, with L_D = 8, L_I = 2 and U = 3.

    The networks share each trial's draw (analysis.ergodic_rates), so cell
    0's desired taps are one draw in every network, and each network's rows
    equal its analysis.ergodic_rate bit for bit.

    Returns rows (snr_db, K, proposed, baseline); raises ValueError unless
    trials is an integer >= 1.
    """
    cfgs = [model.SystemConfig.symmetric(K=K, L_D=8, L_I=2, U=3, seed=seed)
            for K in FIG3_K_LIST]
    rows = []
    for cfg, (proposed, baseline) in zip(cfgs, analysis.ergodic_rates(cfgs, snr_db, trials)):
        for j, s in enumerate(snr_db):
            rows.append((float(s), cfg.K, float(proposed[j]), float(baseline[j])))
    return rows


def fig5_config(seed=0):
    """7-cell geometric scenario: short desired channels (5 taps), long ICI
    (7 taps) whose first L_I_d = 3 taps are zero, cancelled up to
    L_I_prime = 5 taps, over B = 10 subblocks, drawn from seed.  Returns
    (cfg, dplan); the config is built, and so checked, once.
    snr_db = 177 is 23 dBm against -174 dBm/Hz over 100 Hz: the narrow band
    puts the cell edge interference-limited, the regime compared here."""
    snr_db = 23.0 - (-174.0 + 10.0 * math.log10(100.0))
    cfg = model.SystemConfig.symmetric(K=7, L_D=5, L_I=7, U=3, snr_db=snr_db,
                                       subblocks=10, seed=seed)
    return cfg, make_delayed_plan(cfg, L_I_d=3, L_I_prime=5)


def run_distance_comparison(*, trials, seed):
    """Center-cell ergodic spectral efficiency of the proposed two-stage
    scheme and all-cells-active OFDMA at each user-to-BS distance of
    FIG5_DISTANCES_M.

    Trial t draws its small-scale fading from trial_rng(seed, t) once and
    keeps it at every distance (common random numbers): only the path loss
    changes along the grid, and it is computed for the whole grid at once,
    for the links into cell 0 only, the only links its rates read.  The
    trials are drawn in blocks of model.TRIAL_BLOCK, each only as far as
    those links.  For a block of T_b trials, each rate call takes
    max(1, TRIAL_BLOCK // T_b) distances at once as a (distances, T_b, U, L)
    realization of those links; so no call rates more than TRIAL_BLOCK
    realizations, and a short run rates its whole grid in one call.  Each
    distance sums its block over the trial axis, as it would alone.

    Returns rows (d_user_m, proposed, ofdma); raises ValueError, from
    trial_blocks, unless trials is an integer >= 1.
    """
    cfg, dplan = fig5_config(seed)
    gains = model.large_scale_gain(cfg, dplan.L_I_d, FIG5_DISTANCES_M, 0)
    into_0 = list(gains)
    # (distance, scheme) sums over the trials
    acc = np.zeros((len(FIG5_DISTANCES_M), 2))
    for small in model.trial_blocks(cfg, trials, into_0, user_major=True):
        step = max(1, model.TRIAL_BLOCK // len(small[(0, 0)]))
        for j in range(0, len(FIG5_DISTANCES_M), step):
            near = slice(j, j + step)
            ch = {key: gains[key][near, None] * small[key] for key in into_0}
            prop = rate_with_residual_ici(cfg, dplan, ch, 0)
            ofdma = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
            acc[near, 0] += prop.sum(axis=-1)
            acc[near, 1] += ofdma.sum(axis=-1)
    return [(float(d_user), float(sums[0] / trials), float(sums[1] / trials))
            for d_user, sums in zip(FIG5_DISTANCES_M, acc)]


# run_link_trials spreads its trials over threads only when one trial's decode
# work, sum_k (N - M_D) (U'_k M_k)^2, reaches this.  numpy's LAPACK, BLAS and
# generator loops release the interpreter lock, but a small trial spends most
# of its time in Python.  Timed in-process on a 2-vCPU Xeon with BLAS pinned
# to one thread, two threads against one over 20 trials: 1.60x on
# link_large's config (work 112896); 0.79-0.94x at works 648, 2016 and 8232,
# and on the default config (16, 200 trials).  At work 448 with B = 100
# (K = 7, L_D = 8, L_I = 4, U = 2), where reception outweighs the decode,
# they ran 1.03-1.07x, but 0.91-0.93x over 2 trials.
THREAD_DECODE_WORK = 10**4

# The variables numpy's BLAS reads its thread count from, by the library
# numpy.show_config names; the first positive one is the count
BLAS_THREAD_VARS = {
    "scipy-openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _blas_threads(cpus):
    """Threads each BLAS call of numpy may use: what its library reads from
    BLAS_THREAD_VARS, or cpus for an unknown library or when none is set."""
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    for var in BLAS_THREAD_VARS.get(name, ()):
        value = os.environ.get(var, "")
        if value.isdecimal() and int(value) > 0:
            return int(value)
    return cpus


def _trial_workers(plan, trials):
    """Threads run_link_trials uses: one unless a trial's decode work reaches
    THREAD_DECODE_WORK and a single-threaded BLAS leaves cores idle, else
    min(trials, cpus // BLAS threads).  A BLAS free to use every core would
    contend with the extra threads, and lose."""
    work = sum((plan.N - plan.M_D) * (u * m) ** 2 for u, m in zip(plan.U_active, plan.M))
    if trials < 2 or work < THREAD_DECODE_WORK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))   # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(trials, cpus // _blas_threads(cpus)))


def _link_trial(cfg, plan, t):
    """Rows (t, k, normalized MSE) of trial t's simulate_link, one per active
    cell; raises RankDeficientError, naming the trial, for a draw that fails
    the rank criterion."""
    rng = model.trial_rng(cfg.seed, t)
    ch = model.sample_channel_iid(cfg, rng)
    symbols = transceiver.draw_symbols(cfg, plan, rng)
    try:
        result = transceiver.simulate_link(cfg, plan, ch, symbols, noise_rng=rng)
    except transceiver.RankDeficientError as exc:
        raise transceiver.RankDeficientError("trial %d, %s" % (t, exc)) from None
    rows = []
    for k in range(cfg.K):
        if plan.U_active[k] * plan.M[k] == 0:
            continue   # an idle cell sends nothing, so it has no error to report
        truth = symbols[k].reshape(plan.B, -1)
        err = result.s_hat[k] - truth
        rows.append((t, k, float(np.mean(np.abs(err) ** 2) / np.mean(np.abs(truth) ** 2))))
    return rows


def run_link_trials(cfg, plan, trials):
    """Rows (trial, cell, normalized_mse) of simulate_link on trials 0 ..
    trials - 1 of cfg, trial t drawn from trial_rng(cfg.seed, t), in trial
    order; idle cells have no row.

    The trials are independent, so with _trial_workers' W > 1 threads they
    run as W contiguous chunks, the first on the calling thread and the rest
    mapped in order on a pool made for this call.  A draw that fails the
    rank criterion raises the RankDeficientError of the first failing trial,
    as one thread in trial order would: chunks before it run on, chunks
    after it stop at their next trial, and every thread has ended when this
    returns or raises.  Raises, before any thread starts, model.trial_count's
    ValueError unless trials is an integer >= 1 (an integral real runs as
    its int), and model.require_active_cell's ConfigError if no cell sends.
    """
    trials = model.trial_count(trials)
    model.require_active_cell(plan, "simulate")
    workers = _trial_workers(plan, trials)
    failed, lock = [trials], threading.Lock()   # failed[0]: first trial seen to raise

    def chunk_rows(chunk):
        rows = []
        for t in chunk:
            if t >= failed[0]:
                break
            try:
                rows += _link_trial(cfg, plan, t)
            except BaseException:
                with lock:
                    failed[0] = min(failed[0], t)
                raise
        return rows

    chunks = [range(trials * j // workers, trials * (j + 1) // workers) for j in range(workers)]
    if workers == 1:
        return chunk_rows(chunks[0])
    from concurrent.futures import ThreadPoolExecutor

    # the caller keeps a chunk: with it idle and a pool of W, link_large's
    # 2-trial passes ran 15% slower on a fresh thread's cold malloc arena
    with ThreadPoolExecutor(workers - 1) as pool:
        later = pool.map(chunk_rows, chunks[1:])
        return chunk_rows(chunks[0]) + [row for rows in later for row in rows]
