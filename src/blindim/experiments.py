# blindim/experiments.py
"""Canned experiment scenarios used by the CLI: the ergodic sum-rate
comparison against TDMA-OFDMA over an SNR grid, and the 7-cell geometric
comparison against OFDMA versus user-to-BS distance."""

from __future__ import annotations

import math

import numpy as np

from . import analysis, model
from .extensions import make_delayed_plan, rate_with_residual_ici

FIG3_SNR_GRID = tuple(range(0, 45, 5))
FIG3_K_LIST = (1, 2, 3)
FIG5_DISTANCES_M = np.arange(20.0, 150.0, 10.0)   # user-to-BS distances (m)


def run_snr_comparison(snr_db, trials, seed):
    """Ergodic sum spectral efficiency of the proposed scheme and the
    TDMA-OFDMA baseline for the fig3 scenario: symmetric K-cell networks,
    K in FIG3_K_LIST, with L_D = 8, L_I = 2 and U = 3.

    Returns rows (snr_db, K, proposed, baseline).
    """
    rows = []
    for K in FIG3_K_LIST:
        cfg = model.SystemConfig.symmetric(K=K, L_D=8, L_I=2, U=3, seed=seed)
        proposed, baseline = analysis.ergodic_rate(cfg, snr_db, trials)
        for j, s in enumerate(snr_db):
            rows.append((float(s), K, float(proposed[j]), float(baseline[j])))
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
    trial_blocks, unless trials >= 1.
    """
    cfg, dplan = fig5_config(seed)
    gains = model.large_scale_gain(cfg, dplan.L_I_d, FIG5_DISTANCES_M, 0)
    into_0 = list(gains)
    # (distance, scheme) sums over the trials
    acc = np.zeros((len(FIG5_DISTANCES_M), 2))
    for small in model.trial_blocks(cfg, trials, into_0, user_major=True):
        step = max(1, model.TRIAL_BLOCK // len(small.taps[(0, 0)]))
        for j in range(0, len(FIG5_DISTANCES_M), step):
            near = slice(j, j + step)
            ch = model.ChannelRealization(
                {key: gains[key][near, None] * small.taps[key] for key in into_0}
            )
            prop = rate_with_residual_ici(cfg, dplan, ch, 0)
            ofdma = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
            acc[near, 0] += prop.sum(axis=-1)
            acc[near, 1] += ofdma.sum(axis=-1)
    return [(float(d_user), float(sums[0] / trials), float(sums[1] / trials))
            for d_user, sums in zip(FIG5_DISTANCES_M, acc)]
