# blindim/experiments.py
"""Canned experiment scenarios used by the CLI: the ergodic sum-rate
comparison against TDMA-OFDMA over an SNR grid, and the 7-cell geometric
comparison against OFDMA versus user-to-BS distance."""

from __future__ import annotations

import numpy as np

from . import analysis, model
from .extensions import make_delayed_plan, rate_with_residual_ici

FIG3_SNR_GRID = tuple(range(0, 45, 5))
FIG3_K_LIST = (1, 2, 3)

# fig5's transmit power (23 dBm) and noise power (-174 dBm/Hz over 100 Hz),
# in Watts.  The band is narrow: it puts the cell-edge regime
# interference-limited, which is the regime this comparison is about
TX_POWER_W = 10.0 ** ((23.0 - 30.0) / 10.0)
NOISE_POWER_W = 10.0 ** ((-174.0 - 30.0) / 10.0) * 100.0


def run_snr_comparison(snr_db=FIG3_SNR_GRID, trials=200, seed=0):
    """Ergodic sum spectral efficiency of the proposed scheme and the
    TDMA-OFDMA baseline for the fig3 scenario: symmetric K-cell networks,
    K in FIG3_K_LIST, with L_D = 8, L_I = 2, U = 3 and B = 10.

    Returns rows (snr_db, K, proposed, baseline).
    """
    rows = []
    for K in FIG3_K_LIST:
        cfg = model.SystemConfig.symmetric(K=K, L_D=8, L_I=2, U=3, subblocks=10, seed=seed)
        proposed, baseline = analysis.ergodic_rate(cfg, snr_db, trials)
        for j, s in enumerate(snr_db):
            rows.append((float(s), K, float(proposed[j]), float(baseline[j])))
    return rows


def fig5_config():
    """7-cell geometric scenario: short desired channels (5 taps), long ICI
    (7 taps) whose first L_I_d = 3 taps are zero, cancelled up to
    L_I_prime = 5 taps, over B = 10 subblocks.  Returns (cfg, dplan)."""
    K = 7
    cir = [[5 if k == i else 7 for i in range(K)] for k in range(K)]
    cfg = model.SystemConfig(K=K, users_per_cell=[3] * K, cir_len=cir, subblocks=10)
    return cfg, make_delayed_plan(cfg, L_I_d=3, L_I_prime=5)


def run_distance_comparison(d_user_grid=None, trials=200, seed=0):
    """Center-cell ergodic spectral efficiency of the proposed two-stage
    scheme and all-cells-active OFDMA versus user-to-BS distance.

    Trial t draws its small-scale fading from trial_rng(seed, t) once and
    keeps it at every distance (common random numbers): only the path loss
    changes along the grid, and it is computed for the whole grid at once.
    The trials are drawn in blocks of model.TRIAL_BLOCK, each only as far as
    the links into cell 0, the only links its rates read.  For a block of T_b
    trials, each rate call takes max(1, TRIAL_BLOCK // T_b) distances at once
    as a (distances, T_b, U, L) realization of those links; so no call rates
    more than TRIAL_BLOCK realizations, and a short run rates its whole grid
    in one call.  Each distance sums its block over the trial axis, as it
    would alone.

    Returns rows (d_user_m, proposed, ofdma); raises ValueError unless
    trials >= 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    if d_user_grid is None:
        d_user_grid = np.arange(20.0, 150.0, 10.0)
    cfg, dplan = fig5_config()
    gains = model.large_scale_gain(
        cfg, dplan.L_I_d, model.hex_deployment(d_user_grid, cfg.users_per_cell)
    )
    into_0 = [(0, i) for i in range(cfg.K)]
    # (distance, scheme) sums over the trials
    acc = np.zeros((len(d_user_grid), 2))
    for small in model.trial_blocks(cfg, seed, trials, into_0, user_major=True):
        step = max(1, model.TRIAL_BLOCK // len(small.taps[(0, 0)]))
        for j in range(0, len(d_user_grid), step):
            near = slice(j, j + step)
            ch = model.ChannelRealization(
                {key: gains[key][near, None] * small.taps[key] for key in into_0}
            )
            prop = rate_with_residual_ici(cfg, dplan, ch, TX_POWER_W, NOISE_POWER_W, 0)
            ofdma = analysis.ofdma_rate_with_ici(cfg, ch, TX_POWER_W, NOISE_POWER_W, dplan.N, 0)
            acc[near, 0] += prop.sum(axis=-1)
            acc[near, 1] += ofdma.sum(axis=-1)
    return [(float(d_user), float(sums[0] / trials), float(sums[1] / trials))
            for d_user, sums in zip(d_user_grid, acc)]
