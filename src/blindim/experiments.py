# blindim/experiments.py
"""Canned experiment scenarios used by the CLI: the ergodic sum-rate
comparison against TDMA-OFDMA over an SNR grid, and the 7-cell geometric
comparison against OFDMA versus user-to-BS distance."""

from __future__ import annotations

import numpy as np

from . import analysis, model
from .extensions import DelayProfile, make_delayed_plan, rate_with_residual_ici

FIG3_SNR_GRID = tuple(range(0, 45, 5))
FIG3_K_LIST = (1, 2, 3)


def run_snr_comparison(k_list=FIG3_K_LIST, snr_db=FIG3_SNR_GRID, trials=200, seed=0,
                       L_D=8, L_I=2, U=3, B=10):
    """Ergodic sum spectral efficiency of the proposed scheme and the
    TDMA-OFDMA baseline for symmetric K-cell networks.

    Returns rows (snr_db, K, proposed, baseline).
    """
    rows = []
    for K in k_list:
        cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, subblocks=B, seed=seed)
        proposed = analysis.ergodic_rate(cfg, snr_db, trials, scheme="proposed", seed=seed)
        baseline = analysis.ergodic_rate(cfg, snr_db, trials, scheme="baseline", seed=seed)
        for j, s in enumerate(snr_db):
            rows.append((float(s), K, float(proposed[j]), float(baseline[j])))
    return rows


def fig5_config(B=10, seed=0):
    """7-cell geometric scenario: short desired channels, long delayed ICI."""
    K = 7
    cir = [[5 if k == i else 7 for i in range(K)] for k in range(K)]
    cfg = model.SystemConfig(K=K, users_per_cell=[3] * K, cir_len=cir, subblocks=B, seed=seed)
    dp = DelayProfile(L_I_d=3, L_I_prime=5, L_I=7)
    return cfg, dp


def run_distance_comparison(d_user_grid=None, trials=200, seed=0, dep=None, B=10):
    """Center-cell ergodic spectral efficiency of the proposed two-stage
    scheme and all-cells-active OFDMA versus user-to-BS distance.

    Trial t draws its small-scale fading from trial_rng(seed, t) once and
    keeps it at every distance (common random numbers): only the path loss
    changes along the grid, and it is computed for the whole grid at once.
    Each distance rates all trials in one batch.

    Returns rows (d_user_m, proposed, ofdma).
    """
    if d_user_grid is None:
        d_user_grid = np.arange(20.0, 150.0, 10.0)
    cfg, dp = fig5_config(B=B, seed=seed)
    if dep is None:
        # narrowband default: puts the cell-edge regime interference-limited,
        # which is the regime this comparison is about
        dep = model.Deployment(ici_delay_taps=dp.L_I_d, bandwidth_hz=100.0)
    dplan = make_delayed_plan(cfg, dp)
    P = dep.tx_power_w
    sigma2 = dep.noise_power_w
    n = model.fading_normals(cfg)
    small = model.small_scale_fading(
        cfg, np.stack([model.trial_rng(seed, t).standard_normal(n) for t in range(trials)])
    )
    gains = model.large_scale_gain(
        cfg, dep, model.hex_deployment(dep.site_spacing_m, d_user_grid, [3] * 7)
    )
    rows = []
    for j, d_user in enumerate(d_user_grid):
        ch = small.scaled({key: gain[j] for key, gain in gains.items()})
        prop = rate_with_residual_ici(cfg, dplan, dp, ch, P, sigma2, cells=[0])[:, 0]
        ofdma = analysis.ofdma_rate_with_ici(
            cfg, ch, P, sigma2, L_D=dplan.L_D, n_sc=dplan.N, cells=[0]
        )[:, 0]
        rows.append((float(d_user), float(prop.mean()), float(ofdma.mean())))
    return rows
