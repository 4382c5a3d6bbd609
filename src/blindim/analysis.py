# blindim/analysis.py
"""Closed-form DoF expressions, QR-based achievable rates, baselines, and
Monte Carlo ergodic averaging."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import model, spectral


# ---------------------------------------------------------------------------
# Degrees of freedom (computed in exact rational arithmetic, returned as float)
# ---------------------------------------------------------------------------

def dof_theorem1(cfg) -> float:
    """Achievable sum-DoF of the K-cell MAC with the blind scheme:
    max{ sum_k U'_k M_k / N_bar, 1 } over the plan's streams per frame.

    This is Theorem 1's max{ sum_k U'_k M_k /
    (max(L_D - L_I + M_D, L_I) + L_I - 1), 1 }: cell k keeps
    n_k = (L_kk - L_I)^+ dimensions past the cyclic prefix, and make_plan
    activates U'_k = min(U_k, n_k) users with M_k = floor(n_k / U'_k)
    symbols each (none when n_k = 0), so U'_k M_k <= n_k.
    """
    plan = model.make_plan(cfg)
    streams = sum(u * m for u, m in zip(plan.U_active, plan.M))
    return float(max(Fraction(streams, plan.N_bar), Fraction(1)))


def dof_symmetric(K, L_D, L_I, U) -> float:
    """Symmetric-network sum-DoF (1 - L_I/L_D) K, valid for U >= L_D - L_I, L_D >= 2 L_I."""
    if U < L_D - L_I or L_D < 2 * L_I:
        raise ValueError("requires U >= L_D - L_I and L_D >= 2*L_I")
    val = (Fraction(1) - Fraction(L_I, L_D)) * K
    # a single cell cannot dip below the trivial one degree of freedom
    return float(max(val, Fraction(1)))


def dof_interference_channel(K, L_D, L_I) -> float:
    """Sum-DoF of the K-user interference channel (one user per cell), K >= 2."""
    if K < 2 or L_D <= L_I:
        raise ValueError("requires K >= 2 and L_D > L_I")
    return float(Fraction(K * (L_D - L_I), max(2 * L_D - L_I - 1, 2 * L_I - 1)))


# ---------------------------------------------------------------------------
# Achievable rate via ZF-SIC on the QR factorization
# ---------------------------------------------------------------------------

def r_diagonals(H) -> dict:
    """k -> (..., U'_k M_k) |r_mm| of each cell's effective channel H[k], from
    one QR over its leading axes; the rate depends only on these."""
    return {k: np.abs(np.diagonal(np.linalg.qr(Hk, mode="r"), axis1=-2, axis2=-1))
            for k, Hk in H.items()}


def sum_rate_qr(plan, H, snr_linear) -> np.ndarray:
    """ZF-SIC sum rate of the proposed scheme, (..., S) over the leading axes
    of the effective channels H and the S linear SNRs snr_linear; a scalar
    snr_linear gives the leading axes only.

    Stream m of cell k has rate log2(1 + (N/M_k) |r_m|^2 rho), normalized by
    the frame length N_bar = N + L_I - 1 (the cyclic-prefix overhead in the
    long-block limit).
    """
    snr = np.asarray(snr_linear, dtype=float)
    total = np.zeros(next(iter(H.values())).shape[:-2] + (snr.size,))
    for k, r in r_diagonals(H).items():
        if plan.M[k] == 0:
            continue
        rho_eff = (plan.N * snr.reshape(-1) / plan.M[k])[:, None]
        rates = np.log2(1.0 + rho_eff * r[..., None, :] ** 2) / plan.N_bar
        total += rates.sum(axis=-1)
    return total.reshape(total.shape[:-1] + snr.shape)


# ---------------------------------------------------------------------------
# TDMA-OFDMA baseline
# ---------------------------------------------------------------------------

def baseline_tdma_ofdma(cfg, plan, ch, snr_linear) -> np.ndarray:
    """Interference-free reference: cells take turns (time share 1/K); the
    active cell runs multicarrier transmission on n_sc = plan.N subcarriers
    with cyclic prefix L_D - 1 and disjoint near-equal subcarrier sets per
    user, user u owning the subcarriers sc with sc % U == u.

    Each user spreads power over its own subcarriers so the per-sample
    transmit power constraint E|x[n]|^2 = P holds, giving per-subcarrier SNR
    rho * n_sc / |S_u|.  The rate uses cell 0's links only, so it is
    independent of the other cells by construction.  The cyclic prefix covers
    the whole link, so subcarrier sc sees sum_l h_l w^(-l sc) over every tap,
    w = exp(2 pi i / n_sc): the taps are folded modulo n_sc before one FFT.
    Returns (..., S) over the leading axes of the taps and the S linear SNRs
    snr_linear; a scalar snr_linear gives the leading axes only.
    """
    n_sc = plan.N
    h = ch.taps[(0, 0)]
    U, L = h.shape[-2:]
    folded = np.pad(h, [(0, 0)] * (h.ndim - 1) + [(0, -L % n_sc)])
    lam = np.fft.fft(folded.reshape(h.shape[:-1] + (-1, n_sc)).sum(axis=-2))
    sc = np.arange(n_sc)
    owner = sc % U
    snr = np.asarray(snr_linear, dtype=float)
    snr_eff = snr.reshape(-1, 1) * n_sc / np.bincount(owner, minlength=U)[owner]
    gain = np.abs(lam[..., owner, sc])[..., None, :] ** 2
    rate = np.log2(1.0 + snr_eff * gain).sum(axis=-1) / (n_sc + plan.L_D - 1) / cfg.K
    return rate.reshape(rate.shape[:-1] + snr.shape)


def ofdma_rate_with_ici(cfg, dplan, ch, k) -> np.ndarray:
    """OFDMA rate of cell k with every cell active and ICI treated as noise.

    Each cell runs the same interleaved subcarrier partition on the plan's
    n_sc = dplan.N subcarriers; user u of cell i interferes on exactly its own
    subcarrier set, with its spectral response taken as the n_sc-point FFT of
    the cross-link taps.  Cyclic prefix dplan.L_D - 1.  Every used subcarrier
    carries power P = rho = cfg.snr_linear against sigma^2 = 1: no pooling,
    unlike the TDMA baseline, which gives each of user u's subcarriers
    rho * n_sc / |S_u|.  Under the per-sample convention E|x[n]|^2 = P, a
    user so spends |S_u| / n_sc of its budget: 2/5 or 1/5 for fig5's 3 users
    on 5 subcarriers.  A realization needs only the links into cell k.
    Returns (...) over the leading axes of the taps.

    Taps beyond n_sc are dropped, where baseline_tdma_ofdma folds them: fig5's
    7-tap cross links lose taps 5 and 6.  perfbench's geometric_fig5 reference
    CSV pins this output, so pooling and folding here wait for a change that
    regenerates that reference.
    """
    n_sc = dplan.N
    sc = np.arange(n_sc)
    U = np.array(cfg.users_per_cell)
    offset = np.cumsum(U) - U
    # the row of the user that owns each subcarrier, with links stacked cell by cell
    owner = offset[:, None] + sc % U[:, None]
    stacked = np.zeros(ch.taps[(k, k)].shape[:-2] + (U.sum(), n_sc), dtype=complex)
    for i in range(cfg.K):
        h = ch.taps[(k, i)][..., :n_sc]
        stacked[..., offset[i] : offset[i] + U[i], : h.shape[-1]] = h
    # (..., K, n_sc): power received from each cell on every subcarrier
    power = cfg.snr_linear * np.abs(np.fft.fft(stacked)[..., owner, sc]) ** 2
    ici = power[..., np.arange(cfg.K) != k, :].sum(axis=-2)
    rate = np.log2(1.0 + power[..., k, :] / (1.0 + ici))
    return rate.sum(axis=-1) / (n_sc + dplan.L_D - 1)


# ---------------------------------------------------------------------------
# Monte Carlo ergodic averaging
# ---------------------------------------------------------------------------

def ergodic_rate(cfg, snr_db_list, trials):
    """Mean spectral efficiency of the proposed scheme and of the TDMA-OFDMA
    baseline at each SNR, both over the same independent channel draws.

    Trial t uses the reproducible stream (cfg.seed, t), built only for the
    desired links, the only links either rate reads; the trials are stacked in
    blocks of model.TRIAL_BLOCK, and each block's QR diagonals and baseline
    spectra serve the whole SNR grid.  Returns (proposed, baseline); raises
    ValueError, from trial_blocks, unless trials >= 1.
    """
    plan = model.make_plan(cfg)
    snr_lin = 10.0 ** (np.asarray(snr_db_list, dtype=float) / 10.0)
    proposed = baseline = 0.0
    desired = [(k, k) for k in range(cfg.K)]
    for ch in model.trial_blocks(cfg, trials, desired):
        H = spectral.build_structured(cfg, plan, ch)
        proposed = proposed + sum_rate_qr(plan, H, snr_lin).sum(axis=0)
        baseline = baseline + baseline_tdma_ofdma(cfg, plan, ch, snr_lin).sum(axis=0)
    return proposed / trials, baseline / trials
