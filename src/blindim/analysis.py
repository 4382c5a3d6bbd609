# blindim/analysis.py
"""Closed-form DoF expressions, QR-based achievable rates, baselines, and
Monte Carlo ergodic averaging."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import model, spectral


# ---------------------------------------------------------------------------
# Degrees of freedom (computed in exact rational arithmetic, returned as float)
# ---------------------------------------------------------------------------

def dof_theorem1(cfg) -> float:
    """Achievable sum-DoF of the K-cell MAC with the blind scheme.

    max{ sum_k min(U_k M_k, (L_kk - L_I)^+) / (max(L_D - L_I + M_D, L_I) + L_I - 1), 1 }
    """
    plan = model.make_plan(cfg)
    num = Fraction(0)
    for k in range(cfg.K):
        spare = max(cfg.cir_len[k][k] - plan.L_I, 0)
        num += min(cfg.users_per_cell[k] * plan.M[k], spare)
    den = Fraction(max(plan.L_D - plan.L_I + plan.M_D, plan.L_I) + plan.L_I - 1)
    return float(max(num / den, Fraction(1)))


def dof_symmetric(K, L_D, L_I, U) -> float:
    """Symmetric-network sum-DoF (1 - L_I/L_D) K, valid for U >= L_D - L_I, L_D >= 2 L_I."""
    if U < L_D - L_I or L_D < 2 * L_I:
        raise ValueError("requires U >= L_D - L_I and L_D >= 2*L_I")
    val = (Fraction(1) - Fraction(L_I, L_D)) * K
    # a single cell cannot dip below the trivial one degree of freedom
    return float(max(val, Fraction(1)))


def dof_interference_channel(K, L_D, L_I) -> float:
    """Sum-DoF of the corresponding K-user interference channel (one user per cell)."""
    if L_D <= L_I:
        raise ValueError("requires L_D > L_I")
    return float(Fraction(K * (L_D - L_I), max(2 * L_D - L_I - 1, 2 * L_I - 1)))


# ---------------------------------------------------------------------------
# Achievable rate via ZF-SIC on the QR factorization
# ---------------------------------------------------------------------------

@dataclass
class RateReport:
    """Per-stream and aggregated spectral efficiencies (bits/s/Hz)."""

    per_stream: dict      # k -> array of per-stream rates
    per_cell: dict        # k -> R_k
    sum_rate: float


def qr_positive(H):
    """Thin QR factorization with the diagonal of R forced real-positive."""
    Q, R = np.linalg.qr(H)
    d = np.diagonal(R).copy()
    phase = np.ones_like(d)
    nz = np.abs(d) > 0
    phase[nz] = d[nz] / np.abs(d[nz])
    return Q * phase, phase.conj()[:, None] * R


def r_diagonals(H) -> dict:
    """|r_mm| of each cell's effective channel H[k]; the rate depends only on these."""
    out = {}
    for k, Hk in H.items():
        if Hk.shape[1] == 0:
            out[k] = np.zeros(0)
            continue
        _, R = qr_positive(Hk)
        out[k] = np.abs(np.diagonal(R))
    return out


def sum_rate_from_diagonals(plan, diags, snr_linear) -> RateReport:
    """ZF-SIC spectral efficiency from precomputed QR diagonals.

    Per-stream rate log2(1 + (N/M_k) |r_m|^2 rho), normalized by the subblock
    length N + L_I - 1 (the cyclic-prefix overhead in the long-block limit).
    """
    per_stream = {}
    per_cell = {}
    total = 0.0
    for k, r in diags.items():
        if r.size == 0 or plan.M[k] == 0:
            per_stream[k] = np.zeros(0)
            per_cell[k] = 0.0
            continue
        rho_eff = plan.N * snr_linear / plan.M[k]
        rates = np.log2(1.0 + rho_eff * r ** 2) / (plan.N + plan.L_I - 1)
        per_stream[k] = rates
        per_cell[k] = float(np.sum(rates))
        total += per_cell[k]
    return RateReport(per_stream=per_stream, per_cell=per_cell, sum_rate=total)


def sum_rate_qr(plan, H, snr_linear) -> RateReport:
    """ZF-SIC sum rate of the proposed scheme for one channel realization."""
    return sum_rate_from_diagonals(plan, r_diagonals(H), snr_linear)


def highsnr_slope(rate_1, rate_2, rho_1, rho_2) -> float:
    """Empirical pre-log factor between two (high) SNR points."""
    return float((rate_2 - rate_1) / (np.log2(rho_2) - np.log2(rho_1)))


# ---------------------------------------------------------------------------
# TDMA-OFDMA baseline
# ---------------------------------------------------------------------------

def _partition_subcarriers(n_sc, n_users):
    """Near-equal interleaved split of subcarriers {0..n_sc-1} among users."""
    return [list(range(u, n_sc, n_users)) for u in range(n_users)]


def baseline_tdma_ofdma(cfg, plan, ch, snr_linear, n_sc=None, cell=0) -> float:
    """Interference-free reference: cells take turns (time share 1/K); the
    active cell runs multicarrier transmission with cyclic prefix L_D - 1 and
    disjoint near-equal subcarrier sets per user.

    Each user spreads power over its own subcarriers so the per-sample
    transmit power constraint E|x[n]|^2 = P holds, giving per-subcarrier SNR
    rho * n_sc / |S_u|.  The reported rate uses the given cell's channels
    only, so it is independent of the other cells by construction.
    """
    if n_sc is None:
        n_sc = plan.N
    sets = _partition_subcarriers(n_sc, cfg.users_per_cell[cell])
    acc = 0.0
    for u, subset in enumerate(sets):
        if not subset:
            continue
        lam = np.fft.fft(ch.h(cell, cell, u), n_sc)
        snr_eff = snr_linear * n_sc / len(subset)
        acc += float(np.sum(np.log2(1.0 + snr_eff * np.abs(lam[subset]) ** 2)))
    return acc / (n_sc + plan.L_D - 1) / cfg.K


def baseline_slope(cfg, plan, n_sc=None) -> float:
    """High-SNR pre-log of the baseline: n_sc / (K (n_sc + L_D - 1))."""
    if n_sc is None:
        n_sc = plan.N
    return n_sc / (cfg.K * (n_sc + plan.L_D - 1))


def ofdma_rate_with_ici(cfg, ch, tx_power, noise_var, L_D, n_sc=64, cells=None) -> np.ndarray:
    """Per-cell OFDMA rate with every cell active and ICI treated as noise.

    Each cell runs the same interleaved subcarrier partition; user u of cell i
    interferes on exactly its own subcarrier set, with its spectral response
    taken as the n_sc-point FFT of the cross-link taps.  Cyclic prefix L_D - 1;
    every used subcarrier carries power P (no pooling, as in the TDMA baseline).
    Returns (..., K) over the leading axes of the taps; cells not requested
    read 0.
    """
    if cells is None:
        cells = range(cfg.K)
    sc = np.arange(n_sc)
    U = np.array(cfg.users_per_cell)
    offset = np.cumsum(U) - U
    # the row of the user that owns each subcarrier, with links stacked cell by cell
    owner = offset[:, None] + sc % U[:, None]
    out = np.zeros(ch.taps[(0, 0)].shape[:-2] + (cfg.K,))
    for k in cells:
        stacked = np.zeros(out.shape[:-1] + (U.sum(), n_sc), dtype=complex)
        for i in range(cfg.K):
            h = ch.taps[(k, i)][..., :n_sc]
            stacked[..., offset[i] : offset[i] + U[i], : h.shape[-1]] = h
        # (..., K, n_sc): power received from each cell on every subcarrier
        power = tx_power * np.abs(np.fft.fft(stacked)[..., owner, sc]) ** 2
        ici = power[..., np.arange(cfg.K) != k, :].sum(axis=-2)
        rate = np.log2(1.0 + power[..., k, :] / (noise_var + ici))
        out[..., k] = rate.sum(axis=-1) / (n_sc + L_D - 1)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo ergodic averaging
# ---------------------------------------------------------------------------

def ergodic_rate(cfg, snr_db_list, trials, scheme="proposed", seed=None) -> np.ndarray:
    """Mean spectral efficiency at each SNR over independent channel draws.

    The channel realizations (and hence the QR diagonals) are computed once
    per trial and reused across the SNR grid; trial t uses the reproducible
    stream (seed, t).
    """
    if seed is None:
        seed = cfg.seed
    plan = model.make_plan(cfg)
    snr_lin = 10.0 ** (np.asarray(snr_db_list, dtype=float) / 10.0)
    acc = np.zeros(len(snr_lin))
    for t in range(trials):
        rng = model.trial_rng(seed, t)
        ch = model.sample_channel_iid(cfg, rng)
        if scheme == "proposed":
            diags = r_diagonals(spectral.build_structured(cfg, plan, ch))
            for j, rho in enumerate(snr_lin):
                acc[j] += sum_rate_from_diagonals(plan, diags, rho).sum_rate
        elif scheme == "baseline":
            for j, rho in enumerate(snr_lin):
                acc[j] += baseline_tdma_ofdma(cfg, plan, ch, rho)
        else:
            raise ValueError("unknown scheme %r" % scheme)
    return acc / trials
