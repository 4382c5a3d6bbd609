# blindim/analysis.py
"""Closed-form DoF expressions, achievable rates (QR-based, and with
residual ICI as noise), baselines, and Monte Carlo ergodic averaging, with
fig3's and fig5's fixed scenarios and their loops."""

from __future__ import annotations

import math
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
    h = ch[(0, 0)]
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
    7-tap cross links lose taps 5 and 6.  Three reference CSVs pin this
    output: perfbench's geometric_fig5 reference and tests/reference's
    fig5_seed0.csv and fig5_seed7.csv.  So pooling and folding here wait for a
    change that regenerates all three.
    """
    n_sc = dplan.N
    sc = np.arange(n_sc)
    U = np.array(cfg.users_per_cell)
    offset = np.cumsum(U) - U
    # the row of the user that owns each subcarrier, with links stacked cell by cell
    owner = offset[:, None] + sc % U[:, None]
    stacked = np.zeros(ch[(k, k)].shape[:-2] + (U.sum(), n_sc), dtype=complex)
    for i in range(cfg.K):
        h = ch[(k, i)][..., :n_sc]
        stacked[..., offset[i] : offset[i] + U[i], : h.shape[-1]] = h
    # (..., K, n_sc): power received from each cell on every subcarrier
    power = cfg.snr_linear * np.abs(np.fft.fft(stacked)[..., owner, sc]) ** 2
    ici = power[..., np.arange(cfg.K) != k, :].sum(axis=-2)
    rate = np.log2(1.0 + power[..., k, :] / (1.0 + ici))
    return rate.sum(axis=-1) / (n_sc + dplan.L_D - 1)


def rate_with_residual_ici(cfg, dplan, ch, k) -> np.ndarray:
    """Achievable rate of cell k treating uncancelled late ICI taps as noise.

    As in the transceiver, sigma^2 = 1 and symbols carry variance N * rho,
    rho = cfg.snr_linear; the noise term keeps the coloring introduced by the
    folding stage (rows that sum two samples have doubled variance).
    With cov the noise-plus-residual-ICI covariance and A = chol(cov)^-1 H_k,
    the rate is sum log1p(lambda) / ln 2 over the eigenvalues lambda of
    N rho A^H A: log det(I + cov^-1 N rho H_k H_k^H) without taking the difference
    of two log-determinants, which cancels when the rate is small.  A
    realization needs only the links into cell k.  Returns (...) over the
    leading axes of the taps.

    The rate is per sample of the whole block, B / T, so it pays for the
    max(L_D, L_I) - 1 flush samples: for fig5's plan B / T = 10 / 96, which
    is 0.9375 times the 1 / N_bar that sum_rate_qr divides by.  The OFDMA
    comparator, ofdma_rate_with_ici above, pays no flush, which tilts fig5
    against this scheme.  No receiver in the package decodes a delayed plan
    (L_I_d > 0) with B > 1: transceiver.decode_block refuses one.  So at
    fig5's B = 10 this is a formula, not the rate of a link that is simulated.
    """
    H, H_int = spectral.delayed_effective_channels(cfg, dplan, ch, k)
    W = spectral.combiner(dplan)
    p_sym = dplan.N * cfg.snr_linear
    cov = W @ W.conj().T + p_sym * (H_int @ H_int.mT.conj())
    # raises LinAlgError unless cov is positive definite
    A = np.linalg.solve(np.linalg.cholesky(cov), H)
    lam = np.linalg.eigvalsh(p_sym * (A.mT.conj() @ A))
    return dplan.B / dplan.T * np.log1p(lam).sum(axis=-1) / np.log(2.0)


# ---------------------------------------------------------------------------
# Monte Carlo ergodic averaging
# ---------------------------------------------------------------------------

def ergodic_rates(cfgs, snr_db_list, trials) -> list:
    """(proposed, baseline) of each network in cfgs: the mean spectral
    efficiency of the proposed scheme and of the TDMA-OFDMA baseline at each
    SNR, over the same draws.

    Trial t is drawn once for all the networks, from trial_rng(seed, t), as
    far as the widest network's desired links, the only links either rate
    reads.  Each network builds its links from the first normals, the ones it
    would draw alone, so its pair does not depend on the others.  Each block
    of model.TRIAL_BLOCK trials is rated once for the whole SNR grid.  Raises
    ValueError unless the networks share one seed and trials is an integer
    >= 1.
    """
    seeds = {cfg.seed for cfg in cfgs}
    if len(seeds) != 1:
        raise ValueError("the networks must share one seed, got %s" % sorted(seeds))
    snr_lin = 10.0 ** (np.asarray(snr_db_list, dtype=float) / 10.0)
    plans = [model.make_plan(cfg) for cfg in cfgs]
    desired = [[(k, k) for k in range(cfg.K)] for cfg in cfgs]
    width = max(model._normal_count(cfg, links) for cfg, links in zip(cfgs, desired))
    sums = [0.0] * len(cfgs)
    for normals in model.trial_normals(seeds.pop(), trials, width):
        for j, (cfg, plan) in enumerate(zip(cfgs, plans)):
            ch = model._taps(cfg, normals, desired[j])
            H = spectral.build_structured(cfg, plan, ch)
            sums[j] += np.stack([sum_rate_qr(plan, H, snr_lin).sum(axis=0),
                                 baseline_tdma_ofdma(cfg, plan, ch, snr_lin).sum(axis=0)])
    return [tuple(net_sums / trials) for net_sums in sums]


def ergodic_rate(cfg, snr_db_list, trials):
    """(proposed, baseline) of one network: ergodic_rates([cfg], snr_db_list,
    trials)[0], whose trial t is drawn from trial_rng(cfg.seed, t)."""
    return ergodic_rates([cfg], snr_db_list, trials)[0]


FIG3_SNR_GRID = tuple(range(0, 45, 5))
FIG3_K_LIST = (1, 2, 3)


def run_snr_comparison(snr_db, trials, seed):
    """Ergodic sum spectral efficiency of the proposed scheme and the
    TDMA-OFDMA baseline for the fig3 scenario: symmetric K-cell networks,
    K in FIG3_K_LIST, with L_D = 8, L_I = 2 and U = 3.

    The networks share each trial's draw (ergodic_rates), so cell 0's
    desired taps are one draw in every network, and each network's rows equal
    its ergodic_rate bit for bit.

    Returns rows (snr_db, K, proposed, baseline); raises ValueError unless
    trials is an integer >= 1.
    """
    cfgs = [model.SystemConfig.symmetric(K=K, L_D=8, L_I=2, U=3, seed=seed)
            for K in FIG3_K_LIST]
    rows = []
    for cfg, (proposed, baseline) in zip(cfgs, ergodic_rates(cfgs, snr_db, trials)):
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
    return cfg, model.make_delayed_plan(cfg, L_I_d=3, L_I_prime=5)


FIG5_DISTANCES_M = np.arange(20.0, 150.0, 10.0)   # user-to-BS distances (m)


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
            ofdma = ofdma_rate_with_ici(cfg, dplan, ch, 0)
            acc[near, 0] += prop.sum(axis=-1)
            acc[near, 1] += ofdma.sum(axis=-1)
    return [(float(d_user), float(sums[0] / trials), float(sums[1] / trials))
            for d_user, sums in zip(FIG5_DISTANCES_M, acc)]
