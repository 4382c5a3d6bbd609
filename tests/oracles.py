"""Independent oracles used by the tests.

These deliberately avoid the library's matrix builders: everything here is
derived from first principles (sample-by-sample convolution bookkeeping), so
agreement with the library is a two-route check, not a tautology.
"""

from fractions import Fraction

import numpy as np
import scipy.linalg


def direct_convolve(h, x):
    """Textbook linear convolution, truncated to len(x)."""
    y = np.zeros(len(x), dtype=complex)
    for n in range(len(x)):
        for ell in range(len(h)):
            if n - ell >= 0:
                y[n] += h[ell] * x[n - ell]
    return y


def direct_channel_matrix(h, N, L_I):
    """N x N map from a subblock core to the retained post-CP receive samples.

    Built as R @ T @ S: S prepends the cyclic prefix, T is the in-window
    convolution matrix, R drops the first L_I - 1 received samples.
    """
    cp = L_I - 1
    w = cp + N
    S = np.zeros((w, N))
    if cp > 0:
        S[:cp, N - cp :] = np.eye(cp)
    S[cp:, :] = np.eye(N)
    T = np.zeros((w, w), dtype=complex)
    for i in range(w):
        for j in range(w):
            if 0 <= i - j < len(h):
                T[i, j] = h[i - j]
    R = np.zeros((N, w))
    R[:, cp:] = np.eye(N)
    return R @ T @ S


def direct_isbi_matrix(h, N, L_I):
    """N x N leakage of the previous subblock's core into the current window.

    Tracks where each tap of each previous-frame sample lands relative to the
    current frame, keeping only the retained (post-CP) rows.
    """
    cp = L_I - 1
    w = cp + N
    S = np.zeros((w, N))
    if cp > 0:
        S[:cp, N - cp :] = np.eye(cp)
    S[cp:, :] = np.eye(N)
    M = np.zeros((N, N), dtype=complex)
    for j in range(N):
        for t in range(w):
            if S[t, j] == 0:
                continue
            for ell in range(len(h)):
                r = (t - w + ell) - cp   # landing row in the current core
                if 0 <= r < N:
                    M[r, j] += h[ell]
    return M


def circulant(first_column):
    """Square circulant matrix; column m is the cyclic down-shift of the first by m."""
    c = np.asarray(first_column)
    if c.size < 1:
        raise ValueError("first_column must be nonempty")
    return scipy.linalg.circulant(c)


def diagonalize_circulant(C):
    """Eigenvalues of a circulant matrix, ordered to match the IDFT basis columns.

    The input is checked structurally: each column must be the cyclic shift of
    the first within 1e-12 relative tolerance.
    """
    C = np.asarray(C)
    ref = circulant(C[:, 0])
    scale = max(np.abs(C).max(), 1e-300)
    if np.abs(C - ref).max() > 1e-12 * scale:
        raise ValueError("matrix is not circulant")
    return np.fft.fft(C[:, 0])


def tap_sums(h, N):
    """sum_l h_l w^(-l m) for m in [0, N-1], w = exp(2 pi i / N): the
    eigenvalues of the circulant of the taps wrapped onto N samples."""
    lm = np.outer(np.arange(len(h)), np.arange(N))
    return h @ np.exp(-2j * np.pi * lm / N)


def dof_theorem1_literal(cfg) -> float:
    """Theorem 1 as printed, from the tap counts alone:
    max{ sum_k min(U_k M_k, (L_kk - L_I)^+) / (max(L_D - L_I + M_D, L_I) + L_I - 1), 1 }
    with M_k = max(floor((L_kk - L_I) / U_k), 1) symbols per user when
    L_kk > L_I, else 0."""
    K = cfg.K
    L_D = max(cfg.cir_len[k][k] for k in range(K))
    L_I = max([cfg.cir_len[k][i] for k in range(K) for i in range(K) if i != k], default=1)
    spare = [max(cfg.cir_len[k][k] - L_I, 0) for k in range(K)]
    M = [max(s // u, 1) if s > 0 else 0 for s, u in zip(spare, cfg.users_per_cell)]
    num = sum(min(u * m, s) for u, m, s in zip(cfg.users_per_cell, M, spare))
    den = max(L_D - L_I + max(M), L_I) + L_I - 1
    return float(max(Fraction(num, den), Fraction(1)))


def plan_by_cases(cfg):
    """make_plan's TransmissionPlan, cell by cell through Theorem 1's three
    cases: no user is active when L_kk <= L_I; U_k <= L_kk - L_I users each
    send floor((L_kk - L_I) / U_k) symbols; more users than L_kk - L_I
    activate L_kk - L_I of them with one symbol each."""
    from blindim import model

    K = cfg.K
    L_D = max(cfg.cir_len[k][k] for k in range(K))
    L_I = max([cfg.cir_len[k][i] for k in range(K) for i in range(K) if i != k], default=1)
    U_active = []
    M = []
    for k in range(K):
        U_k = cfg.users_per_cell[k]
        spare = cfg.cir_len[k][k] - L_I
        if spare <= 0:
            U_active.append(0)
            M.append(0)
        elif U_k <= spare:
            U_active.append(U_k)
            M.append(spare // U_k)
        else:
            U_active.append(spare)
            M.append(1)
    N = max(L_D - L_I + max(M), L_I)
    T = cfg.subblocks * (N + L_I - 1) + max(L_D, L_I) - 1
    return model.TransmissionPlan(B=cfg.subblocks, U_active=tuple(U_active), M=tuple(M),
                                  L_D=L_D, L_I=L_I, N=N, T=T)


def random_config(rng, case):
    """A valid SystemConfig; case cycles through K = 1, cp = 0, asymmetric
    users, a cell with no active user and desired links longer than N."""
    from blindim import model

    K = 1 if case == 0 else int(rng.integers(2, 4))
    L_I = 1 if case in (0, 1) else int(rng.integers(2, 4))
    cir = [[int(rng.integers(1, L_I + 1)) for _ in range(K)] for _ in range(K)]
    if K > 1:
        cir[0][1] = L_I
    for k in range(K):
        cir[k][k] = int(rng.integers(L_I + 1, L_I + 7))
    users = [int(rng.integers(1, 5)) for _ in range(K)]
    if case == 2:
        users[0] = users[1] + 1
    elif case == 3:
        cir[K - 1][K - 1] = int(rng.integers(1, L_I + 1))
    elif case == 4:
        # one symbol per user and L_D >= 2 L_I: N = L_D - L_I + 1 < L_D
        for k in range(K):
            cir[k][k] = int(rng.integers(2 * L_I, 2 * L_I + 4))
            users[k] = cir[k][k] - L_I
    return model.SystemConfig(K=K, users_per_cell=users, cir_len=cir)


# ---------------------------------------------------------------------------
# The transceiver one subblock at a time: explicit DFT matrices, np.convolve
# per link, and one least-squares solve per subblock
# ---------------------------------------------------------------------------

def _dft_columns(N):
    """Unitary N-point IDFT matrix, F[m, k] = exp(2 pi i m k / N) / sqrt(N)."""
    m = np.arange(N)
    return np.exp(2j * np.pi * np.outer(m, m) / N) / np.sqrt(N)


def frame_by_subblock(plan, k, symbols):
    """(U'_k, T) blocks: per user and subblock, core F[:, :M_k] s, cyclic
    prefix of its last cp samples, then the flush zeros."""
    F = _dft_columns(plan.N)[:, : plan.M[k]]
    out = np.zeros((plan.U_active[k], plan.T), dtype=complex)
    for u in range(plan.U_active[k]):
        for b in range(plan.B):
            core = F @ symbols[b, u]
            start = b * plan.N_bar
            if plan.cp_len > 0:
                out[u, start : start + plan.cp_len] = core[-plan.cp_len :]
            out[u, start + plan.cp_len : start + plan.N_bar] = core
    return out


def receive_by_link(cfg, plan, ch, tx, rng=None, noise_var=0.0):
    """(K, T) streams: one np.convolve per link, then per cell a real and an
    imaginary noise draw of T samples each."""
    y = np.zeros((cfg.K, plan.T), dtype=complex)
    for k in range(cfg.K):
        for i in range(cfg.K):
            for u in range(plan.U_active[i]):
                y[k] += np.convolve(ch[(k, i)][..., u, :], tx[i][u])[: plan.T]
        if noise_var > 0:
            z = (rng.standard_normal(plan.T) + 1j * rng.standard_normal(plan.T)) * np.sqrt(
                noise_var / 2.0
            )
            y[k] += z
    return y


def fold_matrix(plan):
    """(N, N_bar) 0/1 first stage of the two-stage receiver: row r picks core
    sample cp + r, and the plan's L_I_d leading samples j are added to row
    j + N - cp, the core sample one period N after them."""
    W1 = np.zeros((plan.N, plan.N_bar))
    for r in range(plan.N):
        W1[r, plan.cp_len + r] = 1.0
    for j in range(plan.L_I_d):
        W1[j + plan.N - plan.cp_len, j] += 1.0
    return W1


def combine_by_subblock(plan, y_stream):
    """(B, N - M_D): per subblock, drop the cyclic prefix, fold each of the
    L_I_d leading samples onto the core sample one period later, then take
    the DFT rows W2 = F[:, M_D:]^H of the folded core."""
    W2 = _dft_columns(plan.N)[:, plan.M_D :].conj().T
    rows = []
    for b in range(plan.B):
        start = b * plan.N_bar
        core = np.array(y_stream[start + plan.cp_len : start + plan.N_bar], dtype=complex)
        for j in range(plan.L_I_d):
            core[j + plan.N - plan.cp_len] += y_stream[start + j]
        rows.append(W2 @ core)
    return np.array(rows)


def decode_by_subblock(plan, H, y_tilde):
    """k -> (B, U'_k M_k): per subblock, add back the previous subblock's
    leakage H_k (w^(m cp) * prev) and solve least squares."""
    s_hat = {}
    for k, Hk in H.items():
        M = plan.M[k]
        phase = np.tile(np.exp(2j * np.pi * np.arange(M) * plan.cp_len / plan.N),
                        plan.U_active[k])
        out = np.zeros((plan.B, Hk.shape[1]), dtype=complex)
        for b in range(plan.B):
            obs = np.array(y_tilde[k][b])
            if b > 0:
                obs = obs + Hk @ (phase * out[b - 1])
            if Hk.shape[1]:
                out[b], *_ = np.linalg.lstsq(Hk, obs, rcond=None)
        s_hat[k] = out
    return s_hat


def decode_by_triangular_solve(plan, H, y_tilde):
    """k -> (B, U'_k M_k): z = R^-1 (Q^H y_b) for every subblock by one
    back substitution on a thin QR of H_k, then the closed-form cancellation
    s_b = phi^b cumsum_{j<=b}(phi^-j z_j).  The phases of R's diagonal
    cancel in R^-1 Q^H, so a plain QR serves."""
    s_hat = {}
    for k, Hk in H.items():
        Q, R = np.linalg.qr(Hk)
        z = scipy.linalg.solve_triangular(R, Q.conj().T @ np.transpose(y_tilde[k])).T
        exponent = np.outer(np.arange(plan.B), np.arange(plan.M[k]) * plan.cp_len) % plan.N
        powers = np.tile(np.exp(2j * np.pi * exponent / plan.N), plan.U_active[k])
        s_hat[k] = powers * np.cumsum(powers.conj() * z, axis=0)
    return s_hat


# ---------------------------------------------------------------------------
# fig5 one trial, one user and one tap at a time: the scalar power-delay
# profile, the full hexagonal deployment, the per-user gains, fading and
# geometric samplers, the residual columns one link at a time, the per-trial
# delayed-ICI and OFDMA rates, the trial-by-trial distance sweep, and the
# sweep with one pair of rate calls per distance
# ---------------------------------------------------------------------------

def pdp_variance(k, i, ell, L_D, L_I, L_I_d):
    """Normalized per-tap variance gamma_{k,i,ell} of the exponential delay
    profile with decay model.PDP_DECAY.

    Desired links (k == i) spread unit power over taps [0, L_D-1]; interfering
    links over taps [L_I_d, L_I-1]; everything else is zero.
    """
    from blindim import model

    beta = model.PDP_DECAY
    if k == i:
        if 0 <= ell <= L_D - 1:
            num = np.exp(-beta * ell)
            den = np.sum(np.exp(-beta * np.arange(L_D)))
            return float(num / den)
        return 0.0
    if L_I_d <= ell <= L_I - 1:
        num = np.exp(-beta * ell)
        den = np.sum(np.exp(-beta * np.arange(L_I_d, L_I)))
        return float(num / den)
    return 0.0


def small_scale_by_user(cfg, rng):
    """CN(0, 1) taps per link in (k, i) order, per user: a real then an
    imaginary draw of L normals."""
    taps = {}
    for k in range(cfg.K):
        for i in range(cfg.K):
            L = cfg.cir_len[k][i]
            taps[(k, i)] = np.array([
                (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
                for _ in range(cfg.users_per_cell[i])
            ])
    return taps


def hex_deployment(D_user, users_per_cell):
    """(..., 7, 7, U_max) distances (m) from user (i, u) to base station k in
    fig5's 7-cell hexagonal layout: the center cell plus 6 neighbors at
    spacing model.SITE_SPACING_M, with users_per_cell[i] users in cell i.

    Users sit at distance D_user from their own BS, at evenly-spread angles
    starting from 0 degrees; slots past a cell's last user hold NaN.  Each
    distance is the length of site i's offset from site k plus the user's
    displacement from site i.  An array of D_user gives one layout per entry,
    stacked along the leading axes.
    """
    from blindim import model

    D_user = np.asarray(D_user, dtype=float)
    if not np.all((0 <= D_user) & (D_user < model.SITE_SPACING_M)):
        raise ValueError("require 0 <= D_user < D_site")
    if len(users_per_cell) != 7:
        raise ValueError("users_per_cell must have 7 entries")
    ring = np.pi / 3.0 * np.arange(6)
    bs = np.zeros((7, 2))
    bs[1:] = model.SITE_SPACING_M * np.stack([np.cos(ring), np.sin(ring)], axis=-1)
    U = np.array(users_per_cell)[:, None]
    u = np.arange(U.max())
    ang = 2.0 * np.pi * u / U
    step = D_user[..., None, None, None] * np.stack([np.cos(ang), np.sin(ang)], -1)
    step[..., u >= U, :] = np.nan
    offset = (bs[None, :, None] - bs[:, None, None]) + step[..., None, :, :, :]
    return np.hypot(offset[..., 0], offset[..., 1])


def gain_by_user(cfg, L_I_d, dist):
    """(k, i) -> (U_i, L_{k,i}) tap amplitudes sqrt(P_0) * d^(-alpha/2) *
    sqrt(gamma) of every link, one scalar d ** x per user and one
    pdp_variance per tap, with model's deployment constants and cross-link
    power over [L_I_d, L_I).  dist[k, i, u] is the distance from user (i, u)
    to base station k; a nonpositive one raises ValueError."""
    from blindim import model

    p0 = 10.0 ** (model.REF_LOSS_DB / 10.0)
    L_D, L_I = model.link_lengths(cfg)
    gains = {}
    for k in range(cfg.K):
        for i in range(cfg.K):
            L = cfg.cir_len[k][i]
            gamma = np.array([pdp_variance(k, i, ell, L_D, L_I, L_I_d) for ell in range(L)])
            out = np.zeros((cfg.users_per_cell[i], L))
            for u in range(cfg.users_per_cell[i]):
                d = dist[k, i, u]
                if not d > 0:
                    raise ValueError("nonpositive distance for link (k=%d, i=%d, u=%d)"
                                     % (k, i, u))
                out[u] = np.sqrt(p0) * d ** (-model.PATHLOSS_EXPONENT / 2.0) * np.sqrt(gamma)
            gains[(k, i)] = out
    return gains


def sample_channel_by_user(cfg, L_I_d, dist, rng):
    """Taps h = sqrt(P_0) * d^(-alpha/2) * h_small, h_small ~ CN(0, gamma):
    one small_scale_by_user draw times gain_by_user(cfg, L_I_d, dist)."""
    gains = gain_by_user(cfg, L_I_d, dist)
    small = small_scale_by_user(cfg, rng)
    return {key: gains[key] * h for key, h in small.items()}


def framed_convolution(plan, taps, M):
    """(..., N_bar, U M) received frames of unit symbols: np.convolve of each
    user's taps of (..., U, L) with each of f_1 .. f_M behind its cyclic
    prefix, as frame_by_subblock frames it, cut to the N_bar samples of one
    frame.  Column u * M + m is user u on f_{m+1}."""
    frames = _dft_columns(plan.N)[(np.arange(plan.N_bar) - plan.cp_len) % plan.N, :M]
    taps = np.asarray(taps)
    out = np.zeros(taps.shape[:-1] + (M, plan.N_bar), dtype=complex)
    for idx in np.ndindex(taps.shape[:-1]):
        for m in range(M):
            out[idx + (m,)] = np.convolve(taps[idx], frames[:, m])[: plan.N_bar]
    return np.swapaxes(out.reshape(taps.shape[:-2] + (-1, plan.N_bar)), -1, -2)


def residual_columns_by_link(cfg, dplan, ch, k):
    """H_int of spectral.delayed_effective_channels one link at a time: the
    combiner times the f_1 framed_convolution of the taps l >= L_I_prime (the
    plan's L_I; the taps before it zeroed) of the active users of each link
    into cell k longer than L_I_prime, side by side in link order."""
    from blindim import spectral

    lead = ch[(k, k)].shape[:-2]
    columns = [np.zeros(lead + (dplan.N_bar, 0), dtype=complex)]
    for i in range(cfg.K):
        if i != k and cfg.cir_len[k][i] > dplan.L_I:
            taps = ch[(k, i)][..., : dplan.U_active[i], :].copy()
            taps[..., : dplan.L_I] = 0.0
            columns.append(framed_convolution(dplan, taps, 1))
    return spectral.combiner(dplan) @ np.concatenate(columns, axis=-1)


def _f1_columns_by_link(W21, dplan, blocks):
    """W2 W1 times the f_1 framed_convolution of each (users, taps) block, side by side."""
    columns = [np.zeros((dplan.N_bar, 0))]
    columns += [framed_convolution(dplan, taps, 1) for taps in blocks]
    return W21 @ np.hstack(columns)


def residual_ici_rate_by_trial(cfg, dplan, ch, tx_power, noise_var, k):
    """Rate of cell k in one realization: the desired columns and the residual
    columns of every user whose taps ell >= L_I_prime (the plan's L_I) are not
    all zero, then the generalized eigenvalues lambda of (signal, covariance)
    and sum log1p(lambda), which does not cancel when the rate is small."""
    W21 = _dft_columns(dplan.N)[:, dplan.M_D :].conj().T @ fold_matrix(dplan)
    p_sym = dplan.N * tx_power
    H = _f1_columns_by_link(W21, dplan, [ch[(k, k)][: dplan.U_active[k]]])
    residual = []
    for i in range(cfg.K):
        if i == k:
            continue
        h = ch[(k, i)][: dplan.U_active[i]].copy()
        h[:, : dplan.L_I] = 0.0
        residual.append(h[np.any(h, axis=1)])
    H_int = _f1_columns_by_link(W21, dplan, residual)
    cov = noise_var * (W21 @ W21.conj().T)
    if H_int.shape[1] > 0:
        cov = cov + p_sym * (H_int @ H_int.conj().T)
    sig = p_sym * (H @ H.conj().T)
    lam = scipy.linalg.eigh(sig, cov, eigvals_only=True)
    return dplan.B / dplan.T * np.sum(np.log1p(lam)) / np.log(2.0)


def ofdma_rate_by_subset(cfg, ch, tx_power, noise_var, L_D, n_sc, k):
    """OFDMA rate of cell k in one realization: one n_sc-point FFT per link
    and user, accumulated over each user's interleaved subcarrier set."""
    sets = {i: [list(range(u, n_sc, cfg.users_per_cell[i]))
                for u in range(cfg.users_per_cell[i])] for i in range(cfg.K)}
    ici = np.zeros(n_sc)
    for i in range(cfg.K):
        if i == k:
            continue
        for v, subset in enumerate(sets[i]):
            if not subset:
                continue
            lam = np.fft.fft(ch[(k, i)][v], n_sc)
            ici[subset] += tx_power * np.abs(lam[subset]) ** 2
    cell = 0.0
    for u, subset in enumerate(sets[k]):
        if not subset:
            continue
        lam = np.fft.fft(ch[(k, k)][u], n_sc)
        sig = tx_power * np.abs(lam[subset]) ** 2
        cell += float(np.sum(np.log2(1.0 + sig / (noise_var + ici[subset]))))
    return cell / (n_sc + L_D - 1)


def distance_comparison_by_trial(d_user_grid, trials, seed=0):
    """Rows (d_user_m, proposed, ofdma) of the fig5 sweep: per distance, per
    trial, one sample_channel_by_user draw from trial_rng(seed, t) and both
    per-trial rates for cell 0, accumulated in order."""
    from blindim import analysis, model

    cfg, dplan = analysis.fig5_config()
    P, sigma2 = cfg.snr_linear, 1.0
    rows = []
    for d_user in d_user_grid:
        dist = hex_deployment(float(d_user), cfg.users_per_cell)
        acc_prop = 0.0
        acc_ofdma = 0.0
        for t in range(trials):
            rng = model.trial_rng(seed, t)
            ch = sample_channel_by_user(cfg, dplan.L_I_d, dist, rng)
            acc_prop += residual_ici_rate_by_trial(cfg, dplan, ch, P, sigma2, 0)
            acc_ofdma += ofdma_rate_by_subset(cfg, ch, P, sigma2, dplan.L_D, dplan.N, 0)
        rows.append((float(d_user), acc_prop / trials, acc_ofdma / trials))
    return rows


def distance_comparison_by_distance(d_user_grid=None, trials=200, seed=0):
    """analysis.run_distance_comparison one distance at a time: per block
    of model.TRIAL_BLOCK trials, each trial draws all K * K links with
    small_scale_by_user, and every distance scales every link by its
    gain_by_user on the full hex_deployment and makes its own pair of rate
    calls, summed over the block's trials."""
    from blindim import analysis, model

    if d_user_grid is None:
        d_user_grid = np.arange(20.0, 150.0, 10.0)
    cfg, dplan = analysis.fig5_config()
    gains = [gain_by_user(cfg, dplan.L_I_d, hex_deployment(d, cfg.users_per_cell))
             for d in d_user_grid]
    acc = np.zeros((len(d_user_grid), 2))
    for start in range(0, trials, model.TRIAL_BLOCK):
        block = range(start, min(start + model.TRIAL_BLOCK, trials))
        draws = [small_scale_by_user(cfg, model.trial_rng(seed, t)) for t in block]
        small = {key: np.stack([ch[key] for ch in draws]) for key in draws[0]}
        for j in range(len(d_user_grid)):
            ch = {key: gain * small[key] for key, gain in gains[j].items()}
            prop = analysis.rate_with_residual_ici(cfg, dplan, ch, 0)
            ofdma = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
            acc[j] += prop.sum(), ofdma.sum()
    return [(float(d_user), float(sums[0] / trials), float(sums[1] / trials))
            for d_user, sums in zip(d_user_grid, acc)]


# ---------------------------------------------------------------------------
# The ergodic rate one trial and one SNR at a time: a scalar ZF-SIC rate per
# realization and a per-user TDMA-OFDMA baseline on explicit DTFT sums
# ---------------------------------------------------------------------------

def zf_sic_rate_by_cell(plan, H, snr_linear):
    """Sum rate of one realization's effective channels H: per cell, the |r_mm|
    of a QR and log2(1 + (N/M_k) rho |r_mm|^2) / (N + L_I - 1) per stream."""
    total = 0.0
    for k, Hk in H.items():
        if Hk.shape[1] == 0:
            continue
        r = np.abs(np.diagonal(np.linalg.qr(Hk)[1]))
        rho_eff = plan.N * snr_linear / plan.M[k]
        total += float(np.sum(np.log2(1.0 + rho_eff * r ** 2) / (plan.N + plan.L_I - 1)))
    return total


def baseline_by_user(cfg, plan, ch, snr_linear):
    """TDMA-OFDMA rate of one realization on n_sc = N subcarriers: per user u
    of cell 0, subcarriers u, u + U, ... with SNR rho n_sc / |S_u|, each seeing
    the DTFT of all the user's taps at that subcarrier."""
    n_sc = plan.N
    U = cfg.users_per_cell[0]
    acc = 0.0
    for u in range(U):
        subset = list(range(u, n_sc, U))
        if not subset:
            continue
        lam = tap_sums(ch[(0, 0)][..., u, :], n_sc)[subset]
        snr_eff = snr_linear * n_sc / len(subset)
        acc += float(np.sum(np.log2(1.0 + snr_eff * np.abs(lam) ** 2)))
    return acc / (n_sc + plan.L_D - 1) / cfg.K


def ergodic_rate_by_trial(cfg, snr_db_list, trials, seed):
    """(proposed, baseline) mean rates: per trial one sample_channel_iid draw
    from trial_rng(seed, t), then both scalar rates at every SNR."""
    from blindim import model, spectral

    plan = model.make_plan(cfg)
    snr_lin = 10.0 ** (np.asarray(snr_db_list, dtype=float) / 10.0)
    proposed = np.zeros(len(snr_lin))
    baseline = np.zeros(len(snr_lin))
    for t in range(trials):
        ch = model.sample_channel_iid(cfg, model.trial_rng(seed, t))
        H = spectral.build_structured(cfg, plan, ch)
        for j, rho in enumerate(snr_lin):
            proposed[j] += zf_sic_rate_by_cell(plan, H, rho)
            baseline[j] += baseline_by_user(cfg, plan, ch, rho)
    return proposed / trials, baseline / trials


def snr_comparison_by_network(snr_db, trials, seed):
    """fig3's rows (snr_db, K, proposed, baseline) with one
    analysis.ergodic_rate per network of analysis.FIG3_K_LIST: each network
    draws every trial's stream itself, only as far as its own desired links."""
    from blindim import analysis, model

    rows = []
    for K in analysis.FIG3_K_LIST:
        cfg = model.SystemConfig.symmetric(K=K, L_D=8, L_I=2, U=3, seed=seed)
        proposed, baseline = analysis.ergodic_rate(cfg, snr_db, trials)
        for j, s in enumerate(snr_db):
            rows.append((float(s), K, float(proposed[j]), float(baseline[j])))
    return rows


def highsnr_slope(rate_1, rate_2, rho_1, rho_2) -> float:
    """Empirical pre-log factor between two (high) SNR points."""
    return float((rate_2 - rate_1) / (np.log2(rho_2) - np.log2(rho_1)))


def baseline_slope(cfg, plan) -> float:
    """High-SNR pre-log of the TDMA-OFDMA baseline: N / (K (N + L_D - 1))."""
    return plan.N / (cfg.K * (plan.N + plan.L_D - 1))


# ---------------------------------------------------------------------------
# The IID sampler one link at a time, and the rank lemmas and Lemma 2's
# full-rank fraction one matrix at a time
# ---------------------------------------------------------------------------

def sample_channel_by_link(cfg, rng):
    """IID CN(0, 1) taps, link by link in (k, i) order: a (U_i, L_{k,i}) draw
    of real parts, then one of imaginary parts."""
    taps = {}
    for k in range(cfg.K):
        for i in range(cfg.K):
            shape = (cfg.users_per_cell[i], cfg.cir_len[k][i])
            taps[(k, i)] = (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ) / np.sqrt(2.0)
    return taps


def rank_by_matrix(A, tol=1e-8, scale=None):
    """Rank of one matrix: singular values above tol times scale, by default
    the largest."""
    sv = np.linalg.svd(A, compute_uv=False)
    if scale is None:
        scale = sv[0] if sv.size else 0.0
    return int(np.sum(sv > tol * scale))


def lemma3_ranks_by_triple(A, B, C):
    """[rank AB, rank BC, rank B, rank ABC] of one unpadded triple, each
    product counted against the product of its factors' largest singular
    values."""
    a, b, c = (np.linalg.svd(M, compute_uv=False)[0] for M in (A, B, C))
    return [rank_by_matrix(A @ B, scale=a * b), rank_by_matrix(B @ C, scale=b * c),
            rank_by_matrix(B), rank_by_matrix(A @ B @ C, scale=a * b * c)]


def rank_factors_by_column(plan, L_kk, m):
    """verify.build_rank_factors' G_m with its sign matrix E filled column by
    column: column j < N - L_I is -1 on rows 0..j; column j >= N - L_I is +1
    from row N - L_I + 1 + (j - (N - L_I)) down."""
    from blindim import spectral

    N, L_I = plan.N, plan.L_I
    w = np.exp(2j * np.pi * (m - 1) / N)
    d1 = w ** np.arange(N)
    d2 = w ** (N - L_I) * w ** (-np.arange(L_kk - L_I, dtype=float))
    E = np.zeros((N, L_kk - L_I))
    for j in range(L_kk - L_I):
        if j < N - L_I:
            E[: j + 1, j] = -1.0
        else:
            jp = j - (N - L_I)
            E[N - L_I + 1 + jp :, j] = 1.0
    W = spectral.combiner(plan)[:, plan.cp_len :]
    return (W * d1) @ E @ np.diag(d2) / np.sqrt(N)


def check_lemma2(cfg, trials, seed=0):
    """Fraction of the IID draws trial_rng(seed, t), t < trials, in which
    every cell's effective channel has full column rank."""
    from blindim import model, spectral

    plan = model.make_plan(cfg)
    passed = 0
    for t in range(trials):
        ch = model.sample_channel_iid(cfg, model.trial_rng(seed, t))
        H = spectral.build_structured(cfg, plan, ch)
        passed += all(rank_by_matrix(Hk) == Hk.shape[1] for Hk in H.values())
    return passed / trials


def lemma3_by_triple(seed, count=200):
    """verify's rank-inequality sweep one unpadded triple at a time.

    From default_rng(seed): the (count, 4) sizes in 1..8, then
    (3, count, 8, 8) normals; triple t crops A, B and C out of the top-left
    corners of normals[:, t].  Returns the list of (A, B, C) and, per triple,
    [rank AB, rank BC, rank B, rank ABC], each matrix counted against its own
    largest singular value.
    """
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 9, size=(count, 4))
    normals = rng.standard_normal((3, count, 8, 8))
    triples, ranks = [], []
    for t, d in enumerate(dims):
        A, B, C = (normals[j, t, : d[j], : d[j + 1]] for j in range(3))
        triples.append((A, B, C))
        ranks.append([rank_by_matrix(M) for M in (A @ B, B @ C, B, A @ B @ C)])
    return triples, ranks


def dft_submatrix(N, removed_rows, cols):
    """Columns cols of the N-point DFT matrix with removed_rows deleted."""
    F = _dft_columns(N).conj().T
    keep = [r for r in range(N) if r not in set(removed_rows)]
    return F[np.ix_(keep, list(cols))]


def dft_submatrix_by_pick(N, removed_rows, picks):
    """Per pick of columns, whether those columns of the N-point DFT matrix
    with removed_rows deleted are independent: one np.ix_ submatrix each."""
    return [rank_by_matrix(dft_submatrix(N, removed_rows, cols)) == len(cols) for cols in picks]


# ---------------------------------------------------------------------------
# The rank lemmas as general batched checks, on stacked matrices
# ---------------------------------------------------------------------------

def stacked_rank(A, scale=None):
    """One rank per matrix stacked on A's leading axes: singular values above
    1e-8 times scale, which broadcasts against those axes and defaults to each
    matrix's largest singular value."""
    sv = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    scale = sv[..., :1] if scale is None else np.expand_dims(scale, -1)
    return (sv > 1e-8 * scale).sum(axis=-1)


def lemma3_ranks(A, B, C):
    """(..., 4) ranks of AB, BC, B and ABC, as check_lemma3 counts them.

    B's singular values count against its largest one, and each product's
    against the product of its factors' largest ones, which bounds the
    product's own largest.  So a product that is zero up to round-off has
    rank 0, whatever the zero padding or the BLAS summation order.
    """
    a, b, c = (np.linalg.svd(M, compute_uv=False)[..., 0] for M in (A, B, C))
    AB = A @ B
    return np.stack([stacked_rank(AB, a * b), stacked_rank(B @ C, b * c), stacked_rank(B),
                     stacked_rank(AB @ C, a * b * c)], axis=-1)


def check_lemma3(A, B, C):
    """rank(AB) + rank(BC) <= rank(B) + rank(ABC) (Frobenius rank inequality).

    A (..., a, b), B (..., b, c) and C (..., c, d) may carry leading axes that
    stack triples: the result has one verdict per triple (ranks as
    lemma3_ranks counts them).
    """
    ab, bc, b, abc = np.moveaxis(lemma3_ranks(A, B, C), -1, 0)
    return ab + bc <= b + abc


def check_dft_submatrix_independence(N, removed_rows, picked_cols):
    """Columns of a DFT matrix stay independent after deleting consecutive rows.

    removed_rows is a consecutive run of r rows, or an (R, r) array of R runs;
    picked_cols is a pick of at most N - r columns, or a (P, c) array of P
    picks.  The result has one verdict per run and pick, shape (R, P) when
    both are stacked, from one fancy index into the DFT matrix and one
    batched SVD.
    """
    removed = np.sort(np.asarray(removed_rows, dtype=int), axis=-1)
    if np.any(np.diff(removed, axis=-1) != 1):
        raise ValueError("removed rows must be consecutive")
    picked = np.asarray(picked_cols, dtype=int)
    if picked.shape[-1] > N - removed.shape[-1]:
        raise ValueError("cannot pick more columns than remaining rows")
    F = _dft_columns(N).conj().T   # DFT matrix; row deletion symmetric either way
    # the rows each run leaves, in order, on their own axis ahead of the picks'
    kept = ~np.any(np.arange(N) == removed[..., None], axis=-2)
    rows = np.broadcast_to(np.arange(N), kept.shape)[kept]
    rows = rows.reshape(kept.shape[:-1] + (1,) * (picked.ndim - 1) + (-1, 1))
    return stacked_rank(F[rows, picked[..., None, :]]) == picked.shape[-1]


# ---------------------------------------------------------------------------
# The link simulator's payload and simulate's trials as first written: two
# draws per Gaussian cell, and one trial after another on one thread
# ---------------------------------------------------------------------------

def symbols_by_two_draws(cfg, plan, rng):
    """draw_symbols' dict k -> (B, U'_k, M_k): per Gaussian cell a draw of
    real and a draw of imaginary parts, (re + 1j * im) / sqrt(2), then scaled
    by sqrt(N rho / M_k)."""
    from blindim import transceiver

    out = {}
    for k in range(cfg.K):
        shape = (plan.B, plan.U_active[k], plan.M[k])
        if cfg.symbol_model == "qpsk":
            s = rng.choice(transceiver.QPSK, size=shape)
        else:
            s = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        out[k] = s * np.sqrt(plan.N * cfg.snr_linear / plan.M[k]) if plan.M[k] > 0 else s
    return out


def link_trials_in_order(cfg, plan, trials):
    """simulate's rows (trial, cell, normalized_mse) for trials 0 .. trials - 1,
    one trial after another on the calling thread; a draw that fails the rank
    criterion raises RankDeficientError naming its trial, so the first one
    stops the run."""
    from blindim import model, transceiver

    rows = []
    for t in range(trials):
        rng = model.trial_rng(cfg.seed, t)
        ch = model.sample_channel_iid(cfg, rng)
        symbols = symbols_by_two_draws(cfg, plan, rng)
        try:
            result = transceiver.simulate_link(cfg, plan, ch, symbols, noise_rng=rng)
        except transceiver.RankDeficientError as exc:
            raise transceiver.RankDeficientError("trial %d, %s" % (t, exc)) from None
        for k in range(cfg.K):
            if plan.U_active[k] * plan.M[k] == 0:
                continue
            truth = symbols[k].reshape(plan.B, -1)
            err = result.s_hat[k] - truth
            rows.append((t, k, float(np.mean(np.abs(err) ** 2) / np.mean(np.abs(truth) ** 2))))
    return rows
