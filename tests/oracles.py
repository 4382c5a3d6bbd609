"""Independent oracles used by the tests.

These deliberately avoid the library's matrix builders: everything here is
derived from first principles (sample-by-sample convolution bookkeeping), so
agreement with the library is a two-route check, not a tautology.
"""

import numpy as np


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


def tap_sums(h, N):
    """sum_l h_l w^(-l m) for m in [0, N-1], w = exp(2 pi i / N): the
    eigenvalues of the circulant of the taps wrapped onto N samples."""
    lm = np.outer(np.arange(len(h)), np.arange(N))
    return h @ np.exp(-2j * np.pi * lm / N)


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
                y[k] += np.convolve(ch.h(k, i, u), tx[i][u])[: plan.T]
        if noise_var > 0:
            z = (rng.standard_normal(plan.T) + 1j * rng.standard_normal(plan.T)) * np.sqrt(
                noise_var / 2.0
            )
            y[k] += z
    return y


def combine_by_subblock(plan, y_stream):
    """(B, N - M_D): W = F[:, M_D:]^H times each subblock's post-CP core."""
    W = _dft_columns(plan.N)[:, plan.M_D :].conj().T
    rows = []
    for b in range(plan.B):
        start = b * plan.N_bar + plan.cp_len
        rows.append(W @ y_stream[start : start + plan.N])
    return np.array(rows)


def decode_by_subblock(plan, H, y_tilde, genie_symbols=None):
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
                prev = genie_symbols[k][b - 1] if genie_symbols is not None else out[b - 1]
                obs = obs + Hk @ (phase * prev)
            if Hk.shape[1]:
                out[b], *_ = np.linalg.lstsq(Hk, obs, rcond=None)
        s_hat[k] = out
    return s_hat
