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
