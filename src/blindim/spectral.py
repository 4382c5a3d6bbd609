# blindim/spectral.py
"""IDFT basis, circulant machinery, and the structured channel matrices.

Every subblock channel comes from one builder, frame_response: the taps
convolved with two consecutive cyclic-prefixed frames, prefix folded onto the
core.  Its post-CP rows give a desired link's Hbar and the leakage Hsub from
the previous subblock; with at most cp + 1 taps (every interfering link) the
current-core map is circulant and the leakage is zero.

DFT convention (fixed once, used everywhere): the n-point IDFT matrix F has
entries F[m, k] = exp(+j*2*pi*m*k/n) / sqrt(n) for m, k in [0, n-1], so the
first column f_1 is the constant vector and F is unitary.  With this choice a
circulant matrix C with first column c satisfies C = F diag(fft(c)) F^H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


def idft_basis(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix; column k-1 is the precoding vector f_k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = np.arange(n)
    return np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


def circulant(first_column) -> np.ndarray:
    """Square circulant matrix; column m is the cyclic down-shift of the first by m."""
    c = np.asarray(first_column)
    if c.size < 1:
        raise ValueError("first_column must be nonempty")
    return scipy.linalg.circulant(c)


def diagonalize_circulant(C: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Structured channel matrices after cyclic-prefix removal
# ---------------------------------------------------------------------------

def frame_response(h, N, cp) -> np.ndarray:
    """(N + cp, 2, N) map from the previous and the current subblock core to the
    received samples of the current frame.

    Each core is framed by a cp-sample cyclic prefix; the two frames pass
    through one linear convolution (a Toeplitz matrix over both frames) and
    the prefix columns are folded onto the core samples they copy.
    resp[:, 0] is the previous core's leakage and resp[:, 1] the current
    core's response; rows cp: are the samples kept after CP removal.
    """
    w = N + cp
    col = np.zeros(2 * w, dtype=complex)
    n = min(len(h), 2 * w)
    col[:n] = h[:n]
    T = scipy.linalg.toeplitz(col, np.zeros(2 * w))[w:].reshape(w, 2, w)
    resp = T[:, :, cp:].copy()
    resp[:, :, N - cp :] += T[:, :, :cp]
    return resp


@dataclass
class DesiredLink:
    """Channel matrices of one desired link (k, u) for an N-sample subblock core."""

    Hbar: np.ndarray   # full N x N channel after CP removal
    Hnc: np.ndarray    # non-circulant part: Hbar - circulant(first min(L_kk, N) taps)
    Hsub: np.ndarray   # N x N inter-subblock leakage matrix


@dataclass
class StructuredChannel:
    """Desired-link matrices for one channel realization under a plan."""

    desired: dict   # (k, u) -> DesiredLink


def build_structured(cfg, plan, ch) -> StructuredChannel:
    """Build the post-CP channel matrices of every desired link.

    Interfering links are exactly circulant thanks to the cyclic prefix of
    length L_I - 1, so only desired links are built: each splits into a
    circulant part plus the non-circulant corners holding the taps beyond
    L_I - 1, and leaks Hsub into the next subblock.
    """
    N, cp = plan.N, plan.cp_len
    if N < plan.L_I:
        raise ValueError("plan requires N >= L_I")
    desired = {}
    for k in range(cfg.K):
        n_prime = min(cfg.cir_len[k][k], N)
        for u in range(cfg.users_per_cell[k]):
            h = ch.h(k, k, u)
            resp = frame_response(h, N, cp)
            Hbar = resp[cp:, 1].copy()
            col = np.zeros(N, dtype=complex)
            col[:n_prime] = h[:n_prime]
            desired[(k, u)] = DesiredLink(
                Hbar=Hbar, Hnc=Hbar - circulant(col), Hsub=resp[cp:, 0].copy()
            )
    return StructuredChannel(desired=desired)
