# blindim/spectral.py
"""IDFT basis, the receive combiner and the projected subblock channels.

The combiner W (combiner) is the one receive projection of both schemes: it
maps a cyclic-prefixed frame to the DFT rows M_D: of its core, after folding
the plan's L_I_d leading interference-free samples onto the core.  Every
subblock channel comes from one closed form, frame_columns: DFT precoding
with a cyclic prefix turns a link's response to f_m into a tone times the
running sum of its phase-rotated taps.  The effective channel is W times
those frame columns, and the leakage from the previous subblock is the same
column times -leakage_phase, so no channel matrix is built.

DFT convention (fixed once, used everywhere): the n-point IDFT matrix F has
entries F[m, k] = exp(+j*2*pi*m*k/n) / sqrt(n) for m, k in [0, n-1], so the
first column f_1 is the constant vector and F is unitary.  With this choice a
circulant matrix C with first column c satisfies C = F diag(fft(c)) F^H.
"""

from __future__ import annotations

import numpy as np


def idft_basis(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix; column k-1 is the precoding vector f_k."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = np.arange(n)
    return np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


def combiner(plan) -> np.ndarray:
    """(N - M_D, N_bar) receive combiner W of one cyclic-prefixed frame.

    W[:, cp:] = F[:, M_D:]^H nulls f_1 .. f_{M_D} on the core: a circulant
    interfering link keeps the interference on those tones.  Each of the plan's
    L_I_d leading frame samples is added to the core sample one period N
    later (W[:, j] = W[:, N + j]), which makes a link whose first L_I_d taps
    are zero circulant again; with L_I_d = 0 the cyclic prefix is discarded.
    """
    N, cp, L_I_d = plan.N, plan.cp_len, plan.L_I_d
    W = np.zeros((N - plan.M_D, plan.N_bar), dtype=complex)
    W[:, cp:] = idft_basis(N)[:, plan.M_D :].conj().T
    W[:, :L_I_d] = W[:, N : N + L_I_d]
    return W


# ---------------------------------------------------------------------------
# Projected subblock channels in closed form
# ---------------------------------------------------------------------------

def frame_columns(taps, N, cp, M) -> np.ndarray:
    """(..., N + cp, U * M) received frame samples of unit symbols on f_1 .. f_M.

    taps is a (..., U, L) array, one user per row, with any leading axes
    stacking realizations; column u * M + m is user u's response to a unit
    symbol on f_{m+1}.  The cyclic-prefixed frame of f_{m+1} is the pure tone
    f_{m+1}[(j - cp) mod N], so frame sample j is that tone times the running
    sum of h_l w^(-l m) over l <= j, with w = exp(2 pi i / N).  Taps beyond
    the frame (l >= N + cp) never reach it and are ignored.
    """
    width = N + cp
    taps = np.asarray(taps)[..., :width]
    h = np.zeros(taps.shape[:-1] + (width,), dtype=complex)
    h[..., : taps.shape[-1]] = taps
    twiddle = np.exp(-2j * np.pi * np.outer(np.arange(width), np.arange(M)) / N)
    sums = np.cumsum(h[..., None] * twiddle, axis=-2)
    tones = idft_basis(N)[(np.arange(width) - cp) % N, :M]
    cols = np.swapaxes(tones * sums, -3, -2)
    return cols.reshape(cols.shape[:-2] + (-1,))


def leakage_phase(N, cp, M) -> np.ndarray:
    """w^(m cp) for m < M: the previous subblock's symbol on f_{m+1} reaches the
    projected current core as -w^(m cp) times the current symbol's column.

    Holds for links of at most N + cp taps: the leaked samples are the tap
    sums the current frame has not yet reached, and the full tap sum times the
    tone is nulled by the projection.
    """
    return np.exp(2j * np.pi * np.arange(M) * cp / N)


def build_structured(cfg, plan, ch, cells=None) -> dict:
    """Effective channel H_k of every requested cell (all when cells is None).

    Returns k -> (..., N - M_D, U'_k M_k) over the leading axes of the taps,
    one column per (active user, precoder) in user-major order: the combiner
    W times the frame_columns of cell k's own links.  Interfering links are
    circulant thanks to the cyclic prefix (and the fold) and are nulled
    exactly, so they are never built, and a realization needs only the
    desired links of the requested cells.
    """
    N, cp = plan.N, plan.cp_len
    if N < plan.L_I:
        raise ValueError("plan requires N >= L_I")
    W = combiner(plan)
    if cells is None:
        cells = range(cfg.K)
    H = {}
    for k in cells:
        taps = ch.taps[(k, k)][..., : plan.U_active[k], :]
        H[k] = W @ frame_columns(taps, N, cp, plan.M[k])
    return H
