# blindim/spectral.py
"""IDFT basis, the receive combiner and the projected subblock channels.

The combiner W (combiner) is the one receive projection of both schemes: it
maps a cyclic-prefixed frame to the DFT rows M_D: of its core, after folding
the plan's L_I_d leading interference-free samples onto the core.  One closed
form, frame_response, gives a link's response to a frame: each tone times the
link's per-tone gain, plus a leak where the prefix is too short.  The receiver
meets the symbols with it; W nulls the tones, so the decoder's H_k is -W times
the leak (projected_response), the previous subblock leaks as -leakage_phase
times H_k, and no channel matrix is built.

DFT convention (fixed once, used everywhere): the n-point IDFT matrix F has
entries F[m, k] = exp(+j*2*pi*m*k/n) / sqrt(n) for m, k in [0, n-1], so the
first column f_1 is the constant vector and F is unitary.  With this choice a
circulant matrix C with first column c satisfies C = F diag(fft(c)) F^H.
framed_precoders adds the cyclic prefix to these columns; frame_response
continues its tones.
"""

from __future__ import annotations

import functools

import numpy as np


def idft_basis(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix; column k-1 is the precoding vector f_k.

    The matrix is computed once per n and shared, so it is read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _idft_basis(int(n))


# bounded: a run uses a few sizes, and each matrix holds n^2 complex values
@functools.lru_cache(maxsize=32)
def _idft_basis(n):
    m = np.arange(n)
    F = np.exp(2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    F.flags.writeable = False
    return F


def framed_precoders(N, cp, M) -> np.ndarray:
    """(N + cp, M) cyclic-prefixed precoders: column m is f_{m+1} preceded by
    its last cp samples, so frame sample j is f_{m+1}[(j - cp) mod N]."""
    return idft_basis(N)[(np.arange(N + cp) - cp) % N, :M]


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

def frame_response(taps, N, cp, M) -> tuple:
    """(gains, leak): the response of (..., U, L) taps to one frame of unit
    symbols on f_1 .. f_M, in O(U M L) whatever the frame length.  It is
    framed_precoders times gains (..., U, M), the sums of h_l w^(-l m), less
    leak on samples 0 .. L - 2, plus leak times leakage_phase from sample
    N + cp on.  Row u * M + m of leak (..., U * M, L - 1) is the tone f_{m+1}
    continued to sample j times the sums over the taps l > j."""
    taps = np.asarray(taps)
    L = taps.shape[-1]
    twiddle, tones = _response_tables(N, cp, M, L)
    sums = taps[..., None, :] * twiddle
    sums.cumsum(axis=-1, out=sums)
    gains, leak = sums[..., -1], sums[..., :-1]
    np.subtract(gains[..., None], leak, out=leak)
    leak *= tones
    return gains, leak.reshape(leak.shape[:-3] + (taps.shape[-2] * M, L - 1))


@functools.lru_cache(maxsize=32)   # bounded and read-only, like _idft_basis
def _response_tables(N, cp, M, L):
    """(M, L) w^(-l m) and (M, L - 1) tone samples f_{m+1}[j - cp] of frame_response."""
    F = idft_basis(N)
    tables = (np.sqrt(N) * F[-np.arange(L) % N, :M].T, F[(np.arange(L - 1) - cp) % N, :M].T)
    for table in tables:
        table.flags.writeable = False
    return tables


def leakage_phase(N, cp, M) -> np.ndarray:
    """w^(m cp) for m < M: the previous subblock's symbol on f_{m+1} reaches the
    projected current core as -w^(m cp) times the current symbol's column.

    Holds for links of at most N + cp taps: the leaked samples are the tap
    sums the current frame has not yet reached, and the full tap sum times the
    tone is nulled by the projection.  An integer array cp gives
    (..., M) phases; each is taken from its exponent (m cp) mod N, so its
    modulus is 1 to round-off however large m cp grows.
    """
    exponent = (np.asarray(cp)[..., None] * np.arange(M)) % N
    return np.exp(2j * np.pi * exponent / N)


def projected_response(plan, W, taps, M) -> np.ndarray:
    """(..., N - M_D, U * M): the combiner W times the frame_response of
    (..., U, L) taps to unit symbols on f_1 .. f_M, column u * M + m for user
    u and tone f_{m+1}.  W nulls the tones on the core (F[:, M_D:]^H F[:, :M]
    = 0 for M <= M_D), so the frame's first N + cp samples leave -W times the
    leak, plus the plan's L_I_d folded prefix samples times the gains."""
    N, cp, L_I_d = plan.N, plan.cp_len, plan.L_I_d
    gains, leak = frame_response(taps, N, cp, M)
    n = min(leak.shape[-1], N + cp)   # taps beyond the frame never reach it
    H = -W[:, :n] @ np.swapaxes(leak[..., :n], -1, -2)
    if L_I_d:
        fold = W[:, :L_I_d] @ framed_precoders(N, cp, M)[:L_I_d]
        H += (fold[:, None, :] * gains[..., None, :, :]).reshape(H.shape)
    return H


def build_structured(cfg, plan, ch, cells=None) -> dict:
    """Effective channel H_k of every requested cell (all when cells is None).

    Returns k -> (..., N - M_D, U'_k M_k) over the leading axes of the taps,
    one column per (active user, precoder) in user-major order: the
    projected_response of cell k's own links.  Interfering links are
    circulant thanks to the cyclic prefix (and the fold) and are nulled
    exactly, so they are never built, and a realization needs only the
    desired links of the requested cells.
    """
    W = combiner(plan)
    if cells is None:
        cells = range(cfg.K)
    return {k: projected_response(plan, W, ch.taps[(k, k)][..., : plan.U_active[k], :], plan.M[k])
            for k in cells}
