# blindim/spectral.py
"""IDFT basis, the receive combiner and the projected subblock channels.

The combiner W (combiner) is the one receive projection of both schemes: it
maps a cyclic-prefixed frame to the DFT rows M_D: of its core, after folding
the plan's L_I_d leading interference-free samples onto the core.  One closed
form, frame_response, gives a link's response to a frame: each tone times the
link's per-tone gain, plus a leak where the prefix is too short.  The receiver
meets the symbols with it.  W nulls the tones, so the decoder's H_k is -W
times the leak, plus the folded prefix on a delayed plan (projected_response).
That is linear in the taps: a link of a few taps per user reads it as one
product of the taps with a table of the response of unit taps, computed once
per geometry, (L, M) included (_unit_response); a link of many taps per user,
whose table would grow as L^3, applies it to its own taps.  The previous
subblock leaks as -leakage_phase times H_k.

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

from .model import _integral


def idft_basis(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix; column k-1 is the precoding vector f_k.

    The matrix is computed once per n and shared, so it is read-only.
    Raises ValueError unless n is an integer (numpy's too) or an integral
    real, and n >= 1.
    """
    count = _integral(n)
    if not isinstance(count, int) or count < 1:
        raise ValueError("n must be an integer >= 1 (n=%r)" % (n,))
    return _idft_basis(count)


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
    The matrix is computed once per geometry and shared, so it is read-only.
    """
    return _combiner(plan.N, plan.cp_len, plan.L_I_d, plan.M_D)


# bounded: a run uses a few geometries, each (N - M_D) x (N + cp) complex values
@functools.lru_cache(maxsize=32)
def _combiner(N, cp, L_I_d, M_D):
    W = np.zeros((N - M_D, N + cp), dtype=complex)
    W[:, cp:] = idft_basis(N)[:, M_D:].conj().T
    W[:, :L_I_d] = W[:, N : N + L_I_d]
    W.flags.writeable = False
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


# The table holds L / U draws' channels, and one draw reads all of it: up to 16
# taps per user it costs at most 16 draws' channels and is still faster than
# a single draw's own frame_response (the two meet near L / U = 20 to 25 on a
# 2-vCPU Xeon, one BLAS thread); beyond, it grows as L^3 for one user.
TABLE_TAPS_PER_USER = 16


def projected_response(plan, taps, M) -> np.ndarray:
    """(..., N - M_D, U * M): the combiner times the frame_response of
    (..., U, L) taps to unit symbols on f_1 .. f_M, column u * M + m for user
    u and tone f_{m+1}.

    The response is linear in the taps.  Up to TABLE_TAPS_PER_USER taps per
    user it is one product of the taps, all draws and users at once, with the
    geometry's _unit_response table; a longer link (a few users on long taps)
    takes the combined frame_response of its own taps.  The route depends on
    U and L only, so a draw gets the same channel whatever it is stacked
    with: bit for bit where its own product has more than one row, else to
    round-off (numpy takes a one-row product as a vector product)."""
    taps = np.asarray(taps)
    *lead, U, L = taps.shape
    geometry = (plan.N, plan.cp_len, plan.L_I_d, plan.M_D)
    if L > TABLE_TAPS_PER_USER * U:
        H = _combined_response(*geometry, taps, M)
    else:
        rows = plan.N - plan.M_D
        H = taps.reshape(-1, L) @ _unit_response(*geometry, L, M).reshape(L, M * rows)
        H = H.reshape(tuple(lead) + (U * M, rows))
    # the transpose of a (..., U * M, rows) product: a view, no copy
    return H.swapaxes(-1, -2)


def _combined_response(N, cp, L_I_d, M_D, taps, M):
    """(..., U * M, N - M_D): row u * M + m is the combiner W times the
    frame_response of user u's taps to f_{m+1}.  W nulls the tones on the
    core (F[:, M_D:]^H F[:, :M] = 0 for M <= M_D), so the frame's first
    N + cp samples leave -W times the leak, plus the L_I_d folded prefix
    samples times the gains."""
    W = _combiner(N, cp, L_I_d, M_D)
    gains, leak = frame_response(taps, N, cp, M)
    n = min(leak.shape[-1], N + cp)   # taps beyond the frame never reach it
    H = leak[..., :n] @ -W[:, :n].T
    if L_I_d:
        fold = (W[:, :L_I_d] @ framed_precoders(N, cp, M)[:L_I_d]).T
        H += (gains[..., None] * fold).reshape(H.shape)
    return H


@functools.lru_cache(maxsize=32)   # bounded and read-only, like _idft_basis
def _unit_response(N, cp, L_I_d, M_D, L, M):
    """(L, M, N - M_D) table: [l, m] is the combiner W times the
    frame_response of the unit tap at l to f_{m+1}."""
    table = _combined_response(N, cp, L_I_d, M_D, np.eye(L), M).reshape(L, M, N - M_D)
    table.flags.writeable = False
    return table


def build_structured(cfg, plan, ch) -> dict:
    """Effective channel H_k of every cell.

    Returns k -> (..., N - M_D, U'_k M_k) over the leading axes of the taps,
    one column per (active user, precoder) in user-major order: the
    projected_response of cell k's own links.  Interfering links are
    circulant thanks to the cyclic prefix (and the fold) and are nulled
    exactly, so they are never built, and a realization needs only the
    desired links.
    """
    return {k: projected_response(plan, ch[(k, k)][..., : plan.U_active[k], :], plan.M[k])
            for k in range(cfg.K)}


def delayed_effective_channels(cfg, dplan, ch, k):
    """Enlarged effective channel and residual-interference columns of cell k.

    Returns (H_k, H_int_k), (..., N - M_D, columns) over the leading axes of
    the taps: combiner(dplan) times the received frame of each active
    desired user on each precoder, then of each active user of each link
    into cell k longer than the plan's L_I (the cancelled length L_I_prime),
    in link order, on its residual taps ell >= L_I_prime alone.  The map is
    linear in the taps: one projected_response call takes them all as the
    rows of one zero-padded stack.  Residual links exist only on a delayed
    plan, where M_k <= 1, so the call sends f_1 even when no desired user is
    active.  A realization needs only the links into cell k.
    """
    U = dplan.U_active
    links = [(k, 0)] + [(i, dplan.L_I) for i in range(cfg.K)
                        if i != k and cfg.cir_len[k][i] > dplan.L_I]
    stack = np.zeros(ch[(k, k)].shape[:-2] + (sum(U[i] for i, _ in links),
                     max(cfg.cir_len[k][i] for i, _ in links)), dtype=complex)
    row = 0
    for i, first in links:
        taps = ch[(k, i)][..., : U[i], first:]
        stack[..., row : row + U[i], first : first + taps.shape[-1]] = taps
        row += U[i]
    M = max(dplan.M[k], 1)
    H = projected_response(dplan, stack, M)
    return H[..., : U[k] * M], H[..., U[k] * M :]
