# blindim/transceiver.py
"""End-to-end chain: receive the symbols frame by frame, combine every frame
with spectral.combiner's W (which drops or folds the cyclic prefix and
projects out inter-cell interference), and decode with successive
inter-subblock interference cancellation.  No transmitted sample stream is
formed: each link's spectral.frame_response meets the symbols.

Power convention: sigma^2 = 1 and P = rho (the linear SNR), so every
transmitted sample satisfies E|x[n]|^2 = P when symbols carry variance
N*P/M_k.  The effective per-stream SNR after combining is then N*rho/M_k.
cfg.snr_db is the one SNR knob: a noise generator adds sigma^2 = 1 noise.
fig5's two rates take the same convention.  The chain takes one channel draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import build_structured, combiner, frame_response, framed_precoders, leakage_phase

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def draw_symbols(cfg, plan, rng) -> dict:
    """Random unit-variance payload symbols, scaled by sqrt(N rho / M_k) so
    each transmitted sample has power P = rho, the config's linear SNR.

    Returns a dict k -> array of shape (B, U'_k, M_k).  A Gaussian cell is one
    standard_normal draw of its real then its imaginary parts, written into
    one complex buffer and scaled in place: the same bits and generator state
    as (re + 1j * im) / sqrt(2) from two draws, without their temporaries.
    """
    out = {}
    for k in range(cfg.K):
        shape = (plan.B, plan.U_active[k], plan.M[k])
        if cfg.symbol_model == "qpsk":
            s = rng.choice(QPSK, size=shape)
        else:
            x = rng.standard_normal((2,) + shape)
            s = np.empty(shape, dtype=complex)
            s.real = x[0]
            s.imag = x[1]
            s /= np.sqrt(2.0)
        if plan.M[k] > 0:
            s *= np.sqrt(plan.N * cfg.snr_linear / plan.M[k])
        out[k] = s
    return out


# simulate_reception cuts the links at the longest cross link S only when the
# cross links would be padded to the longest link by more than this many taps
# times users times tones.  Below it, the cut's few numpy calls and its tails'
# leak products cost about as much as the padding.  Interleaved timings
# against the padded route on a 2-vCPU Xeon (one BLAS thread): 2016 padded
# taps (K = 7, L_D = 12, L_I = 4, U = 6) lose 1-17% at B = 10 to 400.  From
# 3000 to 4500 taps the cut ran from 6% slower to 10% faster, by B and by run
# (K = 5, L_D = 16, L_I = 3, U = 3; K = 6, L_D = 16, L_I = 4, U = 3).  From
# 4704 (K = 3, L_D = 32, L_I = 4, U = 4) on, it won at every B tried.  The
# default simulate config pads 8 taps; link_large pads 28224, and there the
# cut saves 35-37%.
SPLIT_PADDED_TAPS = 4500


def simulate_reception(cfg, plan, ch, symbols, rng=None) -> np.ndarray:
    """(K, T) per-BS streams y_k[n] = sum_i sum_u (h * x_{i,u})[n] + z_k[n] of
    one draw (links (U_i, L_{k,i})) and draw_symbols' dict i -> (B, U'_i, M_i)
    of every cell, idle ones (B, 0, 0), with CN(0, 1) noise z from rng (none
    without rng), built frame by frame from spectral.frame_response.

    Every link's first S taps go through one frame_response and one leak
    product, zero-padded to common users, tones and S taps.  frame_response
    is linear in the taps, so a desired link longer than S adds its taps from
    S on as a tail, one cell at a time, whose gains join its link's.  S is
    the longest cross link when the K (K - 1) cross links would otherwise be
    padded by more than SPLIT_PADDED_TAPS taps times users times tones, else
    the longest link, and then no link has a tail.  The links cost
    O((B + 1) K^2 U M S), plus O((B + 1) K U M L_D) for the tails."""
    K, B, N, cp, N_bar = cfg.K, plan.B, plan.N, plan.cp_len, plan.N_bar
    if any(i not in symbols or np.shape(symbols[i]) != (B, plan.U_active[i], plan.M[i])
           for i in range(K)):
        raise ValueError("each cell's symbols must have shape (B, U'_k, M_k)")
    if any(h.ndim != 2 for h in ch.taps.values()):
        raise ValueError("each link's taps must have shape (U_i, L_{k,i}): one draw")
    U, M = max(plan.U_active), max(plan.M)
    longest = max(h.shape[-1] for h in ch.taps.values())
    S = max((h.shape[-1] for (k, i), h in ch.taps.items() if k != i), default=longest)
    if K * (K - 1) * U * M * (longest - S) <= SPLIT_PADDED_TAPS:
        S = longest
    s = np.zeros((B + 1, K, U, M), dtype=complex)   # frame B sends nothing
    taps = np.zeros((K, K, U, longest), dtype=complex)
    for i in range(K):
        s[:B, i, : plan.U_active[i], : plan.M[i]] = symbols[i]
    for (k, i), h in ch.taps.items():
        taps[k, i, : plan.U_active[i], : h.shape[-1]] = h[: plan.U_active[i]]
    lagged = -s   # frame b - 1's leak, rotated, less frame b's own
    lagged[1:] += s[:B] * leakage_phase(N, cp, M)
    frames = np.zeros((K, -(-plan.T // N_bar), N_bar), dtype=complex)   # links end by T

    def add_leak(rows, resp):   # (rows, B + 1, L - 1) leaks, frame b's from frame b on
        for span, start in enumerate(range(0, resp.shape[-1], N_bar)):
            part = resp[..., start : start + N_bar]
            frames[rows, span : span + B + 1, : part.shape[-1]] += part

    gains, leak = frame_response(taps[..., :S].reshape(K, K * U, S), N, cp, M)
    add_leak(slice(None), lagged.reshape(B + 1, -1) @ leak)
    for k in range(K):
        L = ch.taps[(k, k)].shape[-1]
        if L > S:   # the desired link's taps from S on
            tail = taps[k, k, :, :L]
            tail[:, :S] = 0.0
            tail_gains, leak = frame_response(tail, N, cp, M)
            gains[k, k * U : (k + 1) * U] += tail_gains
            add_leak(k, lagged[:, k].reshape(B + 1, -1) @ leak)
    tones = (s[:B].reshape(B, K * U, M).transpose(2, 0, 1) @ gains.T).T
    frames[:, :B] += tones @ framed_precoders(N, cp, M).T
    y = frames.reshape(cfg.K, -1)[:, : plan.T]
    if rng is not None:
        # scaled out of place: z *= sqrt(0.5) gives the same bits, but took
        # simulate --trials 20 on link_large's config from 65.8 to 70.0 ms
        # (2-vCPU Xeon, BLAS unpinned, 3 of 3 rounds), for a cause not found
        z = rng.standard_normal((cfg.K, 2, plan.T)) * np.sqrt(0.5)
        y.real += z[:, 0]
        y.imag += z[:, 1]
    return y


def combine(plan, y_stream) -> np.ndarray:
    """(..., B, N - M_D) combined observations of a (..., T) stream: each
    subblock's frame of N_bar samples times spectral.combiner's W."""
    y_stream = np.asarray(y_stream)
    frames = y_stream[..., : plan.B * plan.N_bar]
    frames = frames.reshape(y_stream.shape[:-1] + (plan.B, plan.N_bar))
    return frames @ combiner(plan).T


class RankDeficientError(np.linalg.LinAlgError):
    """A channel failed the rank criterion, so its symbols cannot be separated."""


# H counts as full column rank when it has at least as many rows as columns and
# its smallest singular value exceeds RANK_TOL times its largest.
RANK_TOL = 1e-8


def zf_projection(H, what) -> np.ndarray:
    """Zero-forcing projection H^+ = V diag(1/s) U^H from one thin SVD of H.

    Raises RankDeficientError, naming what, unless H passes the RANK_TOL
    criterion.  A channel with no columns gets an empty (0, n) projection.
    """
    if H.shape[1] == 0:
        return np.zeros((0, H.shape[0]), dtype=H.dtype)
    U, s, Vh = np.linalg.svd(H, full_matrices=False)
    if s.size < H.shape[1] or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficientError("%s is numerically rank deficient" % what)
    return (Vh.conj().T / s) @ U.conj().T


@dataclass
class DecodeResult:
    """Decoded symbols of every cell."""

    s_hat: dict   # k -> (B, U'_k * M_k) detected symbols


def decode_block(cfg, plan, H, y_tilde) -> DecodeResult:
    """Detect all B subblocks with successive inter-subblock cancellation.

    H is build_structured's dict k -> effective channel and y_tilde[k] the
    (B, N - M_D) combined observations of cell k.  Every later subblock first
    cancels the previous subblock's leakage, which is -H_k times its
    estimated symbols rotated by leakage_phase phi.  Since H_k^+ H_k = I, the
    cancelled ZF estimate is s_b = z_b + phi * s_{b-1} with z_b = H_k^+ y_b,
    so each H_k is checked and inverted once by one thin SVD (zf_projection),
    and all z_b come from one matmul with its projection H_k^+.
    The recursion closes as
    s_b = phi^b * cumsum_{j<=b}(phi^-j * z_j), with phi^b = leakage_phase of a
    prefix b cp long, so that |phi^b| = 1 to round-off for any B.

    A delayed plan (L_I_d > 0) must have B = 1: the cancellation does not
    model the fold, so every later subblock would decode wrongly.
    """
    if plan.L_I_d and plan.B != 1:
        raise ValueError("delayed-ICI decoding is implemented for single-subblock frames")
    s_hat = {}
    phases = leakage_phase(plan.N, np.arange(plan.B) * plan.cp_len, plan.M_D)
    for k in range(cfg.K):
        z = y_tilde[k] @ zf_projection(H[k], "cell %d: effective channel" % k).T
        powers = np.tile(phases[:, : plan.M[k]], plan.U_active[k])
        s_hat[k] = powers * np.cumsum(powers.conj() * z, axis=0)
    return DecodeResult(s_hat=s_hat)


def simulate_link(cfg, plan, ch, symbols, noise_rng=None) -> DecodeResult:
    """Full transmit/receive/decode round trip for one channel draw.

    symbols is draw_symbols' dict k -> (B, U'_k, M_k) of (already
    power-scaled) payload symbols; the returned estimates are on the same
    scale.  Without noise_rng the link is noiseless.  decode_block raises
    ValueError for a delayed plan (L_I_d > 0) with B > 1.
    """
    H = build_structured(cfg, plan, ch)
    y = simulate_reception(cfg, plan, ch, symbols, rng=noise_rng)
    return decode_block(cfg, plan, H, combine(plan, y))
