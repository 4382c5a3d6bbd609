# blindim/transceiver.py
"""End-to-end chain: precode, frame with cyclic prefix, receive by convolution,
combine every frame with spectral.combiner's W (which drops or folds the
cyclic prefix and projects out inter-cell interference), and decode with
successive inter-subblock interference cancellation.

Power convention: sigma^2 = 1 and P = rho (the linear SNR), so every
transmitted sample satisfies E|x[n]|^2 = P when symbols carry variance
N*P/M_k.  The effective per-stream SNR after combining is then N*rho/M_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import build_structured, combiner, framed_precoders, leakage_phase

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def symbol_scale(plan, k, snr_linear) -> float:
    """Std-dev of one data symbol so per-sample transmit power equals P."""
    return float(np.sqrt(plan.N * snr_linear / plan.M[k]))


def draw_symbols(cfg, plan, rng) -> dict:
    """Random unit-variance payload symbols, scaled to the power budget of
    the config's SNR.

    Returns a dict k -> array of shape (B, U'_k, M_k).
    """
    out = {}
    for k in range(cfg.K):
        shape = (plan.B, plan.U_active[k], plan.M[k])
        if cfg.symbol_model == "qpsk":
            s = rng.choice(QPSK, size=shape)
        else:
            s = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        out[k] = s * symbol_scale(plan, k, cfg.snr_linear) if plan.M[k] > 0 else s
    return out


def precode_and_frame(plan, k, symbols) -> np.ndarray:
    """Frame one cell's symbols into per-user length-T blocks.

    symbols has shape (B, U'_k, M_k).  Each subblock frame is the
    cyclic-prefixed precoders spectral.framed_precoders times the symbols:
    the core x_bar = F_k s (the first M_k IDFT columns) after a prefix of its
    last L_I - 1 samples.  max(L_D, L_I) - 1 trailing zeros flush the channel
    memory.
    """
    symbols = np.asarray(symbols)
    if symbols.shape != (plan.B, plan.U_active[k], plan.M[k]):
        raise ValueError(
            "expected symbols of shape %r, got %r"
            % ((plan.B, plan.U_active[k], plan.M[k]), symbols.shape)
        )
    U = plan.U_active[k]
    out = np.zeros((U, plan.T), dtype=complex)
    # (U, B, N_bar) view of the frames: each subblock written in place
    frames = out[:, : plan.B * plan.N_bar].reshape(U, plan.B, plan.N_bar)
    precoders = framed_precoders(plan.N, plan.cp_len, plan.M[k])
    np.matmul(symbols.transpose(1, 0, 2), precoders.T, out=frames)
    return out


def simulate_reception(cfg, plan, ch, tx, rng=None, noise_var=0.0) -> np.ndarray:
    """Per-BS received streams y_k[n] = sum_i sum_u (h * x_{i,u})[n] + z_k[n].

    tx is a dict i -> (U'_i, T) array of transmitted blocks; cells with no
    active user send nothing and may be left out.  Returns (K, T).  Each link
    (k, i) is one product h^T x of its (U'_i, L_{k,i}) taps and cell i's
    blocks, whose row l is added to y_k l samples late: cell i costs
    sum_k L_{k,i} U'_i T multiply-adds.
    """
    T = plan.T
    y = np.zeros((cfg.K, T), dtype=complex)
    for (k, i), taps in ch.taps.items():
        U = plan.U_active[i]
        if U == 0:
            continue
        lagged = taps[:U].T @ tx[i][:U]
        for l, row in enumerate(lagged):
            y[k, l:] += row[: T - l]
    if noise_var > 0:
        z = rng.standard_normal((cfg.K, 2, T)) * np.sqrt(noise_var / 2.0)
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


def decode_block(cfg, plan, H, y_tilde, genie_symbols=None) -> DecodeResult:
    """Detect all B subblocks with successive inter-subblock cancellation.

    H is build_structured's dict k -> effective channel and y_tilde[k] the
    (B, N - M_D) combined observations of cell k.  Every later subblock first
    cancels the previous subblock's leakage, which is -H_k times its symbols
    rotated by leakage_phase phi (the true symbols when genie_symbols is
    supplied, to isolate error propagation).  Since H_k^+ H_k = I, the
    cancelled ZF estimate is s_b = z_b + phi * s_{b-1} with z_b = H_k^+ y_b,
    so each H_k is checked and inverted once by one thin SVD (zf_projection),
    and all z_b come from one matmul with its projection H_k^+.
    The recursion closes as
    s_b = phi^b * cumsum_{j<=b}(phi^-j * z_j), with phi^b = leakage_phase of a
    prefix b cp long, so that |phi^b| = 1 to round-off for any B.
    """
    s_hat = {}
    for k in range(cfg.K):
        z = y_tilde[k] @ zf_projection(H[k], "cell %d: effective channel" % k).T
        if genie_symbols is not None:
            phase = np.tile(leakage_phase(plan.N, plan.cp_len, plan.M[k]), plan.U_active[k])
            z[1:] += phase * genie_symbols[k][:-1]
        else:
            powers = leakage_phase(plan.N, np.arange(plan.B) * plan.cp_len, plan.M[k])
            powers = np.tile(powers, plan.U_active[k])
            z = powers * np.cumsum(powers.conj() * z, axis=0)
        s_hat[k] = z
    return DecodeResult(s_hat=s_hat)


def simulate_link(cfg, plan, ch, symbols, noise_rng=None, noise_var=0.0) -> DecodeResult:
    """Full transmit/receive/decode round trip for one channel realization.

    symbols is a dict k -> (B, U'_k, M_k) of (already power-scaled) payload
    symbols; the returned estimates are on the same scale.  A delayed plan
    (L_I_d > 0) must have B = 1: the subblock cancellation does not model
    the fold, so every later subblock would decode wrongly.
    """
    if plan.L_I_d and plan.B != 1:
        raise ValueError("delayed-ICI decoding is implemented for single-subblock frames")
    H = build_structured(cfg, plan, ch)
    tx = {k: precode_and_frame(plan, k, symbols[k]) for k in range(cfg.K)}
    y = simulate_reception(cfg, plan, ch, tx, rng=noise_rng, noise_var=noise_var)
    return decode_block(cfg, plan, H, combine(plan, y))
