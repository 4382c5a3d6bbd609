# blindim/transceiver.py
"""End-to-end chain: precode, frame with cyclic prefix, receive by convolution,
project out inter-cell interference, and decode with successive inter-subblock
interference cancellation.

Power convention: sigma^2 = 1 and P = rho (the linear SNR), so every
transmitted sample satisfies E|x[n]|^2 = P when symbols carry variance
N*P/M_k.  The effective per-stream SNR after combining is then N*rho/M_k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .analysis import qr_positive
from .spectral import build_structured, idft_basis, leakage_phase

QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)


def symbol_scale(plan, k, snr_linear) -> float:
    """Std-dev of one data symbol so per-sample transmit power equals P."""
    return float(np.sqrt(plan.N * snr_linear / plan.M[k]))


def draw_symbols(cfg, plan, rng, snr_linear=None) -> dict:
    """Random unit-variance payload symbols, scaled to the power budget.

    Returns a dict k -> array of shape (B, U'_k, M_k).
    """
    if snr_linear is None:
        snr_linear = cfg.snr_linear
    out = {}
    for k in range(cfg.K):
        shape = (plan.B, plan.U_active[k], plan.M[k])
        if cfg.symbol_model == "qpsk":
            s = rng.choice(QPSK, size=shape)
        else:
            s = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        out[k] = s * symbol_scale(plan, k, snr_linear) if plan.M[k] > 0 else s
    return out


def precode_and_frame(plan, k, symbols) -> np.ndarray:
    """Frame one cell's symbols into per-user length-T blocks.

    symbols has shape (B, U'_k, M_k).  Each subblock core is x_bar = F_k s
    (the first M_k IDFT columns, applied as a unitary IFFT of the zero-padded
    symbols), the cyclic prefix copies its last L_I - 1 samples, and
    max(L_D, L_I) - 1 trailing zeros flush the channel memory.
    """
    symbols = np.asarray(symbols)
    if symbols.shape != (plan.B, plan.U_active[k], plan.M[k]):
        raise ValueError(
            "expected symbols of shape %r, got %r"
            % ((plan.B, plan.U_active[k], plan.M[k]), symbols.shape)
        )
    N, cp, U = plan.N, plan.cp_len, plan.U_active[k]
    padded = np.zeros((U, plan.B, N), dtype=complex)
    padded[:, :, : plan.M[k]] = symbols.transpose(1, 0, 2)
    core = np.fft.ifft(padded, axis=-1, norm="ortho")
    frames = np.concatenate([core[:, :, N - cp :], core], axis=-1)
    out = np.zeros((U, plan.T), dtype=complex)
    out[:, : plan.B * plan.N_bar] = frames.reshape(U, plan.B * plan.N_bar)
    return out


def simulate_reception(cfg, plan, ch, tx, rng=None, noise_var=0.0) -> np.ndarray:
    """Per-BS received streams y_k[n] = sum_i sum_u (h * x_{i,u})[n] + z_k[n].

    tx is a dict i -> (U'_i, T) array of transmitted blocks.  Returns (K, T).
    Each transmitting cell i is one convolution for all base stations and
    users: tap l of every link (k, i, u) is a K x U'_i matrix applied to the
    blocks delayed by l samples.
    """
    T = plan.T
    y = np.zeros((cfg.K, T), dtype=complex)
    for i in range(cfg.K):
        U = plan.U_active[i]
        L = max(cfg.cir_len[k][i] for k in range(cfg.K))
        taps = np.zeros((L, cfg.K, U), dtype=complex)
        for k in range(cfg.K):
            h = ch.taps[(k, i)][:U]
            taps[: h.shape[1], k] = h.T
        x = tx[i][:U]
        for l in range(L):
            y[:, l:] += (taps[l] @ x)[:, : T - l]
    if noise_var > 0:
        z = rng.standard_normal((cfg.K, 2, T)) * np.sqrt(noise_var / 2.0)
        y.real += z[:, 0]
        y.imag += z[:, 1]
    return y


def remove_cp_and_stack(plan, y_stream) -> np.ndarray:
    """Core samples of all B subblocks after discarding each cyclic prefix.

    y_stream has shape (..., T); returns (..., B, N), row b - 1 holding
    subblock b.
    """
    y_stream = np.asarray(y_stream)
    frames = y_stream[..., : plan.B * plan.N_bar]
    return frames.reshape(y_stream.shape[:-1] + (plan.B, plan.N_bar))[..., plan.cp_len :]


def combiner(plan) -> np.ndarray:
    """Projection W = [f_{M_D+1}, ..., f_N]^H nulling the ICI-bearing directions."""
    F = idft_basis(plan.N)
    return F[:, plan.M_D :].conj().T


def combine(plan, y_bar) -> np.ndarray:
    """W applied along the last axis: rows M_D: of the unitary DFT of each core."""
    return np.fft.fft(y_bar, axis=-1, norm="ortho")[..., plan.M_D :]


class RankDeficientError(np.linalg.LinAlgError):
    """A channel failed the rank criterion, so its symbols cannot be separated."""


def _require_full_rank(H, what) -> None:
    """Reject a channel whose smallest singular value is <= 1e-8 times its largest."""
    if H.shape[1] == 0:
        return
    sv = np.linalg.svd(H, compute_uv=False)
    if sv.size == 0 or sv[-1] <= 1e-8 * sv[0]:
        raise RankDeficientError("%s is numerically rank deficient" % what)


@dataclass
class DecodeResult:
    """Decoded symbols of every cell."""

    s_hat: dict   # k -> (B, U'_k * M_k) detected symbols


def decode_block(cfg, plan, H, y_tilde, genie_symbols=None) -> DecodeResult:
    """Detect all B subblocks with successive inter-subblock cancellation.

    H is build_structured's dict k -> effective channel and y_tilde[k] the
    (B, N - M_D) combined observations of cell k.  Every later subblock first
    cancels the previous subblock's leakage, which is -H_k times its symbols
    rotated by leakage_phase (the true symbols when genie_symbols is supplied,
    to isolate error propagation).  Since H_k^+ H_k = I, the cancelled ZF
    estimate is z_b + phase * prev with z_b = H_k^+ y_b, so each H_k is
    factored once (analysis.qr_positive) and all z_b come from one triangular
    solve.
    """
    s_hat = {}
    for k in range(cfg.K):
        _require_full_rank(H[k], "cell %d: effective channel" % k)
        Q, R = qr_positive(H[k])
        z = scipy.linalg.solve_triangular(R, Q.conj().T @ np.transpose(y_tilde[k])).T
        phase = np.tile(leakage_phase(plan.N, plan.cp_len, plan.M[k]), plan.U_active[k])
        if genie_symbols is not None:
            z[1:] += phase * genie_symbols[k][:-1]
        else:
            for b in range(1, plan.B):
                z[b] += phase * z[b - 1]
        s_hat[k] = z
    return DecodeResult(s_hat=s_hat)


def simulate_link(cfg, plan, ch, symbols, noise_rng=None, noise_var=0.0) -> DecodeResult:
    """Full transmit/receive/decode round trip for one channel realization.

    symbols is a dict k -> (B, U'_k, M_k) of (already power-scaled) payload
    symbols; the returned estimates are on the same scale.
    """
    H = build_structured(cfg, plan, ch)
    tx = {k: precode_and_frame(plan, k, symbols[k]) for k in range(cfg.K)}
    y = simulate_reception(cfg, plan, ch, tx, rng=noise_rng, noise_var=noise_var)
    y_tilde = combine(plan, remove_cp_and_stack(plan, y))
    return decode_block(cfg, plan, H, y_tilde)
