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
    (the first M_k IDFT columns), the cyclic prefix copies its last L_I - 1
    samples, and max(L_D, L_I) - 1 trailing zeros flush the channel memory.
    """
    symbols = np.asarray(symbols)
    if symbols.shape != (plan.B, plan.U_active[k], plan.M[k]):
        raise ValueError(
            "expected symbols of shape %r, got %r"
            % ((plan.B, plan.U_active[k], plan.M[k]), symbols.shape)
        )
    F = idft_basis(plan.N)[:, : plan.M[k]]
    out = np.zeros((plan.U_active[k], plan.T), dtype=complex)
    for u in range(plan.U_active[k]):
        for b in range(plan.B):
            core = F @ symbols[b, u]
            start = b * plan.N_bar
            if plan.cp_len > 0:
                out[u, start : start + plan.cp_len] = core[-plan.cp_len :]
            out[u, start + plan.cp_len : start + plan.N_bar] = core
    return out


def simulate_reception(cfg, plan, ch, tx, rng=None, noise_var=0.0) -> np.ndarray:
    """Per-BS received streams y_k[n] = sum_i sum_u (h * x_{i,u})[n] + z_k[n].

    tx is a dict i -> (U'_i, T) array of transmitted blocks.  Returns (K, T).
    """
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


def remove_cp_and_stack(plan, y_stream, b) -> np.ndarray:
    """Core samples of subblock b (1-based) after discarding the cyclic prefix."""
    if not 1 <= b <= plan.B:
        raise ValueError("subblock index out of range: %d" % b)
    start = (b - 1) * plan.N_bar
    return y_stream[start + plan.cp_len : start + plan.N_bar]


def combiner(plan) -> np.ndarray:
    """Projection W = [f_{M_D+1}, ..., f_N]^H nulling the ICI-bearing directions."""
    F = idft_basis(plan.N)
    return F[:, plan.M_D :].conj().T


def combine(plan, y_bar) -> np.ndarray:
    return combiner(plan) @ y_bar


def detect_zf(H, y) -> np.ndarray:
    """Least-squares (zero-forcing) estimate; rejects rank-deficient channels."""
    H = np.asarray(H)
    sv = np.linalg.svd(H, compute_uv=False)
    if H.shape[1] == 0:
        return np.zeros(0, dtype=complex)
    if sv.size == 0 or sv[-1] <= 1e-8 * sv[0]:
        raise np.linalg.LinAlgError("effective channel is numerically rank deficient")
    est, *_ = np.linalg.lstsq(H, y, rcond=None)
    return est


@dataclass
class DecodeResult:
    """Decoded symbols of every cell."""

    s_hat: dict   # k -> (B, U'_k * M_k) detected symbols


def decode_block(cfg, plan, H, y_tilde, genie_symbols=None) -> DecodeResult:
    """Detect all B subblocks with successive inter-subblock cancellation.

    H is build_structured's dict k -> effective channel and y_tilde a dict
    k -> (B, N - M_D) of combined observations.  Subblock 1 is detected
    directly; every later subblock first cancels the previous subblock's
    leakage, which is -H_k times its symbols rotated by leakage_phase (the
    true symbols when genie_symbols is supplied, to isolate error propagation).
    """
    s_hat = {}
    for k in range(cfg.K):
        width = plan.U_active[k] * plan.M[k]
        phase = np.tile(leakage_phase(plan.N, plan.cp_len, plan.M[k]), plan.U_active[k])
        out = np.zeros((plan.B, width), dtype=complex)
        for b in range(plan.B):
            obs = np.array(y_tilde[k][b])
            if b > 0:
                prev = genie_symbols[k][b - 1] if genie_symbols is not None else out[b - 1]
                obs = obs + H[k] @ (phase * prev)
            out[b] = detect_zf(H[k], obs)
        s_hat[k] = out
    return DecodeResult(s_hat=s_hat)


def simulate_link(cfg, plan, ch, symbols, noise_rng=None, noise_var=0.0) -> DecodeResult:
    """Full transmit/receive/decode round trip for one channel realization.

    symbols is a dict k -> (B, U'_k, M_k) of (already power-scaled) payload
    symbols; the returned estimates are on the same scale.
    """
    H = build_structured(cfg, plan, ch)
    tx = {k: precode_and_frame(plan, k, symbols[k]) for k in range(cfg.K)}
    y = simulate_reception(cfg, plan, ch, tx, rng=noise_rng, noise_var=noise_var)
    y_tilde = {}
    for k in range(cfg.K):
        rows = [combine(plan, remove_cp_and_stack(plan, y[k], b)) for b in range(1, plan.B + 1)]
        y_tilde[k] = np.array(rows)
    return decode_block(cfg, plan, H, y_tilde)
