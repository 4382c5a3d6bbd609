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
    Each transmitting cell i is one time-domain convolution for all base
    stations and users: tap l of every link (k, i, u) is a matrix applied to
    the blocks delayed by l samples.  Its rows, and the rows of the streams
    it adds into, are the base stations sorted by L_{k,i}, longest first, so
    the links that still have a tap at lag l are a prefix of them and cell i
    costs sum_k L_{k,i} U'_i T multiply-adds, not K max_k L_{k,i} U'_i T.
    """
    T = plan.T
    y = np.zeros((cfg.K, T), dtype=complex)
    rows = np.arange(cfg.K)   # the base station whose stream each row of y holds
    for i in range(cfg.K):
        U = plan.U_active[i]
        if U == 0:
            continue
        h = [ch.taps[(k, i)][:U] for k in range(cfg.K)]
        lengths = np.array([hk.shape[-1] for hk in h])
        order = np.argsort(-lengths, kind="stable")
        taps = np.zeros((lengths.max(), cfg.K, U), dtype=complex)
        for row, k in enumerate(order):
            taps[: lengths[k], row] = h[k].T
        live = np.count_nonzero(lengths > np.arange(lengths.max())[:, None], axis=1)
        y = y[np.argsort(rows)[order]]
        rows = order
        x = tx[i][:U]
        for l, n in enumerate(live):
            y[:n, l:] += (taps[l, :n] @ x)[:, : T - l]
    y = y[np.argsort(rows)]
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
    s_b = phi^b * cumsum_{j<=b}(phi^-j * z_j), with phi^b = w^((m cp b) mod N)
    taken from its integer exponent so that |phi^b| = 1 to round-off for any B.
    """
    s_hat = {}
    for k in range(cfg.K):
        z = y_tilde[k] @ zf_projection(H[k], "cell %d: effective channel" % k).T
        if genie_symbols is not None:
            phase = np.tile(leakage_phase(plan.N, plan.cp_len, plan.M[k]), plan.U_active[k])
            z[1:] += phase * genie_symbols[k][:-1]
        else:
            exponent = np.outer(np.arange(plan.B), np.arange(plan.M[k]) * plan.cp_len) % plan.N
            powers = np.tile(np.exp(2j * np.pi * exponent / plan.N), plan.U_active[k])
            z = powers * np.cumsum(powers.conj() * z, axis=0)
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
