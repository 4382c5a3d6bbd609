# blindim/extensions.py
"""Scenario extensions: harvesting ICI-free samples created by propagation
delay (L_D > L_I case with delayed interference arrival), and treating
late-arriving residual ICI taps as noise (L_D <= L_I case).

Both scenarios share a two-stage receiver: a 0/1 folding matrix W1 restores a
cyclic structure on every (considered) interfering link by adding the leading
interference-free samples onto their positions one period later, and the IDFT
row projector W2 then nulls the interference exactly as in the base scheme.

Every active user sends one symbol on the constant precoder f_1, so each
per-link column is W2 W1 applied to the link's spectral.frame_columns for f_1:
the running sum of its taps over the cp + N frame samples; no per-link channel
matrix is built.  Transmission and reception reuse the base scheme's framing
and convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, TransmissionPlan, link_lengths, require_valid
from .spectral import frame_columns, idft_basis
from .transceiver import decode_block, precode_and_frame, simulate_reception


@dataclass(frozen=True)
class DelayProfile:
    """Tap bookkeeping for delayed / partially-cancelled interference.

    L_I_d leading ICI taps are zero due to propagation delay; taps up to
    L_I_prime are cancelled by the combiner; any taps in [L_I_prime, L_I) are
    treated as residual noise.
    """

    L_I_d: int        # ICI delay-offset taps (leading zeros of every cross link)
    L_I_prime: int    # considered ICI length (cyclic prefix is L_I_prime - 1)
    L_I: int          # true maximum ICI length

    def __post_init__(self):
        if not 0 <= self.L_I_d <= self.L_I_prime <= self.L_I:
            raise ValueError("require 0 <= L_I_d <= L_I_prime <= L_I")

    @property
    def L_I_eff(self) -> int:
        return self.L_I - self.L_I_d


@dataclass
class TwoStageCombiner:
    W1: np.ndarray    # N x (cp + N) 0/1 folding matrix
    W2: np.ndarray    # (N - M_D) x N IDFT-row projector


def build_two_stage_combiner(N, L_D, L_I_prime, L_I_d, M_D=1) -> TwoStageCombiner:
    """First-stage fold plus second-stage projection.

    W1 selects the N core samples after the cyclic prefix of length
    cp = L_I_prime - 1 and additionally adds each of the L_I_d
    interference-free leading samples onto the sample one core period later.
    """
    cp = L_I_prime - 1
    if L_I_d > max(cp, 0):
        raise ValueError("no valid fold: L_I_d exceeds the cyclic prefix length")
    W1 = np.zeros((N, cp + N))
    W1[np.arange(N), cp + np.arange(N)] = 1.0
    for j in range(L_I_d):   # none to harvest when L_I_d < 1: plain CP removal
        row = j + N - cp
        if not 0 <= row < N:
            raise ValueError("no valid fold: harvested sample lands outside the core")
        W1[row, j] += 1.0
    if (W1.sum(axis=0) > 1).any():
        raise ValueError("no valid fold: overlapping assignments")
    return TwoStageCombiner(W1=W1, W2=idft_basis(N)[:, M_D:].conj().T)


def make_delayed_plan(cfg, dp: DelayProfile) -> TransmissionPlan:
    """Transmission plan for the two-stage receiver.

    The cyclic prefix shrinks to L_I_prime - 1 and every active user sends a
    single symbol on the common precoder f_1; harvesting the L_I_d
    interference-free samples lets (L_kk - L_I_prime)^+ + L_I_d users per cell
    be active.  Raises ConfigError when a cross link is longer than dp.L_I,
    which sets the block length.
    """
    require_valid(cfg)
    too_long = ["cross link (k=%d, i=%d) has L=%d taps, more than the delay profile's L_I=%d"
                % (k, i, cfg.cir_len[k][i], dp.L_I)
                for k in range(cfg.K) for i in range(cfg.K)
                if i != k and cfg.cir_len[k][i] > dp.L_I]
    if too_long:
        raise ConfigError(too_long)
    L_D, _ = link_lengths(cfg)
    N = max(L_D - dp.L_I_prime + 1, dp.L_I_prime)
    U_active = []
    M = []
    for k in range(cfg.K):
        budget = max(cfg.cir_len[k][k] - dp.L_I_prime, 0) + dp.L_I_d
        U_active.append(min(cfg.users_per_cell[k], budget))
        M.append(1 if U_active[-1] > 0 else 0)
    N_bar = N + dp.L_I_prime - 1
    T = cfg.subblocks * N_bar + max(L_D, dp.L_I) - 1
    return TransmissionPlan(
        K=cfg.K, B=cfg.subblocks, U_active=tuple(U_active), M=tuple(M),
        M_D=max(M), L_D=L_D, L_I=dp.L_I_prime, N=N, N_bar=N_bar,
        cp_len=dp.L_I_prime - 1, T=T,
    )


# ---------------------------------------------------------------------------
# Per-link columns seen through the two-stage receiver
# ---------------------------------------------------------------------------

def _f1_columns(comb, dplan, taps) -> np.ndarray:
    """W2 W1 times the received frame of a unit symbol on f_1, one column per
    tap row of the (..., rows, L) taps."""
    return (comb.W2 @ comb.W1) @ frame_columns(taps, dplan.N, dplan.cp_len, 1)


def delayed_effective_channels(cfg, dplan, dp: DelayProfile, ch, cells=None):
    """Per-cell enlarged effective channel and residual-interference columns.

    Returns (comb, H, H_int) for each requested cell k (all cells when cells
    is None): H[k] has one column per active desired user (W2 W1 times its
    received frame for f_1) and H_int[k] stacks the same construction for
    every active user of each cross link longer than L_I_prime, using only its
    residual taps ell >= L_I_prime.  Leading axes of the taps carry through:
    (..., N - M_D, columns).
    """
    comb = build_two_stage_combiner(dplan.N, dplan.L_D, dp.L_I_prime, dp.L_I_d)
    if cells is None:
        cells = range(cfg.K)
    H = {}
    H_int = {}
    for k in cells:
        H[k] = _f1_columns(comb, dplan, ch.taps[(k, k)][..., : dplan.U_active[k], :])
        links = [i for i in range(cfg.K) if i != k and cfg.cir_len[k][i] > dp.L_I_prime]
        width = max((ch.taps[(k, i)].shape[-1] for i in links), default=0)
        h = np.zeros(H[k].shape[:-2] + (sum(dplan.U_active[i] for i in links), width),
                     dtype=complex)
        row = 0
        for i in links:
            U = dplan.U_active[i]
            taps = ch.taps[(k, i)][..., :U, dp.L_I_prime :]
            # considered taps (ell < L_I_prime) stay exactly zero
            h[..., row : row + U, dp.L_I_prime : dp.L_I_prime + taps.shape[-1]] = taps
            row += U
        H_int[k] = _f1_columns(comb, dplan, h)
    return comb, H, H_int


def decode_delayed_ici(cfg, dplan, ch, dp: DelayProfile, symbols,
                       noise_rng=None, noise_var=0.0):
    """Two-stage receive and zero-forcing detection of single-subblock frames.

    symbols is a dict k -> length-U'_k vector of (power-scaled) payload
    symbols, one per active user.  Each cell's stream is folded and combined
    by W2 W1 into one (1, N - M_D) row for transceiver.decode_block, which
    raises RankDeficientError on a rank-deficient effective channel.
    """
    if dplan.B != 1:
        raise ValueError("delayed-ICI decoding is implemented for single-subblock frames")
    comb, H, _ = delayed_effective_channels(cfg, dplan, dp, ch)
    tx = {
        i: precode_and_frame(dplan, i, np.reshape(symbols[i], (1, dplan.U_active[i], dplan.M[i])))
        for i in range(cfg.K)
    }
    y = simulate_reception(cfg, dplan, ch, tx, rng=noise_rng, noise_var=noise_var)
    y_tilde = (y[:, : dplan.cp_len + dplan.N] @ (comb.W2 @ comb.W1).T)[:, None, :]
    return decode_block(cfg, dplan, H, y_tilde)


def _hermitian(A) -> np.ndarray:
    return np.swapaxes(A, -1, -2).conj()


def rate_with_residual_ici(cfg, dplan, dp: DelayProfile, ch, tx_power, noise_var,
                           cells=None) -> np.ndarray:
    """Per-cell achievable rate treating uncancelled late ICI taps as noise.

    Symbols carry variance N * P; the noise term keeps the coloring introduced
    by the folding stage (rows that sum two samples have doubled variance).
    With cov the noise-plus-residual-ICI covariance and A = chol(cov)^-1 H,
    the rate is sum log1p(lambda) / ln 2 over the eigenvalues lambda of
    N P A^H A: log det(I + cov^-1 N P H H^H) without taking the difference of
    two log-determinants, which cancels when the rate is small.  A
    realization needs only the links into the requested cells.  Returns
    (..., K) over the leading axes of the taps; cells not requested read 0.
    """
    if cells is None:
        cells = range(cfg.K)
    comb, H, H_int = delayed_effective_channels(cfg, dplan, dp, ch, cells=cells)
    W21 = comb.W2 @ comb.W1
    noise_cov = noise_var * (W21 @ W21.conj().T)
    p_sym = dplan.N * tx_power
    prefactor = dplan.B / dplan.T
    out = np.zeros(ch.taps[(0, 0)].shape[:-2] + (cfg.K,))
    for k in cells:
        cov = noise_cov + p_sym * (H_int[k] @ _hermitian(H_int[k]))
        # raises LinAlgError unless cov is positive definite
        A = np.linalg.solve(np.linalg.cholesky(cov), H[k])
        lam = np.linalg.eigvalsh(p_sym * (_hermitian(A) @ A))
        out[..., k] = prefactor * np.log1p(lam).sum(axis=-1) / np.log(2.0)
    return out
