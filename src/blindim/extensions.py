# blindim/extensions.py
"""Scenario extensions: harvesting ICI-free samples created by propagation
delay (L_D > L_I case with delayed interference arrival), and treating
late-arriving residual ICI taps as noise (L_D <= L_I case).

Both scenarios use the base scheme's receiver on a plan whose L_I_d is set:
spectral.combiner folds the leading interference-free samples onto their
positions one period later, which restores a cyclic structure on every
(considered) interfering link, and projects out the interference exactly as
in the base scheme.

Every active user sends one symbol on the constant precoder f_1, so each
column is the combiner applied to the link's spectral.frame_columns for f_1:
the running sum of its taps over the cp + N frame samples; no per-link channel
matrix is built.  Transmission, reception and detection are the base
scheme's simulate_link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, TransmissionPlan, link_lengths, require_valid
from .spectral import build_structured, combiner, frame_columns
from .transceiver import simulate_link


@dataclass(frozen=True)
class DelayProfile:
    """Tap bookkeeping for delayed / partially-cancelled interference.

    L_I_d leading ICI taps are zero due to propagation delay; taps up to
    L_I_prime are cancelled by the combiner; any taps in [L_I_prime, L_I) are
    treated as residual noise.  The L_I_d harvested samples must lie in the
    cyclic prefix of L_I_prime - 1 samples, so L_I_d < L_I_prime.
    """

    L_I_d: int        # ICI delay-offset taps (leading zeros of every cross link)
    L_I_prime: int    # considered ICI length (cyclic prefix is L_I_prime - 1)
    L_I: int          # true maximum ICI length

    def __post_init__(self):
        if not 0 <= self.L_I_d < self.L_I_prime <= self.L_I:
            raise ValueError("require 0 <= L_I_d < L_I_prime <= L_I")

    @property
    def L_I_eff(self) -> int:
        return self.L_I - self.L_I_d


def make_delayed_plan(cfg, dp: DelayProfile) -> TransmissionPlan:
    """Transmission plan for the two-stage receiver.

    The cyclic prefix shrinks to L_I_prime - 1 and every active user sends a
    single symbol on the common precoder f_1; harvesting the L_I_d
    interference-free samples (the plan's L_I_d, which the combiner folds)
    lets (L_kk - L_I_prime)^+ + L_I_d users per cell be active, but never
    more than the N - M_D = N - 1 rows the combiner observes.  Raises ConfigError when a cross link
    is longer than dp.L_I, which sets the block length.
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
        U_active.append(min(cfg.users_per_cell[k], budget, N - 1))
        M.append(1 if U_active[-1] > 0 else 0)
    N_bar = N + dp.L_I_prime - 1
    T = cfg.subblocks * N_bar + max(L_D, dp.L_I) - 1
    return TransmissionPlan(
        K=cfg.K, B=cfg.subblocks, U_active=tuple(U_active), M=tuple(M),
        M_D=max(M), L_D=L_D, L_I=dp.L_I_prime, N=N, N_bar=N_bar,
        cp_len=dp.L_I_prime - 1, T=T, L_I_d=dp.L_I_d,
    )


def delayed_effective_channels(cfg, dplan, dp: DelayProfile, ch, cells=None):
    """Per-cell enlarged effective channel and residual-interference columns.

    Returns (W, H, H_int) with W = spectral.combiner(dplan) and, for each
    requested cell k (all cells when cells is None), H[k] from
    build_structured: one column per active desired user, W times its
    received frame for f_1.  H_int[k] stacks the same construction for every
    active user of each cross link longer than L_I_prime, using only its
    residual taps ell >= L_I_prime.  Leading axes of the taps carry through:
    (..., N - M_D, columns).
    """
    if cells is None:
        cells = range(cfg.K)
    W = combiner(dplan)
    H = build_structured(cfg, dplan, ch, cells)
    H_int = {}
    for k in cells:
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
        H_int[k] = W @ frame_columns(h, dplan.N, dplan.cp_len, 1)
    return W, H, H_int


def decode_delayed_ici(cfg, dplan, ch, dp: DelayProfile, symbols,
                       noise_rng=None, noise_var=0.0):
    """Two-stage receive and zero-forcing detection of single-subblock frames.

    symbols is a dict k -> length-U'_k vector of (power-scaled) payload
    symbols, one per active user.  The link runs through
    transceiver.simulate_link on the delayed plan, whose combiner folds and
    projects each cell's stream; it raises RankDeficientError on a
    rank-deficient effective channel.  dp is not read: the plan carries L_I_d.
    """
    if dplan.B != 1:
        raise ValueError("delayed-ICI decoding is implemented for single-subblock frames")
    symbols = {k: np.reshape(symbols[k], (1, dplan.U_active[k], dplan.M[k]))
               for k in range(cfg.K)}
    return simulate_link(cfg, dplan, ch, symbols, noise_rng=noise_rng, noise_var=noise_var)


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
    W, H, H_int = delayed_effective_channels(cfg, dplan, dp, ch, cells=cells)
    noise_cov = noise_var * (W @ W.conj().T)
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
