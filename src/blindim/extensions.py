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
column is spectral.projected_response for f_1: the combiner applied to the
link's spectral.frame_response, as for the base scheme's H_k; no per-link
channel matrix is built.  delayed_effective_channels and
rate_with_residual_ici serve one cell k and read only the links into it.
Transmission, reception and detection are the base scheme's simulate_link.
"""

from __future__ import annotations

import numpy as np

from .model import ConfigError, TransmissionPlan, link_lengths, require_valid
from .spectral import combiner, projected_response


def make_delayed_plan(cfg, L_I_d, L_I_prime) -> TransmissionPlan:
    """Transmission plan for the two-stage receiver.

    The L_I_d leading taps of every cross link are zero (propagation delay),
    the combiner cancels taps up to L_I_prime, the plan's L_I, and the taps
    in [L_I_prime, L_I) of the config's longest cross link are residual
    noise.  Every active user sends one symbol on f_1 behind a prefix of
    L_I_prime - 1 samples, which holds the L_I_d harvested samples that the
    combiner folds: (L_kk - L_I_prime)^+ + L_I_d users per cell are active,
    but never more than the N - M_D = N - 1 rows the combiner observes.
    Raises ConfigError unless 0 <= L_I_d < L_I_prime <= L_I.
    """
    require_valid(cfg)
    L_D, L_I = link_lengths(cfg)
    if not 0 <= L_I_d < L_I_prime <= L_I:
        raise ConfigError(["require 0 <= L_I_d < L_I_prime <= L_I (got %d, %d, %d)"
                           % (L_I_d, L_I_prime, L_I)])
    N = max(L_D - L_I_prime + 1, L_I_prime)
    U_active = tuple(min(U, max(cfg.cir_len[k][k] - L_I_prime, 0) + L_I_d, N - 1)
                     for k, U in enumerate(cfg.users_per_cell))
    T = cfg.subblocks * (N + L_I_prime - 1) + max(L_D, L_I) - 1
    return TransmissionPlan(
        K=cfg.K, B=cfg.subblocks, U_active=U_active, M=tuple(int(U > 0) for U in U_active),
        L_D=L_D, L_I=L_I_prime, N=N, T=T, L_I_d=L_I_d,
    )


def delayed_effective_channels(cfg, dplan, ch, k):
    """Enlarged effective channel and residual-interference columns of cell k.

    Returns (H_k, H_int_k).  H_k is spectral.projected_response of cell k's
    own links: one column per active desired user, spectral.combiner(dplan)
    times its received frame for f_1.  H_int_k stacks the same construction
    for every active user of each link into cell k longer than the plan's
    L_I (the cancelled length L_I_prime), in link order, using only its
    residual taps ell >= L_I_prime.  A realization needs only the links into
    cell k.  Leading axes of the taps carry through: (..., N - M_D, columns).
    """
    H = projected_response(dplan, ch.taps[(k, k)][..., : dplan.U_active[k], :], dplan.M[k])
    residual = [projected_response(dplan, ch.taps[(k, i)][..., : dplan.U_active[i], :], 1,
                                   first=dplan.L_I)
                for i in range(cfg.K) if i != k and cfg.cir_len[k][i] > dplan.L_I]
    # a cell with no residual link keeps a (..., rows, 0) block
    H_int = np.concatenate([np.zeros(H.shape[:-1] + (0,), dtype=complex)] + residual, axis=-1)
    return H, H_int


def _hermitian(A) -> np.ndarray:
    return np.swapaxes(A, -1, -2).conj()


def rate_with_residual_ici(cfg, dplan, ch, tx_power, noise_var, k) -> np.ndarray:
    """Achievable rate of cell k treating uncancelled late ICI taps as noise.

    Symbols carry variance N * P; the noise term keeps the coloring introduced
    by the folding stage (rows that sum two samples have doubled variance).
    With cov the noise-plus-residual-ICI covariance and A = chol(cov)^-1 H_k,
    the rate is sum log1p(lambda) / ln 2 over the eigenvalues lambda of
    N P A^H A: log det(I + cov^-1 N P H_k H_k^H) without taking the difference
    of two log-determinants, which cancels when the rate is small.  A
    realization needs only the links into cell k.  Returns (...) over the
    leading axes of the taps.

    The rate is per sample of the whole block, B / T, so it pays for the
    max(L_D, L_I) - 1 flush samples: for fig5's plan B / T = 10 / 96, which
    is 0.9375 times the 1 / N_bar that analysis.sum_rate_qr divides by.  The
    OFDMA comparator pays no flush, which tilts fig5 against this scheme.
    """
    H, H_int = delayed_effective_channels(cfg, dplan, ch, k)
    W = combiner(dplan)
    p_sym = dplan.N * tx_power
    cov = noise_var * (W @ W.conj().T) + p_sym * (H_int @ _hermitian(H_int))
    # raises LinAlgError unless cov is positive definite
    A = np.linalg.solve(np.linalg.cholesky(cov), H)
    lam = np.linalg.eigvalsh(p_sym * (_hermitian(A) @ A))
    return dplan.B / dplan.T * np.log1p(lam).sum(axis=-1) / np.log(2.0)
