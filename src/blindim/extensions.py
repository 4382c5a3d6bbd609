# blindim/extensions.py
"""Scenario extensions: harvesting ICI-free samples created by propagation
delay (L_D > L_I case with delayed interference arrival), and treating
late-arriving residual ICI taps as noise (L_D <= L_I case).

Both scenarios use the base scheme's receiver on a plan whose L_I_d is set:
spectral.combiner folds the leading interference-free samples onto their
positions one period later, which restores a cyclic structure on every
(considered) interfering link, and projects out the interference exactly as
in the base scheme.  Every active user sends one symbol on the constant
precoder f_1.  delayed_effective_channels and rate_with_residual_ici serve
one cell k and read only the links into it.  Transmission, reception and
detection are the base scheme's simulate_link, which decodes a plan with
L_I_d > 0 only at B = 1.
"""

from __future__ import annotations

import numpy as np

from .model import ConfigError, TransmissionPlan, _integral, link_lengths
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
    Raises ConfigError unless L_I_d and L_I_prime are integers (numpy's too)
    or integral reals, and 0 <= L_I_d < L_I_prime <= L_I.
    """
    L_D, L_I = link_lengths(cfg)
    L_I_d, L_I_prime = _integral(L_I_d), _integral(L_I_prime)
    integers = isinstance(L_I_d, int) and isinstance(L_I_prime, int)
    if not (integers and 0 <= L_I_d < L_I_prime <= L_I):
        raise ConfigError(["require integers 0 <= L_I_d < L_I_prime <= L_I (got %r, %r, %d)"
                           % (L_I_d, L_I_prime, L_I)])
    N = max(L_D - L_I_prime + 1, L_I_prime)
    U_active = tuple(min(U, max(cfg.cir_len[k][k] - L_I_prime, 0) + L_I_d, N - 1)
                     for k, U in enumerate(cfg.users_per_cell))
    T = cfg.subblocks * (N + L_I_prime - 1) + max(L_D, L_I) - 1
    return TransmissionPlan(
        B=cfg.subblocks, U_active=U_active, M=tuple(int(U > 0) for U in U_active),
        L_D=L_D, L_I=L_I_prime, N=N, T=T, L_I_d=L_I_d,
    )


def delayed_effective_channels(cfg, dplan, ch, k):
    """Enlarged effective channel and residual-interference columns of cell k.

    Returns (H_k, H_int_k), (..., N - M_D, columns) over the leading axes of
    the taps: spectral.combiner(dplan) times the received frame of each
    active desired user on each precoder, then of each active user of each
    link into cell k longer than the plan's L_I (the cancelled length
    L_I_prime), in link order, on its residual taps ell >= L_I_prime alone.
    The map is linear in the taps: one spectral.projected_response call takes
    them all as the rows of one zero-padded stack.  Residual links exist only
    on a delayed plan, where M_k <= 1, so the call sends f_1 even when no
    desired user is active.
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


def _hermitian(A) -> np.ndarray:
    return np.swapaxes(A, -1, -2).conj()


def rate_with_residual_ici(cfg, dplan, ch, k) -> np.ndarray:
    """Achievable rate of cell k treating uncancelled late ICI taps as noise.

    As in the transceiver, sigma^2 = 1 and symbols carry variance N * rho,
    rho = cfg.snr_linear; the noise term keeps the coloring introduced by the
    folding stage (rows that sum two samples have doubled variance).
    With cov the noise-plus-residual-ICI covariance and A = chol(cov)^-1 H_k,
    the rate is sum log1p(lambda) / ln 2 over the eigenvalues lambda of
    N rho A^H A: log det(I + cov^-1 N rho H_k H_k^H) without taking the difference
    of two log-determinants, which cancels when the rate is small.  A
    realization needs only the links into cell k.  Returns (...) over the
    leading axes of the taps.

    The rate is per sample of the whole block, B / T, so it pays for the
    max(L_D, L_I) - 1 flush samples: for fig5's plan B / T = 10 / 96, which
    is 0.9375 times the 1 / N_bar that analysis.sum_rate_qr divides by.  The
    OFDMA comparator pays no flush, which tilts fig5 against this scheme.
    No receiver in the package decodes a delayed plan (L_I_d > 0) with
    B > 1: transceiver.decode_block refuses one.  So at fig5's B = 10 this is
    a formula, not the rate of a link that is simulated.
    """
    H, H_int = delayed_effective_channels(cfg, dplan, ch, k)
    W = combiner(dplan)
    p_sym = dplan.N * cfg.snr_linear
    cov = W @ W.conj().T + p_sym * (H_int @ _hermitian(H_int))
    # raises LinAlgError unless cov is positive definite
    A = np.linalg.solve(np.linalg.cholesky(cov), H)
    lam = np.linalg.eigvalsh(p_sym * (_hermitian(A) @ A))
    return dplan.B / dplan.T * np.log1p(lam).sum(axis=-1) / np.log(2.0)
