# blindim/verify.py
"""Executable rank machinery: the structured decomposition of the projected
desired channel, full-rank checks of the effective channel, and the supporting
rank inequalities.  All checks are numerical (SVD-based) at random points, in
line with the almost-sure nature of the underlying claims.

Every check is batched: stacked matrices share one SVD call, and every rank
counts singular values against the matrix's own largest.  run_all builds
each trial block's effective channels once for the decomposition and rank
checks; the decomposition takes one stacked product per cell.  Its two rank
lemmas read nothing of the network and cost one batched SVD each, whatever
the trial count: the Frobenius inequality on 200 zero-padded Gaussian
triples from one normal draw, and DFT-submatrix independence over every
removed run and column pick."""

from __future__ import annotations

import itertools

import numpy as np

from . import model, spectral, transceiver


RANK_TOL = transceiver.RANK_TOL
# largest relative residual check_decomposition accepts between a production
# column and its factorization
DECOMPOSITION_TOL = 1e-10
# the configuration `blindim verify` checks when given no --config
DEFAULT_CONFIG = model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)


def numerical_rank(A):
    """Rank via SVD: singular values above RANK_TOL times the matrix's largest.

    Leading axes stack matrices: the result has one rank per matrix, from one
    batched SVD.
    """
    sv = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    return (sv > RANK_TOL * sv[..., :1]).sum(axis=-1)


def _norm(x):
    """Euclidean norm over the last axis from the same BLAS dot products that
    np.linalg.norm takes of one vector, so one vector's norm equals it value
    for value."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def build_rank_factors(plan, L_kk, m) -> np.ndarray:
    """G_m of W Hbar f_m = G_m @ h_eff, h_eff = h[L_I : L_kk], for precoder
    index m (1-based) and a desired link of length L_kk: (N - M_D) x (L_kk - L_I).

    G = (1/sqrt(N)) * W * diag(d1) * E * diag(d2): d1 the N powers of w_m, d2
    a length L_kk - L_I diagonal, E an N x (L_kk - L_I) staircase of
    {0, +1, -1}: column j < N - L_I is -1 on rows 0..j, a later column +1 on
    rows j+1..N-1.  G depends only on the plan geometry, so h_eff carries all
    the randomness: the rank analysis of the effective channel reduces to a
    generic matrix with independent entries.
    """
    N, L_I = plan.N, plan.L_I
    if not 1 <= m <= plan.M_D:
        raise ValueError("precoder index m out of range")
    if L_kk <= L_I:
        raise ValueError("requires L_kk > L_I")
    w = np.exp(2j * np.pi * (m - 1) / N)
    d1 = w ** np.arange(N)
    d2 = w ** (N - L_I) * w ** (-np.arange(L_kk - L_I, dtype=float))
    r, j = np.arange(N)[:, None], np.arange(L_kk - L_I)
    E = np.where(j < N - L_I, -1 * (r <= j), 1 * (r > j))
    W = spectral.combiner(plan)[:, plan.cp_len :]
    return (W * d1) @ E @ np.diag(d2) / np.sqrt(N)


def h_eff(cfg, plan, ch, k, u) -> np.ndarray:
    """The taps beyond the cyclic-prefix reach: h[L_I .. L_kk - 1] of user u
    of cell k, or (..., users, L_kk - L_I) when u is a slice of users."""
    return ch[(k, k)][..., u, plan.L_I : cfg.cir_len[k][k]]


def check_decomposition(cfg, plan, ch, H):
    """Assert the production effective-channel column of (k, u, m) equals
    G_{m,k} h_eff_{k,u} for every (k, u, m): the frame_response closed form of
    H = spectral.build_structured(cfg, plan, ch) against the
    geometry-times-taps factorization.

    Leading axes of the taps (and of H) stack realizations.  Each cell takes
    one stacked product of its G_m against its users' h_eff, which numpy
    evaluates as the same matrix-vector product per (draw, user, m) that one
    column alone takes.  Returns (ok, report) where report lists
    (k, u, m, relative residual), the worst over the stack; ok holds when
    every residual is within DECOMPOSITION_TOL.
    """
    G = {}   # (L_kk, m) -> G_m: the factor depends only on the geometry
    report = []
    ok = True
    for k in range(cfg.K):
        L_kk, U, M = cfg.cir_len[k][k], plan.U_active[k], plan.M[k]
        if not U:   # L_kk <= L_I: no column to check
            continue
        for m in range(1, M + 1):
            if (L_kk, m) not in G:
                G[L_kk, m] = build_rank_factors(plan, L_kk, m)
        Gk = np.stack([G[L_kk, m] for m in range(1, M + 1)])
        he = h_eff(cfg, plan, ch, k, slice(U))
        rhs = (Gk @ he[..., None, :, None])[..., 0]                   # (..., U, M, rows)
        lhs = np.moveaxis(H[k].reshape(H[k].shape[:-1] + (U, M)), -3, -1)
        res = _norm(lhs - rhs) / np.maximum(_norm(lhs), 1e-300)      # (..., U, M)
        worst = res.reshape(-1, U, M).max(axis=0)
        report += [(k, u, m + 1, float(worst[u, m])) for u in range(U) for m in range(M)]
        ok = ok and not np.any(res > DECOMPOSITION_TOL)
    return ok, report


def run_all(cfg, trials):
    """Full verification sweep of cfg; returns a list of (name, detail, ok,
    residual).

    The decomposition and effective-rank checks read the same draws, the
    trial streams (cfg.seed, t), built only for the desired links (the only
    links they read), with one effective-channel build per trial block.  The
    rank lemmas read nothing of the network; each costs one batched SVD
    whatever the trial count.  Raises ConfigError when no cell has
    L_kk > L_I, which leaves no column to check, and ValueError, from
    trial_blocks, unless trials is an integer >= 1.
    """
    plan = model.make_plan(cfg)
    if not any(plan.U_active):
        raise model.ConfigError(["verify needs a cell with L_kk > L_I; every L_kk <= L_I = %d"
                                 % plan.L_I])
    results = []

    worst = 0.0
    ok_all = True
    passed = 0
    desired = [(k, k) for k in range(cfg.K)]
    for ch in model.trial_blocks(cfg, trials, desired):
        H = spectral.build_structured(cfg, plan, ch)
        ok, report = check_decomposition(cfg, plan, ch, H)
        worst = max(worst, max((r[-1] for r in report), default=0.0))
        ok_all = ok_all and ok
        # draws in which every cell's H_k has full rank: one batched SVD per cell
        full = [numerical_rank(H[k]) == plan.U_active[k] * plan.M[k] for k in range(cfg.K)]
        passed += int(np.count_nonzero(np.all(full, axis=0)))
    results.append(("decomposition", "%d random channels" % trials, ok_all, worst))

    frac = passed / trials
    results.append(("effective_rank", "%d trials" % trials, frac == 1.0, 1.0 - frac))

    # Frobenius: rank(AB) + rank(BC) <= rank(B) + rank(ABC), on 200 Gaussian
    # triples of sizes d0 x d1, d1 x d2 and d2 x d3 in 1..8, zero-padded to
    # 8 x 8: the padding adds only exact zero singular values.  No Gaussian
    # product is zero up to round-off, so each matrix's own largest singular
    # value is a safe scale for its rank
    rng = np.random.default_rng(cfg.seed)
    d = rng.integers(1, 9, size=(200, 4)).T[..., None, None]            # (4, 200, 1, 1)
    i8 = np.arange(8)
    A, B, C = rng.standard_normal((3, 200, 8, 8)) * ((i8[:, None] < d[:3]) & (i8 < d[1:]))
    AB = A @ B
    ab, bc, b, abc = numerical_rank(np.stack([AB, B @ C, B, AB @ C]))
    ok_l3 = bool(np.all(ab + bc <= b + abc))
    results.append(("rank_inequality", "200 random triples", ok_l3, 0.0))

    # every 3 columns of the 8-point DFT stay independent once any run of 3
    # consecutive rows is deleted: run s keeps rows 0..s-1 and s+3..7, in order
    N = 8
    r = np.arange(N - 3)
    kept = r + 3 * (r >= np.arange(N - 2)[:, None])                      # (6, 5)
    picks = np.array(list(itertools.combinations(range(N), 3)))        # (56, 3)
    F = spectral.idft_basis(N).conj().T
    ok_dft = bool(np.all(numerical_rank(F[kept[:, None, :, None], picks[:, None, :]]) == 3))
    results.append(("dft_submatrix", "N=8, 3 consecutive rows removed", ok_dft, 0.0))
    return results
