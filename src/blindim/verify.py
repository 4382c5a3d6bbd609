# blindim/verify.py
"""Executable rank machinery: the structured decomposition of the projected
desired channel, full-rank checks of the effective channel, and the supporting
rank inequalities.  All checks are numerical (SVD-based) at random points, in
line with the almost-sure nature of the underlying claims."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, spectral, transceiver


def numerical_rank(A, tol=1e-8):
    """Rank via SVD; singular values above tol * largest count.

    Leading axes stack matrices: the result has one rank per matrix, from one
    batched SVD.
    """
    sv = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    return (sv > tol * sv[..., :1]).sum(axis=-1)


def _norm(x):
    """Euclidean norm over the last axis from the same BLAS dot products that
    np.linalg.norm takes of one vector, so one vector's norm equals it value
    for value."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


@dataclass
class RankFactors:
    """Factors of the projected desired channel: W Hbar f_m = G @ h_eff.

    G = (1/sqrt(N)) * W * diag(d1) * E * diag(d2) depends only on the plan
    geometry (never on the channel), while h_eff = h[L_I : L_kk] carries all
    the randomness — which is what reduces the rank analysis of the effective
    channel to a generic matrix with independent entries.
    """

    d1: np.ndarray    # length N diagonal, powers of w_m
    d2: np.ndarray    # length L_kk - L_I diagonal
    E: np.ndarray     # N x (L_kk - L_I), entries in {0, +1, -1}
    G: np.ndarray     # (N - M_D) x (L_kk - L_I)


def build_rank_factors(plan, L_kk, m) -> RankFactors:
    """Factors for precoder index m (1-based) and a desired link of length L_kk."""
    N, L_I = plan.N, plan.L_I
    if not 1 <= m <= plan.M_D:
        raise ValueError("precoder index m out of range")
    if L_kk <= L_I:
        raise ValueError("requires L_kk > L_I")
    w = np.exp(2j * np.pi * (m - 1) / N)
    d1 = w ** np.arange(N)
    d2 = w ** (N - L_I) * w ** (-np.arange(L_kk - L_I, dtype=float))
    E = np.zeros((N, L_kk - L_I))
    for j in range(L_kk - L_I):
        if j < N - L_I:
            E[: j + 1, j] = -1.0
        else:
            jp = j - (N - L_I)
            E[N - L_I + 1 + jp :, j] = 1.0
    W = transceiver.combiner(plan)
    G = (W * d1) @ E @ np.diag(d2) / np.sqrt(N)
    return RankFactors(d1=d1, d2=d2, E=E, G=G)


def h_eff(cfg, plan, ch, k, u) -> np.ndarray:
    """The taps beyond the cyclic-prefix reach: h[L_I .. L_kk - 1]."""
    return ch.h(k, k, u)[..., plan.L_I : cfg.cir_len[k][k]]


def check_decomposition(cfg, plan, ch, tol=1e-10):
    """Assert the production effective-channel column of (k, u, m) equals
    G_{m,k} h_eff_{k,u} for every (k, u, m): the running-sum closed form of
    spectral.build_structured against the geometry-times-taps factorization.

    Leading axes of the taps stack realizations.  Returns (ok, report) where
    report lists (k, u, m, relative residual), the worst over the stack.
    """
    H = spectral.build_structured(cfg, plan, ch)
    G = {}   # (L_kk, m) -> G_m: the factor depends only on the geometry
    report = []
    ok = True
    for k in range(cfg.K):
        L_kk = cfg.cir_len[k][k]
        if L_kk <= plan.L_I:
            continue
        for m in range(1, plan.M[k] + 1):
            if (L_kk, m) not in G:
                G[L_kk, m] = build_rank_factors(plan, L_kk, m).G
        for u in range(plan.U_active[k]):
            he = h_eff(cfg, plan, ch, k, u)[..., None]
            for m in range(1, plan.M[k] + 1):
                lhs = H[k][..., u * plan.M[k] + m - 1]
                rhs = (G[L_kk, m] @ he)[..., 0]
                res = _norm(lhs - rhs) / np.maximum(_norm(lhs), 1e-300)
                report.append((k, u, m, float(res.max())))
                ok = ok and not np.any(res > tol)
    return ok, report


def _full_rank_draws(cfg, plan, ch) -> int:
    """How many stacked realizations give every cell a full-rank effective
    channel: one batched SVD per cell."""
    H = spectral.build_structured(cfg, plan, ch)
    ranks = [numerical_rank(H[k]) == plan.U_active[k] * plan.M[k] for k in range(cfg.K)]
    return int(np.count_nonzero(np.all(ranks, axis=0)))


def check_lemma2(cfg, trials, seed=0):
    """Fraction of IID channel draws where every effective channel is full rank."""
    plan = model.make_plan(cfg)
    passed = sum(_full_rank_draws(cfg, plan, ch)
                 for ch in model.iid_trial_blocks(cfg, seed, trials))
    return passed / trials


def check_lemma3(A, B, C) -> bool:
    """rank(AB) + rank(BC) <= rank(B) + rank(ABC) (Frobenius rank inequality)."""
    return numerical_rank(A @ B) + numerical_rank(B @ C) <= numerical_rank(B) + numerical_rank(
        A @ B @ C
    )


def check_dft_submatrix_independence(N, removed_rows, picked_cols) -> bool:
    """Columns of a DFT matrix stay independent after deleting consecutive rows.

    removed_rows must be a consecutive run and len(picked_cols) <= N - len(removed_rows).
    """
    removed = sorted(removed_rows)
    if removed and removed != list(range(removed[0], removed[0] + len(removed))):
        raise ValueError("removed rows must be consecutive")
    if len(picked_cols) > N - len(removed):
        raise ValueError("cannot pick more columns than remaining rows")
    F = spectral.idft_basis(N).conj().T   # DFT matrix; row deletion symmetric either way
    keep = [r for r in range(N) if r not in set(removed)]
    sub = F[np.ix_(keep, list(picked_cols))]
    return numerical_rank(sub) == len(picked_cols)


def run_all(cfg=None, seed=0, trials=100):
    """Full verification sweep; returns a list of (name, detail, ok, residual)."""
    if cfg is None:
        cfg = model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3, seed=seed)
    plan = model.make_plan(cfg)
    results = []

    # both checks read the same draws
    worst = 0.0
    ok_all = True
    passed = 0
    for ch in model.iid_trial_blocks(cfg, seed, trials):
        ok, report = check_decomposition(cfg, plan, ch)
        worst = max(worst, max((r[-1] for r in report), default=0.0))
        ok_all = ok_all and ok
        passed += _full_rank_draws(cfg, plan, ch)
    results.append(("decomposition", "%d random channels" % trials, ok_all, worst))

    frac = passed / trials
    results.append(("effective_rank", "%d trials" % trials, frac == 1.0, 1.0 - frac))

    rng = np.random.default_rng(seed)
    ok_l3 = True
    for _ in range(200):
        dims = rng.integers(1, 9, size=4)
        A = rng.standard_normal((dims[0], dims[1]))
        B = rng.standard_normal((dims[1], dims[2]))
        C = rng.standard_normal((dims[2], dims[3]))
        ok_l3 = ok_l3 and check_lemma3(A, B, C)
    results.append(("rank_inequality", "200 random triples", ok_l3, 0.0))

    import itertools

    ok_dft = True
    N = 8
    for start in range(N - 2):
        removed = list(range(start, start + 3))
        for cols in itertools.combinations(range(N), 3):
            ok_dft = ok_dft and check_dft_submatrix_independence(N, removed, cols)
    results.append(("dft_submatrix", "N=8, 3 consecutive rows removed", ok_dft, 0.0))
    return results
