# blindim/verify.py
"""Executable rank machinery: the structured decomposition of the projected
desired channel, full-rank checks of the effective channel, and the supporting
rank inequalities.  All checks are numerical (SVD-based) at random points, in
line with the almost-sure nature of the underlying claims.

Every check is batched: stacked matrices share one SVD call.  run_all builds
each trial block's effective channels once for the decomposition and rank
checks; the decomposition takes one stacked product per cell.  Its two rank
lemmas (the Frobenius inequality on zero-padded triples, placed by one
boolean fill; DFT-submatrix independence over every removed run and column
pick) take a fixed number of batched SVDs whatever the trial count."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import model, spectral, transceiver


RANK_TOL = transceiver.RANK_TOL
# largest relative residual check_decomposition accepts between a production
# column and its factorization
DECOMPOSITION_TOL = 1e-10
# the configuration `blindim verify` checks when given no --config
DEFAULT_CONFIG = model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)


def numerical_rank(A, scale=None):
    """Rank via SVD; singular values above RANK_TOL * scale count, where scale
    defaults to each matrix's largest singular value.

    Leading axes stack matrices: the result has one rank per matrix, from one
    batched SVD.  A given scale broadcasts against those axes.
    """
    sv = np.linalg.svd(np.atleast_2d(A), compute_uv=False)
    scale = sv[..., :1] if scale is None else np.expand_dims(scale, -1)
    return (sv > RANK_TOL * scale).sum(axis=-1)


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
    W = spectral.combiner(plan)[:, plan.cp_len :]
    G = (W * d1) @ E @ np.diag(d2) / np.sqrt(N)
    return RankFactors(d1=d1, d2=d2, E=E, G=G)


def h_eff(cfg, plan, ch, k, u) -> np.ndarray:
    """The taps beyond the cyclic-prefix reach: h[L_I .. L_kk - 1] of user u
    of cell k, or (..., users, L_kk - L_I) when u is a slice of users."""
    return ch.h(k, k, u)[..., plan.L_I : cfg.cir_len[k][k]]


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
        L_kk = cfg.cir_len[k][k]
        if L_kk <= plan.L_I:
            continue
        U, M = plan.U_active[k], plan.M[k]
        for m in range(1, M + 1):
            if (L_kk, m) not in G:
                G[L_kk, m] = build_rank_factors(plan, L_kk, m).G
        Gk = np.stack([G[L_kk, m] for m in range(1, M + 1)])
        he = h_eff(cfg, plan, ch, k, slice(U))
        rhs = (Gk @ he[..., None, :, None])[..., 0]                   # (..., U, M, rows)
        lhs = np.moveaxis(H[k].reshape(H[k].shape[:-1] + (U, M)), -3, -1)
        res = _norm(lhs - rhs) / np.maximum(_norm(lhs), 1e-300)      # (..., U, M)
        worst = res.reshape(-1, U, M).max(axis=0)
        report += [(k, u, m + 1, float(worst[u, m])) for u in range(U) for m in range(M)]
        ok = ok and not np.any(res > DECOMPOSITION_TOL)
    return ok, report


def _full_rank_draws(plan, H) -> int:
    """How many realizations stacked in the effective channels H give every
    cell a full-rank H_k: one batched SVD per cell."""
    ranks = [numerical_rank(H[k]) == plan.U_active[k] * plan.M[k] for k in range(plan.K)]
    return int(np.count_nonzero(np.all(ranks, axis=0)))


def lemma3_ranks(A, B, C):
    """(..., 4) ranks of AB, BC, B and ABC, as check_lemma3 counts them.

    B's singular values count against its largest one, and each product's
    against the product of its factors' largest ones, which bounds the
    product's own largest.  So a product that is zero up to round-off has
    rank 0, whatever the zero padding or the BLAS summation order.
    """
    a, c = (np.linalg.svd(M, compute_uv=False)[..., 0] for M in (A, C))
    sv_b = np.linalg.svd(B, compute_uv=False)
    b = sv_b[..., 0]
    AB = A @ B
    return np.stack([numerical_rank(AB, scale=a * b), numerical_rank(B @ C, scale=b * c),
                     np.count_nonzero(sv_b > RANK_TOL * sv_b[..., :1], axis=-1),
                     numerical_rank(AB @ C, scale=a * b * c)], axis=-1)


def check_lemma3(A, B, C):
    """rank(AB) + rank(BC) <= rank(B) + rank(ABC) (Frobenius rank inequality).

    A (..., a, b), B (..., b, c) and C (..., c, d) may carry leading axes that
    stack triples: the result has one verdict per triple, from batched SVDs
    of the factors and products (ranks as lemma3_ranks counts them).
    """
    ab, bc, b, abc = np.moveaxis(lemma3_ranks(A, B, C), -1, 0)
    return ab + bc <= b + abc


def check_dft_submatrix_independence(N, removed_rows, picked_cols):
    """Columns of a DFT matrix stay independent after deleting consecutive rows.

    removed_rows is a consecutive run of r rows, or an (R, r) array of R runs;
    picked_cols is a pick of at most N - r columns, or a (P, c) array of P
    picks.  The result has one verdict per run and pick, shape (R, P) when
    both are stacked, from one fancy index into the DFT matrix and one
    batched SVD.
    """
    removed = np.sort(np.asarray(removed_rows, dtype=int), axis=-1)
    if np.any(np.diff(removed, axis=-1) != 1):
        raise ValueError("removed rows must be consecutive")
    picked = np.asarray(picked_cols, dtype=int)
    if picked.shape[-1] > N - removed.shape[-1]:
        raise ValueError("cannot pick more columns than remaining rows")
    F = spectral.idft_basis(N).conj().T   # DFT matrix; row deletion symmetric either way
    # the rows each run leaves, in order, on their own axis ahead of the picks'
    kept = ~np.any(np.arange(N) == removed[..., None], axis=-2)
    rows = np.broadcast_to(np.arange(N), kept.shape)[kept]
    rows = rows.reshape(kept.shape[:-1] + (1,) * (picked.ndim - 1) + (-1, 1))
    return numerical_rank(F[rows, picked[..., None, :]]) == picked.shape[-1]


def run_all(cfg, trials):
    """Full verification sweep of cfg; returns a list of (name, detail, ok,
    residual).

    The decomposition and effective-rank checks read the same draws, the
    trial streams (cfg.seed, t), built only for the desired links (the only
    links they read), with one effective-channel build per trial block.  The
    rank lemmas draw their triples from cfg.seed too; they are batched and
    cost the same whatever the trial count.  Raises ValueError unless
    trials >= 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    plan = model.make_plan(cfg)
    results = []

    worst = 0.0
    ok_all = True
    passed = 0
    desired = [(k, k) for k in range(cfg.K)]
    for ch in model.trial_blocks(cfg, cfg.seed, trials, desired):
        H = spectral.build_structured(cfg, plan, ch)
        ok, report = check_decomposition(cfg, plan, ch, H)
        worst = max(worst, max((r[-1] for r in report), default=0.0))
        ok_all = ok_all and ok
        passed += _full_rank_draws(plan, H)
    results.append(("decomposition", "%d random channels" % trials, ok_all, worst))

    frac = passed / trials
    results.append(("effective_rank", "%d trials" % trials, frac == 1.0, 1.0 - frac))

    # zero padding to 8 x 8 only adds exact zero singular values, so every
    # rank is that of the unpadded matrix.  One normal draw per triple fills
    # A, B and C in turn, as one draw each would (the Generator fills values
    # in sequence), and one boolean fill places every draw in row-major order
    rng = np.random.default_rng(cfg.seed)
    dims, values = [], []
    for _ in range(200):
        d = rng.integers(1, 9, size=4)
        dims.append(d)
        values.append(rng.standard_normal(d[0] * d[1] + d[1] * d[2] + d[2] * d[3]))
    d = np.array(dims)[:, :, None, None]
    i8 = np.arange(8)
    fill = (i8[:, None] < d[:, :3]) & (i8 < d[:, 1:])      # (200, 3, 8, 8)
    triples = np.zeros(fill.shape)
    triples[fill] = np.concatenate(values)
    triples = triples.transpose(1, 0, 2, 3)
    ok_l3 = bool(np.all(check_lemma3(*triples)))
    results.append(("rank_inequality", "200 random triples", ok_l3, 0.0))

    N = 8
    runs = np.arange(N - 2)[:, None] + np.arange(3)
    picks = list(itertools.combinations(range(N), 3))
    ok_dft = bool(np.all(check_dft_submatrix_independence(N, runs, picks)))
    results.append(("dft_submatrix", "N=8, 3 consecutive rows removed", ok_dft, 0.0))
    return results
