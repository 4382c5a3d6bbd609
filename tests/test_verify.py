import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindim import model, spectral, verify
from oracles import (
    check_dft_submatrix_independence,
    check_lemma2,
    check_lemma3,
    dft_submatrix,
    dft_submatrix_by_pick,
    direct_channel_matrix,
    lemma3_by_triple,
    lemma3_ranks,
    lemma3_ranks_by_triple,
    rank_by_matrix,
    rank_factors_by_column,
    tap_sums,
)


def fig_cfg():
    return model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)


def decomposition(cfg, plan, ch):
    """check_decomposition on the production effective channels of ch."""
    return verify.check_decomposition(cfg, plan, ch, spectral.build_structured(cfg, plan, ch))


def record_rank_calls(monkeypatch):
    """Record every verify.numerical_rank call as (matrices, ranks)."""
    calls = []
    original = verify.numerical_rank

    def recording(A):
        ranks = original(A)
        calls.append((A, ranks))
        return ranks

    monkeypatch.setattr(verify, "numerical_rank", recording)
    return calls


def row_verdicts(results):
    return {name: ok for name, _, ok, _ in results}


class TestNumericalRank:
    def test_basic(self):
        assert verify.numerical_rank(np.eye(4)) == 4
        assert verify.numerical_rank(np.zeros((3, 3))) == 0
        assert verify.numerical_rank(np.ones((3, 3))) == 1

    def test_near_singular(self):
        # RANK_TOL (1e-8) of the largest singular value separates the two
        assert verify.numerical_rank(np.diag([1.0, 1e-12])) == 1
        assert verify.numerical_rank(np.diag([1.0, 1e-7])) == 2


class TestRankFactors:
    def test_g_has_full_column_rank(self):
        plan = model.make_plan(fig_cfg())
        for m in (1, 2):
            G = verify.build_rank_factors(plan, L_kk=8, m=m)
            assert G.shape == (plan.N - plan.M_D, 8 - plan.L_I)
            assert verify.numerical_rank(G) == 8 - plan.L_I

    def test_index_bounds(self):
        plan = model.make_plan(fig_cfg())
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=8, m=0)
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=8, m=plan.M_D + 1)
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=plan.L_I, m=1)

    def test_matches_the_column_oracle_on_the_grid(self):
        # the staircase E against E filled column by column, G bit for bit:
        # two symmetric cells, L_D 3-32, every L_I < L_D, U in
        # {1, 2, 3, L_D - L_I}, every precoder index (10201 factors)
        built = 0
        for L_D in range(3, 33):
            for L_I in range(1, L_D):
                for U in {1, 2, 3, L_D - L_I}:
                    plan = model.make_plan(
                        model.SystemConfig.symmetric(K=2, L_D=L_D, L_I=L_I, U=U))
                    for m in range(1, plan.M_D + 1):
                        G = verify.build_rank_factors(plan, L_D, m)
                        assert G.tobytes() == rank_factors_by_column(plan, L_D, m).tobytes()
                        built += 1
        assert built == 10201


class TestDecomposition:
    def test_exact_on_random_channels(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        for t in range(100):
            ch = model.sample_channel_iid(cfg, model.trial_rng(0, t))
            ok, report = decomposition(cfg, plan, ch)
            assert ok
            assert max(r[-1] for r in report) <= 1e-10

    def test_asymmetric_lengths(self):
        cfg = model.SystemConfig(
            K=3, users_per_cell=[3, 3, 3], cir_len=[[5, 2, 2], [2, 6, 2], [2, 2, 8]]
        )
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(1, 0))
        ok, _ = decomposition(cfg, plan, ch)
        assert ok

    def test_rank_factors_built_once_per_length_and_index(self, monkeypatch):
        # cells 0 and 1 share L_kk = 6; the report equals building G_m for
        # every (k, u, m), while each (L_kk, m) factor is built only once
        cfg = model.SystemConfig(
            K=3, users_per_cell=[2, 2, 3], cir_len=[[6, 2, 2], [2, 6, 2], [2, 2, 8]]
        )
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(2, 0))
        H = spectral.build_structured(cfg, plan, ch)
        expect = []
        for k in range(cfg.K):
            for u in range(plan.U_active[k]):
                he = verify.h_eff(cfg, plan, ch, k, u)
                for m in range(1, plan.M[k] + 1):
                    lhs = H[k][:, u * plan.M[k] + m - 1]
                    rhs = verify.build_rank_factors(plan, cfg.cir_len[k][k], m) @ he
                    expect.append((k, u, m, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))

        calls = []
        original = verify.build_rank_factors

        def counting(plan, L_kk, m):
            calls.append((L_kk, m))
            return original(plan, L_kk, m)

        monkeypatch.setattr(verify, "build_rank_factors", counting)
        ok, report = verify.check_decomposition(cfg, plan, ch, H)
        assert ok
        assert report == expect
        distinct = {(cfg.cir_len[k][k], m) for k in range(cfg.K) for m in range(1, plan.M[k] + 1)}
        assert sorted(calls) == sorted(distinct)

    def test_stack_reports_worst_draw(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        ok, report = decomposition(cfg, plan, next(model.trial_blocks(cfg, 5)))
        draws = [model.sample_channel_iid(cfg, model.trial_rng(cfg.seed, t)) for t in range(5)]
        singles = [decomposition(cfg, plan, ch)[1] for ch in draws]
        assert ok
        assert report == [r[:3] + (max(s[i][-1] for s in singles),) for i, r in enumerate(report)]

    def test_one_bad_draw_fails_the_stack(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        ch = next(model.trial_blocks(cfg, 3))
        H = spectral.build_structured(cfg, plan, ch)
        H[1][2, :, 0] += 0.1   # trial 2, cell 1, user 0, precoder 1
        ok, report = verify.check_decomposition(cfg, plan, ch, H)
        assert not ok
        assert [r[:3] for r in report if r[-1] > 1e-6] == [(1, 0, 1)]

    def test_detects_mutation(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        ch[(0, 0)][0, 3] += 0.1   # perturb after structured matrices agree
        H = spectral.build_structured(cfg, plan, ch)
        ch[(0, 0)][0, 3] -= 0.1
        lhs = H[0][:, 0]
        rhs = verify.build_rank_factors(plan, 8, 1) @ verify.h_eff(cfg, plan, ch, 0, 0)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) > 1e-6


class TestEffectiveRank:
    def test_always_full_rank_iid(self):
        assert check_lemma2(fig_cfg(), trials=200) == 1.0

    def test_duplicated_user_breaks_rank(self):
        # two users with identical taps cannot carry independent streams
        cfg = model.SystemConfig.symmetric(K=1, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        ch[(0, 0)][1] = ch[(0, 0)][0]
        H = spectral.build_structured(cfg, plan, ch)
        assert verify.numerical_rank(H[0]) < plan.U_active[0] * plan.M[0]

    def test_projected_channel_rank_chain(self):
        # rank(W Hnc) = rank(Hnc) = L_kk - L_I while rank(Hnc F_k) = M_k, with
        # Hnc the post-prefix channel matrix minus its circulant part
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        N, cp = plan.N, plan.cp_len
        W = spectral.combiner(plan)[:, cp:]
        F = spectral.idft_basis(N)
        F_k = F[:, : plan.M[0]]
        for t in range(20):
            ch = model.sample_channel_iid(cfg, model.trial_rng(2, t))
            h = ch[(0, 0)][..., 0, :]
            Hnc = direct_channel_matrix(h, N, plan.L_I) - F * tap_sums(h, N) @ F.conj().T
            assert verify.numerical_rank(Hnc) == 8 - plan.L_I
            assert verify.numerical_rank(W @ Hnc) == 8 - plan.L_I
            assert verify.numerical_rank(Hnc @ F_k) == plan.M[0]
            assert verify.numerical_rank(W @ Hnc @ F_k) == plan.M[0]


class TestRankInequality:
    def test_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            dims = rng.integers(1, 9, size=4)
            A = rng.standard_normal((dims[0], dims[1]))
            B = rng.standard_normal((dims[1], dims[2]))
            C = rng.standard_normal((dims[2], dims[3]))
            assert check_lemma3(A, B, C)

    def test_tight_for_identity(self):
        Id = np.eye(3)
        assert check_lemma3(Id, Id, Id)


def pad(matrices, size=8):
    """Zero-pad each matrix into the top-left corner of a (len, size, size) stack."""
    out = np.zeros((len(matrices), size, size))
    for t, M in enumerate(matrices):
        out[t, : M.shape[0], : M.shape[1]] = M
    return out


@st.composite
def triples(draw):
    """A triple with sizes in 1..8, made rank deficient on purpose in most
    kinds: Gaussian triples never come near the rank threshold."""
    d = draw(st.lists(st.integers(1, 8), min_size=4, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, B, C = (rng.standard_normal((d[j], d[j + 1])) for j in range(3))
    kind = draw(st.sampled_from(["gaussian", "repeated_columns", "zero_rows", "rank_one"]))
    if kind == "repeated_columns":
        B[:] = B[:, :1]
    elif kind == "zero_rows":
        A[: (d[0] + 1) // 2] = 0.0
    elif kind == "rank_one":
        # every product through A or C has rank 1
        A = np.outer(rng.standard_normal(d[0]), rng.standard_normal(d[1]))
        C = np.outer(rng.standard_normal(d[2]), rng.standard_normal(d[3]))
    return A, B, C


class TestBatchedRankLemma:
    """Zero-padded, stacked rank checks against one unpadded matrix at a time."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(triples(), min_size=1, max_size=6))
    def test_padding_keeps_every_rank(self, stack):
        A, B, C = (pad(m) for m in zip(*stack))
        for padded, each in [(B, [b for _, b, _ in stack]),
                             (A @ B, [a @ b for a, b, _ in stack]),
                             (B @ C, [b @ c for _, b, c in stack]),
                             (A @ B @ C, [a @ b @ c for a, b, c in stack])]:
            assert verify.numerical_rank(padded).tolist() == [rank_by_matrix(m) for m in each]
        ranks = [lemma3_ranks_by_triple(*triple) for triple in stack]
        assert lemma3_ranks(A, B, C).tolist() == ranks
        want = [ab + bc <= b + abc for ab, bc, b, abc in ranks]
        assert check_lemma3(A, B, C).tolist() == want

    def test_null_product_has_rank_zero_padded_or_not(self):
        # A's row orthogonal to B's repeated column: AB and ABC are zero up
        # to round-off.  Counted against their own largest singular value they
        # read rank 0 where the summation cancels exactly and 1 where it
        # leaves round-off, which the padding and the BLAS kernel decide
        rng = np.random.default_rng(5)
        v = rng.standard_normal(8)
        B = np.repeat(v[:, None], 8, axis=1)
        Q, _ = np.linalg.qr(np.column_stack([v, rng.standard_normal((8, 7))]))
        A = rng.standard_normal((1, 7)) @ Q[:, 1:].T
        C = rng.standard_normal((8, 1))
        unpadded = lemma3_ranks(A, B, C).tolist()
        padded = lemma3_ranks(*pad([A, B, C])).tolist()
        assert unpadded == padded == [0, 1, 1, 0]
        assert check_lemma3(A, B, C)
        assert check_lemma3(*pad([A, B, C]))

    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_run_all_draws_the_same_triples(self, monkeypatch, seed):
        # run_all's rank call on the stacked AB, BC, B and ABC holds the
        # padded products of the triples the per-triple oracle crops, seed
        # for seed, and counts the oracle's ranks
        calls = record_rank_calls(monkeypatch)
        results = verify.run_all(dataclasses.replace(verify.DEFAULT_CONFIG, seed=seed), trials=2)
        stack, got = calls[-2]
        triples, ranks = lemma3_by_triple(seed)
        want = np.stack([pad(m) for m in zip(*[(A @ B, B @ C, B, A @ B @ C)
                                               for A, B, C in triples])])
        assert stack.shape == want.shape == (4, 200, 8, 8)
        np.testing.assert_array_equal(stack[2], want[2])   # B itself, as drawn
        np.testing.assert_allclose(stack, want, rtol=0, atol=1e-12)
        assert got.T.tolist() == ranks
        verdict = all(ab + bc <= b + abc for ab, bc, b, abc in ranks)
        assert row_verdicts(results)["rank_inequality"] == verdict


@st.composite
def dft_cases(draw):
    """N in 4..10, a removed-run length r and picks of c <= N - r columns,
    repeated columns allowed so that some picks are dependent."""
    N = draw(st.integers(4, 10))
    r = draw(st.integers(0, N - 1))
    c = draw(st.integers(1, N - r))
    col = st.integers(0, N - 1)
    return N, r, draw(st.lists(st.lists(col, min_size=c, max_size=c), min_size=1, max_size=20))


class TestDftSubmatrix:
    @settings(max_examples=80, deadline=None)
    @given(dft_cases())
    def test_batched_matches_per_pick(self, case):
        # every consecutive removal of r rows, all stacked into one call
        N, r, picks = case
        runs = np.arange(N - r + 1)[:, None] + np.arange(r)
        got = check_dft_submatrix_independence(N, runs, picks)
        assert got.shape == (len(runs), len(picks))
        for run, row in zip(runs, got):
            assert row.tolist() == dft_submatrix_by_pick(N, run.tolist(), picks)
            assert check_dft_submatrix_independence(N, run, picks[0]) == row[0]

    def test_exhaustive_n8(self):
        N = 8
        for start in range(N - 2):
            removed = list(range(start, start + 3))
            for cols in itertools.combinations(range(N), 3):
                assert check_dft_submatrix_independence(N, removed, cols)

    def test_run_all_row_matches_per_pick(self, monkeypatch):
        # run_all's one rank call holds every 3-column pick of the 8-point
        # DFT with each run of 3 consecutive rows deleted, in order
        calls = record_rank_calls(monkeypatch)
        results = verify.run_all(verify.DEFAULT_CONFIG, trials=1)
        stack, got = calls[-1]
        N = 8
        runs = [range(s, s + 3) for s in range(N - 2)]
        picks = list(itertools.combinations(range(N), 3))
        want = np.array([[dft_submatrix(N, run, cols) for cols in picks] for run in runs])
        assert stack.shape == want.shape == (6, 56, 5, 3)
        np.testing.assert_allclose(stack, want, rtol=0, atol=1e-15)
        verdicts = [dft_submatrix_by_pick(N, run, picks) for run in runs]
        assert (got == 3).tolist() == verdicts
        assert row_verdicts(results)["dft_submatrix"] == all(map(all, verdicts))

    def test_rejects_nonconsecutive_rows(self):
        with pytest.raises(ValueError):
            check_dft_submatrix_independence(8, [0, 2], [0, 1])

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            check_dft_submatrix_independence(4, [0, 1], [0, 1, 2])


class TestFixedCost:
    """run_all's cost beyond the trial blocks does not grow with the trials."""

    def test_one_build_per_trial_block(self, monkeypatch):
        calls = []
        original = spectral.build_structured

        def counting(cfg, plan, ch):
            calls.append(ch)
            return original(cfg, plan, ch)

        monkeypatch.setattr(spectral, "build_structured", counting)
        monkeypatch.setattr(model, "TRIAL_BLOCK", 3)
        assert all(ok for _, _, ok, _ in verify.run_all(verify.DEFAULT_CONFIG, trials=7))
        assert [next(iter(ch.values())).shape[0] for ch in calls] == [3, 3, 1]

    def test_rank_calls_do_not_grow_with_trials(self, monkeypatch):
        def rank_calls(trials):
            calls = record_rank_calls(monkeypatch)
            assert all(ok for _, _, ok, _ in verify.run_all(verify.DEFAULT_CONFIG, trials))
            return len(calls)

        K = verify.DEFAULT_CONFIG.K
        # one block: one batched SVD per cell, then one for each rank lemma
        assert rank_calls(7) == rank_calls(70) == K + 2


class TestRunAll:
    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            verify.run_all(verify.DEFAULT_CONFIG, trials)

    def test_draws_from_the_config_seed(self, monkeypatch):
        # the channel draws come from cfg.seed; test_run_all_draws_the_same_triples
        # checks the lemma triples
        seeds = []
        original = model.trial_rng

        def recording(seed, trial):
            seeds.append((seed, trial))
            return original(seed, trial)

        monkeypatch.setattr(model, "trial_rng", recording)
        verify.run_all(dataclasses.replace(verify.DEFAULT_CONFIG, seed=5), trials=3)
        assert seeds == [(5, 0), (5, 1), (5, 2)]

    def test_rejects_a_network_with_no_active_cell(self):
        # every L_kk <= L_I: no cell carries a stream, so no column is checked
        cfg = model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[2, 2], [2, 2]])
        with pytest.raises(model.ConfigError,
                           match=r"^verify needs a cell with L_kk > L_I; every L_kk <= L_I = 2$"):
            verify.run_all(cfg, trials=5)

    def test_one_active_cell_is_checked(self):
        # cell 1 is idle; cell 0's columns are checked and every row passes
        cfg = model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[5, 2], [2, 2]])
        results = verify.run_all(cfg, trials=5)
        assert all(ok for _, _, ok, _ in results)
        assert 0.0 < results[0][-1] <= verify.DECOMPOSITION_TOL

    def test_default_sweep_passes(self):
        results = verify.run_all(verify.DEFAULT_CONFIG, trials=50)
        assert {name for name, *_ in results} == {
            "decomposition", "effective_rank", "rank_inequality", "dft_submatrix"
        }
        assert all(ok for _, _, ok, _ in results)
