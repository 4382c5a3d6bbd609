import itertools

import numpy as np
import pytest

from blindim import model, spectral, transceiver, verify
from oracles import tap_sums


def fig_cfg():
    return model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)


class TestNumericalRank:
    def test_basic(self):
        assert verify.numerical_rank(np.eye(4)) == 4
        assert verify.numerical_rank(np.zeros((3, 3))) == 0
        assert verify.numerical_rank(np.ones((3, 3))) == 1

    def test_near_singular(self):
        A = np.diag([1.0, 1e-12])
        assert verify.numerical_rank(A) == 1
        assert verify.numerical_rank(A, tol=1e-14) == 2


class TestRankFactors:
    def test_first_precoder_factors_are_signs(self):
        # m = 1 means w = 1: both diagonals collapse to ones
        plan = model.make_plan(fig_cfg())
        rf = verify.build_rank_factors(plan, L_kk=8, m=1)
        np.testing.assert_allclose(rf.d1, 1.0)
        np.testing.assert_allclose(rf.d2, 1.0)

    def test_e_matrix_shape_and_entries(self):
        plan = model.make_plan(fig_cfg())
        rf = verify.build_rank_factors(plan, L_kk=8, m=2)
        assert rf.E.shape == (plan.N, 8 - plan.L_I)
        assert set(np.unique(rf.E)) <= {-1.0, 0.0, 1.0}

    def test_g_has_full_column_rank(self):
        plan = model.make_plan(fig_cfg())
        for m in (1, 2):
            rf = verify.build_rank_factors(plan, L_kk=8, m=m)
            assert verify.numerical_rank(rf.G) == 8 - plan.L_I

    def test_index_bounds(self):
        plan = model.make_plan(fig_cfg())
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=8, m=0)
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=8, m=plan.M_D + 1)
        with pytest.raises(ValueError):
            verify.build_rank_factors(plan, L_kk=plan.L_I, m=1)


class TestDecomposition:
    def test_exact_on_random_channels(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        for t in range(100):
            ch = model.sample_channel_iid(cfg, model.trial_rng(0, t))
            ok, report = verify.check_decomposition(cfg, plan, ch)
            assert ok
            assert max(r[-1] for r in report) <= 1e-10

    def test_asymmetric_lengths(self):
        cfg = model.SystemConfig(
            K=3, users_per_cell=[3, 3, 3], cir_len=[[5, 2, 2], [2, 6, 2], [2, 2, 8]]
        )
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(1, 0))
        ok, _ = verify.check_decomposition(cfg, plan, ch)
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
                    rhs = verify.build_rank_factors(plan, cfg.cir_len[k][k], m).G @ he
                    expect.append((k, u, m, np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)))

        calls = []
        original = verify.build_rank_factors

        def counting(plan, L_kk, m):
            calls.append((L_kk, m))
            return original(plan, L_kk, m)

        monkeypatch.setattr(verify, "build_rank_factors", counting)
        ok, report = verify.check_decomposition(cfg, plan, ch)
        assert ok
        assert report == expect
        distinct = {(cfg.cir_len[k][k], m) for k in range(cfg.K) for m in range(1, plan.M[k] + 1)}
        assert sorted(calls) == sorted(distinct)

    def test_detects_mutation(self):
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        ch.taps[(0, 0)][0, 3] += 0.1   # perturb after structured matrices agree
        H = spectral.build_structured(cfg, plan, ch)
        ch.taps[(0, 0)][0, 3] -= 0.1
        lhs = H[0][:, 0]
        rhs = verify.build_rank_factors(plan, 8, 1).G @ verify.h_eff(cfg, plan, ch, 0, 0)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs) > 1e-6


class TestEffectiveRank:
    def test_always_full_rank_iid(self):
        assert verify.check_lemma2(fig_cfg(), trials=200) == 1.0

    def test_duplicated_user_breaks_rank(self):
        # two users with identical taps cannot carry independent streams
        cfg = model.SystemConfig.symmetric(K=1, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        ch.taps[(0, 0)][1] = ch.taps[(0, 0)][0]
        H = spectral.build_structured(cfg, plan, ch)
        assert verify.numerical_rank(H[0]) < plan.U_active[0] * plan.M[0]

    def test_projected_channel_rank_chain(self):
        # rank(W Hnc) = rank(Hnc) = L_kk - L_I while rank(Hnc F_k) = M_k, with
        # Hnc F the frame response to every precoder minus its circulant part
        cfg = fig_cfg()
        plan = model.make_plan(cfg)
        N, cp = plan.N, plan.cp_len
        W = transceiver.combiner(plan)
        F = spectral.idft_basis(N)
        F_k = F[:, : plan.M[0]]
        for t in range(20):
            ch = model.sample_channel_iid(cfg, model.trial_rng(2, t))
            h = ch.h(0, 0, 0)
            cols = spectral.frame_columns(h[None], N, cp, N)[cp:]
            Hnc = (cols - F * tap_sums(h, N)) @ F.conj().T
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
            assert verify.check_lemma3(A, B, C)

    def test_tight_for_identity(self):
        Id = np.eye(3)
        assert verify.check_lemma3(Id, Id, Id)


class TestDftSubmatrix:
    def test_exhaustive_n8(self):
        N = 8
        for start in range(N - 2):
            removed = list(range(start, start + 3))
            for cols in itertools.combinations(range(N), 3):
                assert verify.check_dft_submatrix_independence(N, removed, cols)

    def test_rejects_nonconsecutive_rows(self):
        with pytest.raises(ValueError):
            verify.check_dft_submatrix_independence(8, [0, 2], [0, 1])

    def test_rejects_too_many_columns(self):
        with pytest.raises(ValueError):
            verify.check_dft_submatrix_independence(4, [0, 1], [0, 1, 2])


class TestRunAll:
    def test_default_sweep_passes(self):
        results = verify.run_all(trials=50)
        assert {name for name, *_ in results} == {
            "decomposition", "effective_rank", "rank_inequality", "dft_submatrix"
        }
        assert all(ok for _, _, ok, _ in results)
