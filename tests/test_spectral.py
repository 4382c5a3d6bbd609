import numpy as np
import pytest

from blindim import model, spectral
from oracles import (
    circulant,
    diagonalize_circulant,
    direct_channel_matrix,
    direct_isbi_matrix,
    random_config,
    tap_sums,
)


class TestIdftBasis:
    def test_n1(self):
        np.testing.assert_allclose(spectral.idft_basis(1), [[1.0]])

    def test_common_precoder_is_constant(self):
        F = spectral.idft_basis(3)
        np.testing.assert_allclose(F[:, 0], np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_second_column_n4(self):
        # forced by unitarity: the listing [1, j, -1, j]/2 would not be
        # orthogonal to f_4 = [1, -j, -1, j]/2
        F = spectral.idft_basis(4)
        np.testing.assert_allclose(F[:, 1], 0.5 * np.array([1, 1j, -1, -1j]), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 11])
    def test_unitary(self, n):
        F = spectral.idft_basis(n)
        np.testing.assert_allclose(F.conj().T @ F, np.eye(n), atol=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            spectral.idft_basis(0)


class TestCirculant:
    def test_scalar(self):
        np.testing.assert_array_equal(circulant([3.0]), [[3.0]])

    def test_identity(self):
        np.testing.assert_array_equal(circulant([1, 0, 0]), np.eye(3))

    def test_columns_are_cyclic_shifts(self):
        c = np.array([1 + 2j, 0.5, 0, -1j])
        C = circulant(c)
        for m in range(4):
            np.testing.assert_array_equal(C[:, m], np.roll(c, m))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            circulant([])


class TestDiagonalizeCirculant:
    def test_identity(self):
        np.testing.assert_allclose(diagonalize_circulant(np.eye(4)), np.ones(4))

    def test_shift_matrix_spectrum(self):
        lam = diagonalize_circulant(circulant([0, 1, 0, 0, 0]))
        np.testing.assert_allclose(sorted(np.abs(lam)), np.ones(5), atol=1e-12)
        np.testing.assert_allclose(np.sort(np.angle(lam)),
                                   np.sort(np.angle(np.exp(-2j * np.pi * np.arange(5) / 5))),
                                   atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        C = circulant(c)
        lam = diagonalize_circulant(C)
        F = spectral.idft_basis(7)
        back = F @ np.diag(lam) @ F.conj().T
        assert np.linalg.norm(back - C) <= 1e-10 * np.linalg.norm(C)

    def test_rejects_noncirculant(self):
        with pytest.raises(ValueError):
            diagonalize_circulant(np.arange(9.0).reshape(3, 3))

    def test_eigenvalue_ordering_matches_basis(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        C = circulant(c)
        lam = diagonalize_circulant(C)
        F = spectral.idft_basis(6)
        for m in range(6):
            np.testing.assert_allclose(C @ F[:, m], lam[m] * F[:, m], atol=1e-10)


def _structured(cfg, seed=0):
    plan = model.make_plan(cfg)
    ch = model.sample_channel_iid(cfg, model.trial_rng(seed, 0))
    return plan, ch, spectral.build_structured(cfg, plan, ch)


def _dense_projection(plan, A, M):
    """W A F_k through the combiner's core columns: the dense route."""
    W = spectral.combiner(plan)[:, plan.cp_len :]
    return W @ A @ spectral.idft_basis(plan.N)[:, :M]


def _relative(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestBuildStructured:
    def test_reference_noncirculant_shape(self):
        # N=3, L_D=4, L_I=2: Hnc = [[0, -h2, 0], [0, 0, 0], [0, 0, h3]], and the
        # projected first column is W Hnc f_1
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
        plan, ch, H = _structured(cfg)
        h = ch.h(0, 0, 0)
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 1] = -h[2]
        expect[2, 2] = h[3]
        np.testing.assert_allclose(
            direct_channel_matrix(h, 3, 2) - circulant(h[:3]), expect, atol=1e-15
        )
        np.testing.assert_allclose(H[0][:, 0], _dense_projection(plan, expect, 1)[:, 0],
                                   atol=1e-15)

    def test_decomposition_is_exact(self):
        # the circulant of the first min(L_kk, N) taps is nulled by the
        # projection, so H_k is W Hnc F_k, both when N covers the channel and
        # when the taps wrap (L_kk > N)
        for L_D in (8, 4):
            cfg = model.SystemConfig.symmetric(K=2, L_D=L_D, L_I=2, U=2)
            plan, ch, H = _structured(cfg)
            M = plan.M[0]
            for u in range(plan.U_active[0]):
                h = ch.h(0, 0, u)
                col = np.zeros(plan.N, dtype=complex)
                n_prime = min(L_D, plan.N)
                col[:n_prime] = h[:n_prime]
                C = circulant(col)
                assert np.abs(_dense_projection(plan, C, M)).max() <= 1e-14 * np.abs(col).max()
                Hnc = direct_channel_matrix(h, plan.N, plan.L_I) - C
                got = H[0][:, u * M : (u + 1) * M]
                assert _relative(got, _dense_projection(plan, Hnc, M)) <= 1e-13

    def test_lower_block_zero_when_n_covers_channel(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=3, U=1)
        plan, ch, H = _structured(cfg)
        assert plan.N >= 8
        h, cp, M = ch.h(0, 0, 0), plan.cp_len, plan.M[0]
        cols = spectral.frame_columns(h[None], plan.N, cp, M)[cp:]
        # no tap wraps past the core: the response departs from the circulant
        # one, f_m times the tap sum, only on the first L_kk - L_I core samples
        dev = cols - spectral.idft_basis(plan.N)[:, :M] * tap_sums(h, plan.N)[:M]
        P = 8 - plan.L_I
        np.testing.assert_allclose(dev[P:], 0.0, atol=1e-14)
        assert np.all(np.abs(dev[P - 1]) > 0)
        W = spectral.combiner(plan)[:, cp:]
        np.testing.assert_allclose(H[0], W[:, :P] @ dev[:P], atol=1e-13)

    def test_block_dimensions_sum_to_n(self):
        # Hnc lives in a P x P upper corner and an (L_I - 1) x (L_I - 1) lower
        # corner; the closed form is its projection even though L_kk > N
        cfg = model.SystemConfig.symmetric(K=2, L_D=9, L_I=4, U=2)
        plan, ch, H = _structured(cfg)
        assert 9 > plan.N
        M = plan.M[0]
        for u in range(plan.U_active[0]):
            h = ch.h(0, 0, u)
            Hnc = direct_channel_matrix(h, plan.N, plan.L_I) - circulant(h[: plan.N])
            P = plan.N - plan.L_I + 1
            np.testing.assert_allclose(Hnc[:P, P:], 0.0, atol=1e-15)
            np.testing.assert_allclose(Hnc[P:, :P], 0.0, atol=1e-15)
            assert np.any(Hnc[:P, :P]) and np.any(Hnc[P:, P:])
            got = H[0][:, u * M : (u + 1) * M]
            assert _relative(got, _dense_projection(plan, Hnc, M)) <= 1e-13

    @pytest.mark.parametrize("params", [(3, 2, 4), (8, 2, 8), (8, 2, 5), (8, 3, 6),
                                        (6, 4, 8), (9, 1, 8)])
    def test_channel_matrix_matches_convolution_oracle(self, params):
        # the frame response to every precoder f_1 .. f_N is Hbar F
        N, L_I, L_kk = params
        rng = np.random.default_rng(42)
        F = spectral.idft_basis(N)
        for _ in range(5):
            h = rng.standard_normal(L_kk) + 1j * rng.standard_normal(L_kk)
            built = spectral.frame_columns(h[None], N, L_I - 1, N)[L_I - 1 :]
            np.testing.assert_allclose(built, direct_channel_matrix(h, N, L_I) @ F, atol=1e-12)

    @pytest.mark.parametrize("params", [(3, 2, 4), (8, 2, 8), (8, 2, 5), (8, 2, 6),
                                        (6, 4, 8), (9, 1, 8)])
    def test_isbi_matrix_matches_leakage_oracle(self, params):
        # the previous core's leakage on f_m is the tap sum the current frame
        # has not yet reached, rotated by leakage_phase
        N, L_I, L_kk = params
        cp = L_I - 1
        rng = np.random.default_rng(43)
        F = spectral.idft_basis(N)
        for _ in range(5):
            h = rng.standard_normal(L_kk) + 1j * rng.standard_normal(L_kk)
            cols = spectral.frame_columns(h[None], N, cp, N)[cp:]
            leak = (F * tap_sums(h, N) - cols) * spectral.leakage_phase(N, cp, N)
            np.testing.assert_allclose(leak, direct_isbi_matrix(h, N, L_I) @ F, atol=1e-12)

    def test_frame_response_matches_oracles_on_random_shapes(self):
        # every valid framing: 0 <= cp < N and 1 <= L <= N + cp, with the edge
        # cases cp = 0, L > N and L = N + cp forced in turn
        rng = np.random.default_rng(44)
        for trial in range(240):
            N = int(rng.integers(1, 13))
            cp = 0 if trial % 4 == 0 else int(rng.integers(0, N))
            if trial % 4 == 1:
                L = N + cp
            elif trial % 4 == 2 and cp > 0:
                L = int(rng.integers(N + 1, N + cp + 1))
            else:
                L = int(rng.integers(1, N + cp + 1))
            h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            F = spectral.idft_basis(N)
            cols = spectral.frame_columns(h[None], N, cp, N)
            assert cols.shape == (N + cp, N)
            leak = (F * tap_sums(h, N) - cols[cp:]) * spectral.leakage_phase(N, cp, N)
            tol = 1e-12 * np.abs(h).max()
            np.testing.assert_allclose(cols[cp:], direct_channel_matrix(h, N, cp + 1) @ F,
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(leak, direct_isbi_matrix(h, N, cp + 1) @ F,
                                       rtol=0, atol=tol)

    def test_projected_channels_match_oracles_on_random_configs(self):
        # H_k = W Hbar F_k and the subblock leakage -H_k diag(w^(m cp)) =
        # W Hsub F_k, per user, against the sample-by-sample oracles
        rng = np.random.default_rng(46)
        seen = dict.fromkeys(("K=1", "cp=0", "asymmetric users", "idle cell", "L_kk>N"), 0)
        for trial in range(250):
            cfg = random_config(rng, trial % 5)
            plan, ch, H = _structured(cfg, seed=trial)
            seen["K=1"] += cfg.K == 1
            seen["cp=0"] += plan.cp_len == 0
            seen["asymmetric users"] += len(set(cfg.users_per_cell)) > 1
            seen["idle cell"] += 0 in plan.U_active
            seen["L_kk>N"] += any(cfg.cir_len[k][k] > plan.N for k in range(cfg.K))
            for k in range(cfg.K):
                M, U = plan.M[k], plan.U_active[k]
                assert H[k].shape == (plan.N - plan.M_D, U * M)
                phase = spectral.leakage_phase(plan.N, plan.cp_len, M)
                for u in range(U):
                    h = ch.h(k, k, u)
                    got = H[k][:, u * M : (u + 1) * M]
                    want = _dense_projection(plan, direct_channel_matrix(h, plan.N, plan.L_I), M)
                    leak = _dense_projection(plan, direct_isbi_matrix(h, plan.N, plan.L_I), M)
                    assert _relative(got, want) <= 1e-12
                    assert _relative(-got * phase, leak) <= 1e-12
        assert min(seen.values()) >= 20, seen

    def test_short_links_are_circulant_without_leakage(self):
        # the paper's claim for interfering links: with len(h) <= cp + 1 the
        # post-CP map is circulant (IDFT eigenvectors) and nothing leaks
        # from the previous subblock
        rng = np.random.default_rng(45)
        for _ in range(100):
            N = int(rng.integers(1, 13))
            cp = int(rng.integers(0, N))
            L = int(rng.integers(1, cp + 2))
            h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            F = spectral.idft_basis(N)
            cols = spectral.frame_columns(h[None], N, cp, N)[cp:]
            lam = diagonalize_circulant(cols @ F.conj().T)
            np.testing.assert_allclose(cols, F * lam, atol=1e-12)
            np.testing.assert_allclose(F * tap_sums(h, N) - cols, 0.0, atol=1e-12)

    def test_asymmetric_lengths(self):
        cir = [[5, 2, 2], [2, 6, 2], [2, 2, 8]]
        cfg = model.SystemConfig(K=3, users_per_cell=[2, 2, 2], cir_len=cir)
        plan, ch, H = _structured(cfg)
        for k in range(3):
            M = plan.M[k]
            h = ch.h(k, k, 0)
            want = _dense_projection(plan, direct_channel_matrix(h, plan.N, plan.L_I), M)
            np.testing.assert_allclose(H[k][:, :M], want, atol=1e-12)
