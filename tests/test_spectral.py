import numpy as np
import pytest

from blindim import model, spectral
from oracles import direct_channel_matrix, direct_isbi_matrix


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
        np.testing.assert_array_equal(spectral.circulant([3.0]), [[3.0]])

    def test_identity(self):
        np.testing.assert_array_equal(spectral.circulant([1, 0, 0]), np.eye(3))

    def test_columns_are_cyclic_shifts(self):
        c = np.array([1 + 2j, 0.5, 0, -1j])
        C = spectral.circulant(c)
        for m in range(4):
            np.testing.assert_array_equal(C[:, m], np.roll(c, m))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            spectral.circulant([])


class TestDiagonalizeCirculant:
    def test_identity(self):
        np.testing.assert_allclose(spectral.diagonalize_circulant(np.eye(4)), np.ones(4))

    def test_shift_matrix_spectrum(self):
        lam = spectral.diagonalize_circulant(spectral.circulant([0, 1, 0, 0, 0]))
        np.testing.assert_allclose(sorted(np.abs(lam)), np.ones(5), atol=1e-12)
        np.testing.assert_allclose(np.sort(np.angle(lam)),
                                   np.sort(np.angle(np.exp(-2j * np.pi * np.arange(5) / 5))),
                                   atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        C = spectral.circulant(c)
        lam = spectral.diagonalize_circulant(C)
        F = spectral.idft_basis(7)
        back = F @ np.diag(lam) @ F.conj().T
        assert np.linalg.norm(back - C) <= 1e-10 * np.linalg.norm(C)

    def test_rejects_noncirculant(self):
        with pytest.raises(ValueError):
            spectral.diagonalize_circulant(np.arange(9.0).reshape(3, 3))

    def test_eigenvalue_ordering_matches_basis(self):
        rng = np.random.default_rng(1)
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        C = spectral.circulant(c)
        lam = spectral.diagonalize_circulant(C)
        F = spectral.idft_basis(6)
        for m in range(6):
            np.testing.assert_allclose(C @ F[:, m], lam[m] * F[:, m], atol=1e-10)


def _structured(cfg, seed=0):
    plan = model.make_plan(cfg)
    ch = model.sample_channel_iid(cfg, model.trial_rng(seed, 0))
    return plan, ch, spectral.build_structured(cfg, plan, ch)


class TestBuildStructured:
    def test_reference_noncirculant_shape(self):
        # N=3, L_D=4, L_I=2: Hnc = [[0, -h2, 0], [0, 0, 0], [0, 0, h3]]
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
        plan, ch, st = _structured(cfg)
        h = ch.h(0, 0, 0)
        expect = np.zeros((3, 3), dtype=complex)
        expect[0, 1] = -h[2]
        expect[2, 2] = h[3]
        np.testing.assert_allclose(st.desired[(0, 0)].Hnc, expect, atol=1e-15)

    def test_decomposition_is_exact(self):
        # Hbar - Hnc is the circulant of the first min(L_kk, N) taps: exactly
        # when N covers the channel, to rounding when the taps wrap (L_kk > N)
        for L_D, exact in ((8, True), (4, False)):
            cfg = model.SystemConfig.symmetric(K=2, L_D=L_D, L_I=2, U=2)
            plan, ch, st = _structured(cfg)
            link = st.desired[(0, 0)]
            col = np.zeros(plan.N, dtype=complex)
            n_prime = min(L_D, plan.N)
            col[:n_prime] = ch.h(0, 0, 0)[:n_prime]
            if exact:
                np.testing.assert_array_equal(link.Hbar - link.Hnc, spectral.circulant(col))
            else:
                np.testing.assert_allclose(link.Hbar - link.Hnc, spectral.circulant(col),
                                           rtol=0, atol=1e-15 * np.abs(col).max())

    def test_lower_block_zero_when_n_covers_channel(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=3, U=1)
        plan, _, st = _structured(cfg)
        assert plan.N >= 8
        link = st.desired[(0, 0)]
        # no tap wraps past the core, so the non-circulant part is strictly upper triangular
        np.testing.assert_array_equal(np.tril(link.Hnc), 0.0)
        spectral.diagonalize_circulant(link.Hbar - link.Hnc)

    def test_block_dimensions_sum_to_n(self):
        # Hnc lives in a P x P upper corner and an (L_I - 1) x (L_I - 1) lower corner
        cfg = model.SystemConfig.symmetric(K=2, L_D=9, L_I=4, U=2)
        plan, _, st = _structured(cfg)
        Hnc = st.desired[(0, 0)].Hnc
        P = plan.N - plan.L_I + 1
        assert Hnc.shape == (plan.N, plan.N)
        np.testing.assert_array_equal(Hnc[:P, P:], 0.0)
        np.testing.assert_array_equal(Hnc[P:, :P], 0.0)
        assert np.any(Hnc[:P, :P]) and np.any(Hnc[P:, P:])

    @pytest.mark.parametrize("params", [(3, 2, 4), (8, 2, 8), (8, 2, 5), (8, 3, 6),
                                        (6, 4, 8), (9, 1, 8)])
    def test_channel_matrix_matches_convolution_oracle(self, params):
        N, L_I, L_kk = params
        rng = np.random.default_rng(42)
        for _ in range(5):
            h = rng.standard_normal(L_kk) + 1j * rng.standard_normal(L_kk)
            built = spectral.frame_response(h, N, L_I - 1)[L_I - 1 :, 1]
            np.testing.assert_allclose(built, direct_channel_matrix(h, N, L_I), atol=1e-12)

    @pytest.mark.parametrize("params", [(3, 2, 4), (8, 2, 8), (8, 2, 5), (8, 2, 6),
                                        (6, 4, 8), (9, 1, 8)])
    def test_isbi_matrix_matches_leakage_oracle(self, params):
        N, L_I, L_kk = params
        rng = np.random.default_rng(43)
        for _ in range(5):
            h = rng.standard_normal(L_kk) + 1j * rng.standard_normal(L_kk)
            np.testing.assert_allclose(
                spectral.frame_response(h, N, L_I - 1)[L_I - 1 :, 0],
                direct_isbi_matrix(h, N, L_I),
                atol=1e-12,
            )

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
            resp = spectral.frame_response(h, N, cp)
            assert resp.shape == (N + cp, 2, N)
            tol = 1e-12 * np.abs(h).max()
            np.testing.assert_allclose(resp[cp:, 1], direct_channel_matrix(h, N, cp + 1),
                                       rtol=0, atol=tol)
            np.testing.assert_allclose(resp[cp:, 0], direct_isbi_matrix(h, N, cp + 1),
                                       rtol=0, atol=tol)

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
            resp = spectral.frame_response(h, N, cp)
            lam = spectral.diagonalize_circulant(resp[cp:, 1])
            F = spectral.idft_basis(N)
            np.testing.assert_allclose(resp[cp:, 1] @ F, F * lam, atol=1e-12)
            np.testing.assert_array_equal(resp[cp:, 0], 0.0)

    def test_asymmetric_lengths(self):
        cir = [[5, 2, 2], [2, 6, 2], [2, 2, 8]]
        cfg = model.SystemConfig(K=3, users_per_cell=[2, 2, 2], cir_len=cir)
        plan, ch, st = _structured(cfg)
        for k, L_kk in enumerate([5, 6, 8]):
            h = ch.h(k, k, 0)
            np.testing.assert_allclose(
                st.desired[(k, 0)].Hbar, direct_channel_matrix(h, plan.N, plan.L_I),
                atol=1e-12,
            )
