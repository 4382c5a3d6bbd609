import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindim import model, spectral, verify
from oracles import (
    circulant,
    diagonalize_circulant,
    direct_channel_matrix,
    direct_isbi_matrix,
    framed_convolution,
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

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_zero(self, n):
        with pytest.raises(ValueError):
            spectral.idft_basis(n)

    @pytest.mark.parametrize("n", [2.5, np.float64(6.5), np.nan, np.inf, "8", None])
    def test_rejects_a_size_that_is_not_integral(self, n):
        # 2.5 once returned the 2-point basis; "8" and None raised TypeError
        with pytest.raises(ValueError, match=r"^n must be an integer >= 1 \(n="):
            spectral.idft_basis(n)

    @pytest.mark.parametrize("n", [np.int64(5), np.int32(5), 5.0])
    def test_integral_sizes_are_the_int_size(self, n):
        assert spectral.idft_basis(n) is spectral.idft_basis(5)

    def test_shared_and_read_only(self):
        # computed once per n, so no caller may write into it
        F = spectral.idft_basis(6)
        assert spectral.idft_basis(6) is F
        with pytest.raises(ValueError):
            F[0, 0] = 0.0


class TestFramedPrecoders:
    @pytest.mark.parametrize("N, cp, M", [(1, 0, 1), (4, 0, 2), (3, 1, 3), (5, 4, 1), (8, 3, 5)])
    def test_prefix_then_core(self, N, cp, M):
        # the last cp samples of each of f_1 .. f_M, then the whole column
        m = np.arange(N)
        F = np.exp(2j * np.pi * np.outer(m, m) / N) / np.sqrt(N)
        want = np.vstack([F[N - cp :, :M], F[:, :M]])
        np.testing.assert_allclose(spectral.framed_precoders(N, cp, M), want, rtol=0, atol=1e-15)


def _full_response(taps, N, cp, M):
    """frame_response's (gains, leak) laid out as the (..., N + cp + L - 1, U * M)
    received samples its docstring describes."""
    gains, leak = spectral.frame_response(taps, N, cp, M)
    *lead, U, L = np.shape(taps)
    out = np.zeros(tuple(lead) + (N + cp + L - 1, U * M), dtype=complex)
    steady = spectral.framed_precoders(N, cp, M)[:, None, :] * gains[..., None, :, :]
    out[..., : N + cp, :] = steady.reshape(tuple(lead) + (N + cp, U * M))
    leak = np.swapaxes(leak, -1, -2)
    out[..., : L - 1, :] -= leak
    out[..., N + cp :, :] += leak * np.tile(spectral.leakage_phase(N, cp, M), U)
    return out


def _frame(h, N, cp, M):
    """(N + cp, M): the samples of one link's _full_response within its frame."""
    return _full_response(np.asarray(h)[None], N, cp, M)[: N + cp]


class TestFrameResponse:
    @pytest.mark.parametrize("N, cp, M", [(1, 0, 1), (4, 0, 2), (3, 1, 3), (5, 4, 1), (8, 3, 5)])
    def test_unit_tap_reproduces_framed_precoders(self, N, cp, M):
        # h = delta, alone or followed by zero taps: unit gains and no leak,
        # so the response is the frame itself, cyclic prefix included, then
        # silence over the channel memory
        P = spectral.framed_precoders(N, cp, M)
        gains, leak = spectral.frame_response(np.ones((1, 1)), N, cp, M)
        assert leak.shape == (M, 0)
        np.testing.assert_allclose(gains, np.ones((1, M)), rtol=0, atol=1e-15)
        delta = np.zeros((1, 4), dtype=complex)
        delta[0, 0] = 1.0
        gains, leak = spectral.frame_response(delta, N, cp, M)
        np.testing.assert_array_equal(leak, np.zeros((M, 3)))
        got = _full_response(delta, N, cp, M)
        np.testing.assert_allclose(got, np.vstack([P, np.zeros((3, M))]), rtol=0, atol=1e-15)

    def test_gains_are_the_dft_of_the_taps(self):
        rng = np.random.default_rng(47)
        for N, cp, M, L in [(8, 3, 5, 6), (4, 0, 4, 4), (5, 2, 3, 1), (16, 7, 9, 16)]:
            taps = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
            gains, _ = spectral.frame_response(taps, N, cp, M)
            want = np.fft.fft(taps, N)[:, :M]
            assert np.abs(gains - want).max() <= 1e-12 * np.abs(want).max()

    def test_columns_are_full_convolutions(self):
        # column u * M + m is np.convolve of user u's taps with the framed
        # f_{m+1}, also for links longer than the frame
        rng = np.random.default_rng(45)
        for trial in range(60):
            N = int(rng.integers(1, 10))
            cp, M = int(rng.integers(0, N)), int(rng.integers(1, N + 1))
            U, L = int(rng.integers(1, 4)), int(rng.integers(1, 2 * (N + cp) + 2))
            taps = rng.standard_normal((U, L)) + 1j * rng.standard_normal((U, L))
            P = spectral.framed_precoders(N, cp, M)
            want = np.stack([np.convolve(h, P[:, m]) for h in taps for m in range(M)], axis=-1)
            got = _full_response(taps, N, cp, M)
            assert got.shape == (N + cp + L - 1, U * M)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_memory_does_not_grow_with_the_frame(self):
        # one (U, M, L) array of tap sums and two cached (M, L) tables,
        # whatever N + cp: a response kept sample by sample would need
        # (N + cp + L - 1) U M values, seven arrays' worth at N + cp = 1535
        U, M, L = 1, 200, 256
        taps = np.ones((U, L), dtype=complex)
        for N, cp in [(M, 1), (1024, 511)]:
            spectral.idft_basis(N)
            tracemalloc.start()
            spectral.frame_response(taps, N, cp, M)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak <= 4 * U * M * L * 16


class TestLeakagePhase:
    def test_powers_of_the_tone(self):
        for N, cp, M in [(3, 1, 3), (5, 4, 5), (8, 3, 4), (1, 0, 1)]:
            want = np.exp(2j * np.pi * np.arange(M) * cp / N)
            np.testing.assert_allclose(spectral.leakage_phase(N, cp, M), want, rtol=0, atol=1e-15)

    def test_array_prefix_stacks_rows(self):
        cps = np.arange(6) * 3
        got = spectral.leakage_phase(7, cps, 4)
        assert got.shape == (6, 4)
        for row, cp in zip(got, cps):
            np.testing.assert_array_equal(row, spectral.leakage_phase(7, cp, 4))

    def test_exponent_reduced_modulo_n(self):
        # a prefix N * 10^6 longer is the same phase to the bit: the exponent
        # is reduced before it is scaled, so no round-off grows with B cp
        for N, cp in [(3, 1), (7, 3), (32, 5)]:
            np.testing.assert_array_equal(spectral.leakage_phase(N, cp + 10**6 * N, N),
                                          spectral.leakage_phase(N, cp, N))


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


def _delayed_channels(cfg, plan, ch):
    """(H, H_int): spectral.delayed_effective_channels of every cell k, as
    dicts over k."""
    pairs = [spectral.delayed_effective_channels(cfg, plan, ch, k) for k in range(cfg.K)]
    return dict(enumerate(H for H, _ in pairs)), dict(enumerate(H_int for _, H_int in pairs))


class TestBuildStructured:
    def test_reference_noncirculant_shape(self):
        # N=3, L_D=4, L_I=2: Hnc = [[0, -h2, 0], [0, 0, 0], [0, 0, h3]], and the
        # projected first column is W Hnc f_1
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
        plan, ch, H = _structured(cfg)
        h = ch[(0, 0)][..., 0, :]
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
                h = ch[(0, 0)][..., u, :]
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
        h, cp, M = ch[(0, 0)][..., 0, :], plan.cp_len, plan.M[0]
        cols = direct_channel_matrix(h, plan.N, plan.L_I) @ spectral.idft_basis(plan.N)[:, :M]
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
            h = ch[(0, 0)][..., u, :]
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
            built = _frame(h, N, L_I - 1, N)[L_I - 1 :]
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
            cols = _frame(h, N, cp, N)[cp:]
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
            cols = _frame(h, N, cp, N)
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
                    h = ch[(k, k)][..., u, :]
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
            cols = _frame(h, N, cp, N)[cp:]
            lam = diagonalize_circulant(cols @ F.conj().T)
            np.testing.assert_allclose(cols, F * lam, atol=1e-12)
            np.testing.assert_allclose(F * tap_sums(h, N) - cols, 0.0, atol=1e-12)

    def test_matches_the_combined_convolution(self):
        # the decoder reads frame_response as the receiver does: H_k of base
        # and delayed plans, and a delayed plan's residual columns H_int, are W
        # times np.convolve of each active user's taps with the framed
        # precoders, cut to N_bar samples, for one draw and for a stack of
        # draws alike; cross links may outlast the frame
        rng = np.random.default_rng(46)
        seen = dict.fromkeys(("delayed", "H_int", "L > N_bar + 1"), 0)
        for case in range(150):
            if case % 3 == 2:
                L_D = int(rng.integers(2, 5))
                cir = [[L_D, int(rng.integers(2, 13))], [int(rng.integers(2, 13)), L_D]]
                cfg = model.SystemConfig(K=2, users_per_cell=[2, 3], cir_len=cir)
            else:
                cfg = random_config(rng, case % 5)
            plans = [model.make_plan(cfg)]
            L_I = model.link_lengths(cfg)[1]
            if L_I >= 2:
                L_I_prime = int(rng.integers(2, L_I + 1))
                L_I_d = int(rng.integers(1, L_I_prime))
                plans.append(model.make_delayed_plan(cfg, L_I_d, L_I_prime))
            draws = [model.sample_channel_iid(cfg, rng) for _ in range(2)]
            stack = {key: np.stack([d[key] for d in draws]) for key in draws[0]}
            for plan, ch in itertools.product(plans, (draws[0], stack)):
                W = spectral.combiner(plan)
                H_int = {}
                if plan.L_I_d:
                    H, H_int = _delayed_channels(cfg, plan, ch)
                else:
                    H = spectral.build_structured(cfg, plan, ch)
                for k in range(cfg.K):
                    taps = ch[(k, k)][..., : plan.U_active[k], :]
                    want = W @ framed_convolution(plan, taps, plan.M[k])
                    assert H[k].shape == want.shape
                    assert (np.abs(H[k] - want).max(initial=0)
                            <= 1e-12 * np.abs(want).max(initial=0))
                for k in H_int:
                    residual = []
                    for i in range(cfg.K):
                        if i != k and cfg.cir_len[k][i] > plan.L_I:
                            taps = ch[(k, i)][..., : plan.U_active[i], :].copy()
                            taps[..., : plan.L_I] = 0.0
                            residual.append(framed_convolution(plan, taps, 1))
                            seen["L > N_bar + 1"] += cfg.cir_len[k][i] > plan.N_bar + 1
                    want = W @ np.concatenate(
                        [np.zeros(H[k].shape[:-2] + (plan.N_bar, 0))] + residual, axis=-1)
                    assert H_int[k].shape == want.shape
                    assert (np.abs(H_int[k] - want).max(initial=0)
                            <= 1e-12 * np.abs(want).max(initial=0))
                    seen["H_int"] += bool(residual)
                seen["delayed"] += plan.L_I_d > 0
        assert min(seen.values()) >= 30, seen

    def test_asymmetric_lengths(self):
        cir = [[5, 2, 2], [2, 6, 2], [2, 2, 8]]
        cfg = model.SystemConfig(K=3, users_per_cell=[2, 2, 2], cir_len=cir)
        plan, ch, H = _structured(cfg)
        for k in range(3):
            M = plan.M[k]
            h = ch[(k, k)][..., 0, :]
            want = _dense_projection(plan, direct_channel_matrix(h, plan.N, plan.L_I), M)
            np.testing.assert_allclose(H[k][:, :M], want, atol=1e-12)


@st.composite
def table_cases(draw):
    """A valid config and a plan for it (make_plan's, or a delayed plan's when
    L_I >= 2, whose cross links past its L_I are residual), with taps for one
    draw or for a stack of two.  Desired links may be shorter than L_I, so a
    cell may have no active user, or long enough for more than
    TABLE_TAPS_PER_USER taps per user, which skip the table."""
    K = draw(st.integers(1, 3))
    L_I = 1 if K == 1 else draw(st.integers(1, 6))
    desired = st.integers(1, L_I + 8) | st.integers(L_I + 17, L_I + 40)
    cir = [[draw(desired if i == k else st.integers(1, L_I))
            for i in range(K)] for k in range(K)]
    if K > 1:
        cir[0][1] = L_I
    cfg = model.SystemConfig(K=K, users_per_cell=[draw(st.integers(1, 4)) for _ in range(K)],
                             cir_len=cir)
    plan = model.make_plan(cfg)
    if L_I >= 2 and draw(st.booleans()):
        L_I_prime = draw(st.integers(2, L_I))
        plan = model.make_delayed_plan(cfg, draw(st.integers(0, L_I_prime - 1)), L_I_prime)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.sampled_from([(), (2,)]))
    ch = {(k, i): rng.standard_normal(lead + (cfg.users_per_cell[i], cir[k][i], 2)) @ [1, 1j]
          for k in range(K) for i in range(K)}
    return cfg, plan, ch


def _oracle_relative(got, want, scale=None):
    """Largest error of got against want, relative to scale (by default, the
    largest entry of want)."""
    assert got.shape == want.shape
    if scale is None:
        scale = np.abs(want).max(initial=0)
    return np.abs(got - want).max(initial=0) / max(scale, 1e-300)


def _projected_relative(got, W, frames):
    """got against W @ frames, relative to the largest frame sample: W nulls
    the tones, which can leave a channel far smaller than the frames it is
    projected from, and the oracle's round-off scales with the frames."""
    return _oracle_relative(got, W @ frames, np.abs(frames).max(initial=0))


def _table(plan, L, M):
    return spectral._unit_response(plan.N, plan.cp_len, plan.L_I_d, plan.M_D, L, M)


class TestUnitResponse:
    """The per-plan table of the combined frame_response of unit taps, from
    which every effective channel is built."""

    @settings(max_examples=80, deadline=None)
    @given(table_cases())
    def test_channels_match_the_convolution_oracle(self, case):
        # H_k, and H_int of the cross links past the plan's L_I, equal W times
        # np.convolve of the taps with the framed precoders
        cfg, plan, ch = case
        W = spectral.combiner(plan)
        H, H_int = _delayed_channels(cfg, plan, ch)
        for k in range(cfg.K):
            taps = ch[(k, k)][..., : plan.U_active[k], :]
            assert _projected_relative(H[k], W, framed_convolution(plan, taps, plan.M[k])) <= 1e-12
            residual = []
            for i in range(cfg.K):
                if i != k and cfg.cir_len[k][i] > plan.L_I:
                    taps = ch[(k, i)][..., : plan.U_active[i], :].copy()
                    taps[..., : plan.L_I] = 0.0
                    residual.append(framed_convolution(plan, taps, 1))
            frames = np.concatenate([np.zeros(H[k].shape[:-2] + (plan.N_bar, 0))] + residual,
                                    axis=-1)
            assert _projected_relative(H_int[k], W, frames) <= 1e-12

    def test_one_table_per_length_and_load(self):
        # each (L, M) of a plan has its own table, whatever the order of the
        # requests: [l, m] is W times the framed convolution of the unit tap
        # at l with f_{m+1}, the fold included on a delayed plan.  W's rows and
        # the precoders have unit norm, so entries are at most sqrt(N_bar):
        # the tolerance is absolute, as a link within the prefix is nulled
        cfg = model.SystemConfig(K=2, users_per_cell=[1, 3], cir_len=[[9, 3], [4, 6]])
        for plan in (model.make_plan(cfg), model.make_delayed_plan(cfg, 2, 3)):
            W = spectral.combiner(plan)
            for L, M in [(4, 1), (7, 1), (7, 2), (4, 2), (9, 3), (2, 3), (9, 1)]:
                if M > plan.M_D:
                    continue
                table = _table(plan, L, M)
                want = np.moveaxis((W @ framed_convolution(plan, np.eye(L), M))
                                   .reshape(len(W), L, M), 0, -1)
                assert table.shape == want.shape
                assert np.abs(table - want).max() <= 1e-12

    @pytest.mark.parametrize("delayed", [False, True])
    def test_both_routes_match_the_oracle_alone_or_stacked(self, delayed):
        # 34 taps: one or two users take their own frame_response, three or
        # more read the table, and so does one user on 6 taps; either way the
        # channel equals W times the framed convolution of the taps, and a
        # draw gets the same channel alone as in a stack of draws: bit for bit
        # where its own product has more than one row, else to round-off
        # (numpy takes a one-row product as a vector product)
        cfg = model.SystemConfig.symmetric(K=2, L_D=34, L_I=4, U=6)
        plan = model.make_delayed_plan(cfg, 1, 3) if delayed else model.make_plan(cfg)
        W = spectral.combiner(plan)
        rng = np.random.default_rng(9)
        M = min(2, plan.M_D)   # a delayed plan sends f_1 only
        for U, L in ((1, 34), (2, 34), (3, 34), (6, 34), (1, 6)):
            stack = rng.standard_normal((4, U, L, 2)) @ [1, 1j]
            table = L <= spectral.TABLE_TAPS_PER_USER * U
            assert table == (U >= 3 or L == 6)
            spectral._unit_response.cache_clear()
            got = spectral.projected_response(plan, stack, M)
            assert bool(spectral._unit_response.cache_info().currsize) == table
            assert _projected_relative(got, W, framed_convolution(plan, stack, M)) <= 1e-12
            for d in range(len(stack)):
                alone = spectral.projected_response(plan, stack[d], M)
                if (U if table else U * M) > 1:
                    np.testing.assert_array_equal(alone, got[d])
                else:
                    assert np.abs(alone - got[d]).max() <= 1e-14 * np.abs(got[d]).max()

    def test_one_user_on_long_links_builds_no_table(self):
        # one user per cell and 256 taps: a table would hold 254 x 254 x 256
        # values (264 MB); the build stays within a few of one draw's (M, L)
        # tap sums, as a per-draw build does
        cfg = model.SystemConfig.symmetric(K=2, L_D=256, L_I=2, U=1)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(60, 0))
        spectral.idft_basis(plan.N)   # cached before tracing, as in a run
        tracemalloc.start()
        spectral.build_structured(cfg, plan, ch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 16 * plan.M_D * plan.L_D * 16

    def test_cached_and_read_only(self):
        plan = model.make_plan(model.SystemConfig.symmetric(K=2, L_D=6, L_I=2, U=2))
        table = _table(plan, 6, 2)
        assert _table(plan, 6, 2) is table
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            table[plan.L_I :][0, 0, 0] = 1.0
        # the combiner is shared the same way
        assert spectral.combiner(plan) is spectral.combiner(model.make_plan(
            model.SystemConfig.symmetric(K=3, L_D=6, L_I=2, U=2)))
        with pytest.raises(ValueError):
            spectral.combiner(plan)[0, 0] = 1.0

    @pytest.mark.parametrize("cfg", [
        model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3),
        model.SystemConfig.symmetric(K=3, L_D=9, L_I=3, U=6),
        model.SystemConfig(K=2, users_per_cell=[1, 2], cir_len=[[7, 2], [3, 5]]),
    ])
    def test_rows_past_the_prefix_are_the_rank_factors(self, cfg):
        # on a plan that is not delayed, taps l < L_I never reach the combined
        # core, and the rows l >= L_I are the paper's G_m of
        # W Hbar f_m = G_m h[L_I : L_kk]
        plan = model.make_plan(cfg)
        for k in range(cfg.K):
            L = cfg.cir_len[k][k]
            table = _table(plan, L, plan.M[k])
            assert not table[: plan.L_I].any()
            for m in range(1, plan.M[k] + 1):
                G = verify.build_rank_factors(plan, L, m)
                assert _oracle_relative(table[plan.L_I :, m - 1].T, G) <= 1e-12
