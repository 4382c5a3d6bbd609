import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindim import analysis, experiments, extensions, model, spectral, transceiver
from oracles import (
    combine_by_subblock,
    distance_comparison_by_distance,
    distance_comparison_by_trial,
    fold_matrix,
    ofdma_rate_by_subset,
    pdp_variance,
    residual_ici_rate_by_trial,
    sample_channel_by_user,
)


def delayed_case():
    """Two-cell case: L_kk = 5, cross links length 4 with 2 delay taps."""
    cfg = model.SystemConfig(
        K=2, users_per_cell=[3, 3], cir_len=[[5, 4], [4, 5]], subblocks=1
    )
    dp = extensions.DelayProfile(L_I_d=2, L_I_prime=4, L_I=4)
    return cfg, dp


def zero_delay_taps(ch, cfg, dp):
    for k in range(cfg.K):
        for i in range(cfg.K):
            if i != k:
                ch.taps[(k, i)][:, : dp.L_I_d] = 0.0
    return ch


class TestDelayProfile:
    def test_valid(self):
        dp = extensions.DelayProfile(L_I_d=3, L_I_prime=5, L_I=7)
        assert dp.L_I_eff == 4

    # (2, 2, 3) and (0, 0, 2): the harvested samples must lie in the prefix
    @pytest.mark.parametrize("args", [(-1, 2, 3), (3, 2, 3), (1, 5, 4), (2, 2, 3), (0, 0, 2)])
    def test_invalid_orderings(self, args):
        with pytest.raises(ValueError):
            extensions.DelayProfile(*args)


def _projector(plan):
    """W2 = F[:, M_D:]^H, the second stage of the two-stage receiver."""
    return spectral.idft_basis(plan.N)[:, plan.M_D :].conj().T


class TestTwoStageCombiner:
    """spectral.combiner on delayed plans equals W2 W1: the printed 0/1 fold
    matrices W1 followed by the projection W2."""

    def test_fold_matrix_4x7(self):
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        expect = np.zeros((4, 7))
        expect[np.arange(4), 3 + np.arange(4)] = 1.0
        expect[1, 0] = 1.0
        expect[2, 1] = 1.0
        np.testing.assert_array_equal(fold_matrix(dplan), expect)
        np.testing.assert_array_equal(spectral.combiner(dplan), _projector(dplan) @ expect)

    def test_fold_matrix_5x9(self):
        cfg, dp = experiments.fig5_config()
        dplan = extensions.make_delayed_plan(cfg, dp)
        expect = np.zeros((5, 9))
        expect[np.arange(5), 4 + np.arange(5)] = 1.0
        expect[1, 0] = 1.0
        expect[2, 1] = 1.0
        expect[3, 2] = 1.0
        np.testing.assert_array_equal(fold_matrix(dplan), expect)
        np.testing.assert_array_equal(spectral.combiner(dplan), _projector(dplan) @ expect)

    def test_zero_delay_reduces_to_row_selection(self):
        # N = 6, cp = 2: no fold, and the base plan of the same config has
        # the same combiner
        cfg = model.SystemConfig(K=2, users_per_cell=[5, 5], cir_len=[[8, 3], [3, 8]])
        dplan = extensions.make_delayed_plan(cfg, extensions.DelayProfile(0, 3, 3))
        expect = np.zeros((6, 8))
        expect[np.arange(6), 2 + np.arange(6)] = 1.0
        np.testing.assert_array_equal(spectral.combiner(dplan), _projector(dplan) @ expect)
        np.testing.assert_array_equal(spectral.combiner(dplan),
                                      spectral.combiner(model.make_plan(cfg)))

    def test_projector_dimensions(self):
        cfg, dp = experiments.fig5_config()
        dplan = extensions.make_delayed_plan(cfg, dp)
        W = spectral.combiner(dplan)
        assert W.shape == (4, 9)
        F = spectral.idft_basis(5)
        np.testing.assert_allclose(W[:, dplan.cp_len :] @ F[:, 0], 0.0, atol=1e-14)

    def test_no_valid_fold_when_delay_exceeds_prefix(self):
        # L_I_d = 2 harvested samples do not fit a prefix of L_I_prime - 1 = 1
        with pytest.raises(ValueError, match="L_I_d < L_I_prime"):
            extensions.DelayProfile(L_I_d=2, L_I_prime=2, L_I=3)

    def test_core_holds_every_harvested_sample(self):
        # a prefix longer than L_D - L_I_prime + 1 lengthens the core to
        # L_I_prime, so each harvested sample j lands on core sample N + j
        cfg = model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[4, 5], [5, 4]])
        for L_I_d in range(5):
            dplan = extensions.make_delayed_plan(cfg, extensions.DelayProfile(L_I_d, 5, 5))
            assert (dplan.N, dplan.cp_len, dplan.L_I_d) == (5, 4, L_I_d)
            W = spectral.combiner(dplan)
            np.testing.assert_array_equal(W, _projector(dplan) @ fold_matrix(dplan))


class TestDelayedPlan:
    def test_reference_plan(self):
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        assert dplan.N == 4
        assert dplan.cp_len == 3
        assert dplan.N_bar == 7
        assert dplan.U_active == (3, 3)
        assert dplan.M == (1, 1)

    def test_harvest_budget(self):
        # L_kk = L_I_prime: all activity comes from the harvested samples
        cfg, dp = experiments.fig5_config()
        dplan = extensions.make_delayed_plan(cfg, dp)
        assert dplan.N == 5
        assert dplan.cp_len == 4
        assert dplan.U_active == (3,) * 7

    def test_rejects_cross_link_longer_than_profile(self):
        # L_I = 1 would make the block too short for the 20-tap cross links
        cfg = model.SystemConfig(K=2, users_per_cell=[1, 1], cir_len=[[3, 20], [20, 3]])
        dp = extensions.DelayProfile(L_I_d=0, L_I_prime=1, L_I=1)
        with pytest.raises(model.ConfigError, match=r"\(k=0, i=1\) has L=20 taps") as exc:
            extensions.make_delayed_plan(cfg, dp)
        assert len(exc.value.violations) == 2

    def test_caps_users_at_observed_rows(self):
        # L_I_d = 3 harvested samples would admit 4 users per cell, but the
        # combiner observes only N - M_D = 3 rows
        cfg = model.SystemConfig(K=2, users_per_cell=[4, 4], cir_len=[[5, 4], [4, 5]])
        dp = extensions.DelayProfile(L_I_d=3, L_I_prime=4, L_I=4)
        dplan = extensions.make_delayed_plan(cfg, dp)
        assert dplan.N - dplan.M_D == 3
        assert dplan.U_active == (3, 3)
        worst = 0.0
        for t in range(200):
            rng = model.trial_rng(4, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dp)
            symbols = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)}
            result = extensions.decode_delayed_ici(cfg, dplan, ch, dp, symbols)
            for k in range(2):
                worst = max(worst, np.abs(result.s_hat[k][0] - symbols[k]).max())
        assert worst <= 1e-9


class TestCompositeChannel:
    def test_composite_ici_is_circulant_on_common_precoder(self):
        # a delayed interfering link becomes circulant after the fold: the
        # folded running tap sum (its response to f_1) is a multiple of f_1
        # and the combiner removes it entirely
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        W = spectral.combiner(dplan)
        f1 = spectral.idft_basis(dplan.N)[:, 0]
        w = dplan.cp_len + dplan.N
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = np.zeros(4, dtype=complex)
            h[dp.L_I_d :] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            frame = np.cumsum(np.pad(h, (0, w - h.size))) / np.sqrt(dplan.N)
            np.testing.assert_allclose(
                frame, np.convolve(h, np.full(w, 1 / np.sqrt(dplan.N)))[:w], atol=1e-12
            )
            folded = fold_matrix(dplan) @ frame
            np.testing.assert_allclose(folded, (f1.conj() @ folded) * f1, atol=1e-12)
            np.testing.assert_allclose(W @ frame, 0.0, atol=1e-12)
            np.testing.assert_allclose(
                W @ spectral.frame_columns(h[None, :], dplan.N, dplan.cp_len, 1), 0.0,
                atol=1e-12)

    def test_conv_window_matches_numpy(self):
        # with no prefix, the current core's response is the first N samples
        # of its linear convolution with the taps
        rng = np.random.default_rng(1)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = spectral.idft_basis(6).conj().T @ x   # x = F s
        np.testing.assert_allclose(
            spectral.frame_columns(h[None], 6, 0, 6) @ s, np.convolve(h, x)[:6], atol=1e-12
        )

    def test_cp_expand(self):
        # a unit tap passes the framed core through unchanged: prefix, then
        # core; with the core complete in the kept samples nothing leaks
        F = spectral.idft_basis(4)
        cols = spectral.frame_columns(np.ones((1, 1)), 4, 3, 4)
        x = np.arange(4.0)
        np.testing.assert_allclose(cols @ (F.conj().T @ x), [1, 2, 3, 0, 1, 2, 3], atol=1e-12)
        np.testing.assert_allclose(cols[3:], F, atol=1e-15)

    def test_delayed_columns_match_simulated_reception(self):
        # each column of H is the fold and the DFT rows applied to the received
        # frame of one unit symbol sent through the base scheme's framing and
        # convolution
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        for t in range(10):
            ch = zero_delay_taps(model.sample_channel_iid(cfg, model.trial_rng(3, t)), cfg, dp)
            _, H, _ = extensions.delayed_effective_channels(cfg, dplan, dp, ch)
            for k in range(cfg.K):
                for u in range(dplan.U_active[k]):
                    tx = {}
                    for i in range(cfg.K):
                        s = np.zeros((1, dplan.U_active[i], dplan.M[i]), dtype=complex)
                        if i == k:
                            s[0, u, 0] = 1.0
                        tx[i] = transceiver.precode_and_frame(dplan, i, s)
                    y = transceiver.simulate_reception(cfg, dplan, ch, tx)
                    want = combine_by_subblock(dplan, y[k])[0]
                    err = np.linalg.norm(H[k][:, u] - want)
                    assert err <= 1e-12 * np.linalg.norm(want)


class TestDelayedDecoding:
    def test_noiseless_recovery(self):
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        for t in range(50):
            rng = model.trial_rng(0, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dp)
            symbols = {
                k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)
            }
            result = extensions.decode_delayed_ici(cfg, dplan, ch, dp, symbols)
            for k in range(2):
                np.testing.assert_allclose(result.s_hat[k][0], symbols[k], atol=1e-9)

    def test_noisy_matches_per_cell_lstsq(self):
        # the SVD projection against least squares on the same folded and
        # combined observations: both are backward stable, so they may differ
        # by a few cond(H_k) * eps relative
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        for t in range(100):
            rng = model.trial_rng(2, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dp)
            symbols = {
                k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)
            }
            got = extensions.decode_delayed_ici(cfg, dplan, ch, dp, symbols,
                                                noise_rng=model.trial_rng(3, t), noise_var=0.5)
            tx = {i: transceiver.precode_and_frame(dplan, i, symbols[i].reshape(1, 3, 1))
                  for i in range(2)}
            y = transceiver.simulate_reception(cfg, dplan, ch, tx, rng=model.trial_rng(3, t),
                                               noise_var=0.5)
            _, H, _ = extensions.delayed_effective_channels(cfg, dplan, dp, ch)
            for k in range(2):
                obs = combine_by_subblock(dplan, y[k])[0]
                want = np.linalg.lstsq(H[k], obs, rcond=None)[0]
                assert got.s_hat[k].shape == (1, 3)
                err = np.abs(got.s_hat[k][0] - want).max() / np.abs(want).max()
                assert err <= 16 * np.linalg.cond(H[k]) * np.finfo(float).eps

    def test_rejects_rank_deficient_channel(self):
        # two users of cell 1 with identical taps cannot be separated
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        ch = zero_delay_taps(model.sample_channel_iid(cfg, model.trial_rng(0, 0)), cfg, dp)
        ch.taps[(1, 1)][1] = ch.taps[(1, 1)][0]
        with pytest.raises(transceiver.RankDeficientError, match="cell 1"):
            extensions.decode_delayed_ici(cfg, dplan, ch, dp, {0: np.ones(3), 1: np.ones(3)})

    def test_rejects_more_users_than_observations(self):
        # more users than observed rows: make_delayed_plan caps U'_k at
        # N - M_D, so a hand-built 3 x 4 channel reaches the detector's check
        H = np.random.default_rng(0).standard_normal((3, 4)) + 0j
        with pytest.raises(transceiver.RankDeficientError, match="cell 0"):
            transceiver.zf_projection(H, "cell 0: effective channel")

    def test_three_symbols_per_seven_samples(self):
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        assert dplan.U_active[0] * dplan.M[0] == 3
        assert dplan.N_bar == 7

    def test_effective_rank_is_three(self):
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        for t in range(100):
            ch = zero_delay_taps(
                model.sample_channel_iid(cfg, model.trial_rng(1, t)), cfg, dp
            )
            _, H, _ = extensions.delayed_effective_channels(cfg, dplan, dp, ch)
            for k in range(2):
                assert np.linalg.matrix_rank(H[k], tol=1e-8) == 3

    def test_multi_subblock_rejected(self):
        cfg, dp = delayed_case()
        import dataclasses

        cfg = dataclasses.replace(cfg, subblocks=2)
        dplan = extensions.make_delayed_plan(cfg, dp)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        with pytest.raises(ValueError):
            extensions.decode_delayed_ici(cfg, dplan, ch, dp, {0: np.ones(3), 1: np.ones(3)})


class TestResidualIciRate:
    def _setup(self, seed=0):
        cfg, dp = experiments.fig5_config()
        dplan = extensions.make_delayed_plan(cfg, dp)
        dep = model.Deployment(ici_delay_taps=dp.L_I_d)
        pos = model.hex_deployment(dep.site_spacing_m, 100.0, [3] * 7)
        ch = model.sample_channel_geometric(cfg, dep, pos, model.trial_rng(seed, 0))
        return cfg, dp, dplan, ch

    def test_deterministic(self):
        cfg, dp, dplan, ch = self._setup()
        a = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 0.2, 1e-12, cells=[0])
        b = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 0.2, 1e-12, cells=[0])
        np.testing.assert_array_equal(a, b)

    def test_monotone_in_power(self):
        cfg, dp, dplan, ch = self._setup()
        rates = [
            extensions.rate_with_residual_ici(cfg, dplan, dp, ch, p, 1e-12, cells=[0])[0]
            for p in (0.01, 0.1, 1.0)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_residual_ici_reduces_high_power_slope(self):
        # taps in [L_I_prime, L_I) survive the projection; the interference
        # subspace they span eats into the three-stream slope at high power
        cfg, dp, dplan, ch = self._setup()
        _, _, H_int = extensions.delayed_effective_channels(cfg, dplan, dp, ch)
        free = dplan.N - dplan.M_D - np.linalg.matrix_rank(H_int[0], tol=None)
        assert free < 3
        r12 = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 1e12, 1e-12, cells=[0])[0]
        r15 = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 1e15, 1e-12, cells=[0])[0]
        slope = (r15 - r12) / np.log2(1e3)
        assert slope == pytest.approx(free * dplan.B / dplan.T, rel=0.05)

    def test_unbounded_without_residual_taps(self):
        # cross links no longer than L_I_prime leave no residual interference
        cfg, dp = delayed_case()
        dplan = extensions.make_delayed_plan(cfg, dp)
        ch = zero_delay_taps(
            model.sample_channel_iid(cfg, model.trial_rng(2, 0)), cfg, dp
        )
        r6 = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 1e6, 1.0, cells=[0])[0]
        r9 = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 1e9, 1.0, cells=[0])[0]
        # three streams, prefactor B / T: the rate keeps its full slope
        expect = 3 * np.log2(1e3) * dplan.B / dplan.T
        assert r9 - r6 == pytest.approx(expect, rel=0.01)

    def test_requested_cells_only(self):
        cfg, dp, dplan, ch = self._setup()
        rates = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 0.2, 1e-12, cells=[0])
        assert rates[0] > 0
        np.testing.assert_array_equal(rates[1:], 0.0)
        _, H, H_int = extensions.delayed_effective_channels(cfg, dplan, dp, ch, cells=[0])
        assert list(H) == list(H_int) == [0]

    def test_requested_cell_rate_matches_all_cells(self):
        cfg, dp, dplan, ch = self._setup(seed=3)
        alone = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 0.2, 1e-12, cells=[0])
        every = extensions.rate_with_residual_ici(cfg, dplan, dp, ch, 0.2, 1e-12)
        assert alone[0] == every[0]
        assert np.all(every[1:] > 0)


class TestOfdmaComparator:
    def test_no_interference_single_cell(self):
        cfg = model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[3]])
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        n_sc, L_D, P, s2 = 8, 3, 2.0, 0.5
        lam = np.fft.fft(ch.h(0, 0, 0), n_sc)
        expect = np.sum(np.log2(1 + P * np.abs(lam) ** 2 / s2)) / (n_sc + L_D - 1)
        got = analysis.ofdma_rate_with_ici(cfg, ch, P, s2, L_D=L_D, n_sc=n_sc)[0]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_interference_reduces_rate(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=3, U=2)
        ch = model.sample_channel_iid(cfg, model.trial_rng(1, 0))
        with_ici = analysis.ofdma_rate_with_ici(cfg, ch, 1.0, 1e-6, L_D=4, n_sc=16)[0]
        ch.taps[(0, 1)][:] = 0.0
        without = analysis.ofdma_rate_with_ici(cfg, ch, 1.0, 1e-6, L_D=4, n_sc=16)[0]
        assert with_ici < without


@st.composite
def geometric_cases(draw):
    """A random valid config, deployment and delay profile for the fig5 path:
    K in 1..4, asymmetric users and link lengths, a scalar or K x K decay."""
    K = draw(st.integers(1, 4))
    users = draw(st.lists(st.integers(1, 4), min_size=K, max_size=K))
    cir = draw(st.lists(st.lists(st.integers(1, 9), min_size=K, max_size=K),
                        min_size=K, max_size=K))
    decay = st.floats(0.0, 3.0)
    beta = draw(decay | st.lists(st.lists(decay, min_size=K, max_size=K),
                                 min_size=K, max_size=K))
    cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir)
    _, L_I = model.link_lengths(cfg)
    L_I_prime = draw(st.integers(1, L_I))
    L_I_d = draw(st.integers(0, max(L_I_prime - 1, 0)))
    dp = extensions.DelayProfile(L_I_d=L_I_d, L_I_prime=L_I_prime, L_I=L_I)
    dep = model.Deployment(pdp_decay=beta, ici_delay_taps=draw(st.integers(0, 4)),
                           ref_loss_db=0.0, pathloss_exponent=draw(st.floats(2.0, 4.0)))
    return cfg, dp, dep, draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 4))


def _max_rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


class TestBatchedFig5Path:
    """The fig5 path over stacked trials against one-trial, one-user oracles."""

    @settings(max_examples=60, deadline=None)
    @given(geometric_cases())
    # rates near 1e-5 bit/s/Hz: a difference of two log-determinants was off
    # by 2e-12 relative here
    @example((model.SystemConfig(K=4, users_per_cell=(1, 1, 3, 1),
                                 cir_len=((4, 1, 1, 1), (1, 4, 1, 1), (1, 1, 1, 2), (4, 6, 1, 4))),
              extensions.DelayProfile(L_I_d=0, L_I_prime=3, L_I=6),
              model.Deployment(pdp_decay=3.0, ici_delay_taps=4, ref_loss_db=0.0,
                               pathloss_exponent=2.0),
              0, 1))
    def test_matches_per_trial_oracles(self, case):
        cfg, dp, dep, seed, trials = case
        L_D, L_I = model.link_lengths(cfg)
        for k in range(cfg.K):
            for i in range(cfg.K):
                L = cfg.cir_len[k][i]
                want = [pdp_variance(dep, k, i, ell, L_D, L_I) for ell in range(L)]
                np.testing.assert_allclose(model.pdp_profile(dep, k, i, L, L_D, L_I), want,
                                           rtol=1e-15, atol=0)

        rng = np.random.default_rng(seed)
        dist = rng.uniform(0.5, 3.0, (cfg.K, cfg.K, max(cfg.users_per_cell)))
        pos = model.Positions(np.zeros((cfg.K, 2)), np.zeros((cfg.K, dist.shape[2], 2)), dist)
        draws = [model.sample_channel_geometric(cfg, dep, pos, model.trial_rng(seed, t))
                 for t in range(trials)]
        for t, ch in enumerate(draws):
            want = sample_channel_by_user(cfg, dep, pos, model.trial_rng(seed, t))
            for key in want.taps:
                np.testing.assert_array_equal(ch.taps[key], want.taps[key])

        stacked = model.ChannelRealization(
            {key: np.stack([ch.taps[key] for ch in draws]) for key in draws[0].taps})
        dplan = extensions.make_delayed_plan(cfg, dp)
        n_sc = int(rng.integers(1, 10))
        for cells in (None, [0]):
            got = extensions.rate_with_residual_ici(cfg, dplan, dp, stacked, 1.0, 0.1, cells)
            want = [residual_ici_rate_by_trial(cfg, dplan, dp, ch, 1.0, 0.1, cells)
                    for ch in draws]
            assert got.shape == (trials, cfg.K)
            assert _max_rel(got, np.array(want)) <= 1e-12
            got = analysis.ofdma_rate_with_ici(cfg, stacked, 1.0, 0.1, L_D, n_sc, cells)
            want = [ofdma_rate_by_subset(cfg, ch, 1.0, 0.1, L_D, n_sc, cells) for ch in draws]
            assert got.shape == (trials, cfg.K)
            assert _max_rel(got, np.array(want)) <= 1e-12

    def test_distance_sweep_matches_trial_loop(self, monkeypatch):
        grid = [20.0, 80.0, 140.0]
        want = np.array(distance_comparison_by_trial(grid, trials=12, seed=5))
        for block in (model.TRIAL_BLOCK, 5):   # one block, then three
            monkeypatch.setattr(model, "TRIAL_BLOCK", block)
            got = np.array(experiments.run_distance_comparison(d_user_grid=grid, trials=12, seed=5))
            np.testing.assert_array_equal(got[:, 0], grid)
            np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-12, atol=0)


FIG5_GRID = tuple(np.arange(20.0, 150.0, 10.0))


class TestDistanceGrouping:
    """run_distance_comparison's grouped rate calls against one pair of rate
    calls per distance: the same sums bit for bit, and no call over
    model.TRIAL_BLOCK realizations."""

    @pytest.mark.parametrize("block, trials, grid, calls", [
        (6, 12, FIG5_GRID, 2 * 13),   # step 1: one distance per call
        (20, 4, FIG5_GRID, 3),        # step 5 leaves 3 distances for the last call
        (256, 2, FIG5_GRID, 1),       # the whole grid in one call
        (256, 3, (60.0,), 1),         # a single distance
    ])
    def test_matches_one_call_per_distance(self, monkeypatch, block, trials, grid, calls):
        monkeypatch.setattr(model, "TRIAL_BLOCK", block)
        want = distance_comparison_by_distance(list(grid), trials=trials, seed=3)
        sizes = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                ch = next(a for a in args if isinstance(a, model.ChannelRealization))
                sizes.setdefault(name, []).extend(
                    math.prod(taps.shape[:-2]) for taps in ch.taps.values())
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(experiments, "rate_with_residual_ici")
        counting(analysis, "ofdma_rate_with_ici")
        got = experiments.run_distance_comparison(list(grid), trials=trials, seed=3)
        np.testing.assert_array_equal(np.array(got), np.array(want))
        for name in ("rate_with_residual_ici", "ofdma_rate_with_ici"):
            # seven links into cell 0 per call
            assert len(sizes[name]) == 7 * calls
            assert max(sizes[name]) <= block
