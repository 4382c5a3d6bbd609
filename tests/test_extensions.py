import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindim import analysis, model, spectral, transceiver
from oracles import (
    combine_by_subblock,
    distance_comparison_by_distance,
    distance_comparison_by_trial,
    fold_matrix,
    framed_convolution,
    gain_by_user,
    ofdma_rate_by_subset,
    pdp_variance,
    residual_columns_by_link,
    residual_ici_rate_by_trial,
    sample_channel_by_user,
)
from test_model import geometric_draws, hex_gains
from test_spectral import _full_response


def delayed_case():
    """Two-cell case: L_kk = 5, cross links length 4 with 2 delay taps."""
    cfg = model.SystemConfig(
        K=2, users_per_cell=[3, 3], cir_len=[[5, 4], [4, 5]], subblocks=1
    )
    return cfg, model.make_delayed_plan(cfg, L_I_d=2, L_I_prime=4)


def zero_delay_taps(ch, cfg, dplan):
    for k in range(cfg.K):
        for i in range(cfg.K):
            if i != k:
                ch[(k, i)][:, : dplan.L_I_d] = 0.0
    return ch


def at_snr(cfg, P, noise_var):
    """cfg at the SNR rho = P / noise_var, set as snr_db."""
    return dataclasses.replace(cfg, snr_db=10.0 * math.log10(P / noise_var))


def single_symbols(dplan, symbols):
    """simulate_link's (1, U'_k, 1) symbols of one length-U'_k vector per cell."""
    return {k: np.reshape(s, (1, dplan.U_active[k], 1)) for k, s in symbols.items()}


class TestDelayProfile:
    """The delay profile (L_I_d, L_I_prime, L_I) make_delayed_plan accepts,
    with L_I the config's longest cross link."""

    def test_valid(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=5, L_I=7, U=3)
        dplan = model.make_delayed_plan(cfg, L_I_d=3, L_I_prime=5)
        assert (dplan.L_I_d, dplan.L_I) == (3, 5)
        assert dplan.T == cfg.subblocks * dplan.N_bar + 7 - 1

    # (2, 2, 3) and (0, 0, 2): the harvested samples must lie in the prefix
    @pytest.mark.parametrize("args", [(-1, 2, 3), (3, 2, 3), (1, 5, 4), (2, 2, 3), (0, 0, 2)])
    def test_invalid_orderings(self, args):
        L_I_d, L_I_prime, L_I = args
        cfg = model.SystemConfig.symmetric(K=2, L_D=5, L_I=L_I, U=3)
        with pytest.raises(model.ConfigError, match="L_I_d < L_I_prime"):
            model.make_delayed_plan(cfg, L_I_d, L_I_prime)

    # each size within 0 <= L_I_d < L_I_prime <= L_I = 7 but for its fraction
    @pytest.mark.parametrize("sizes", [(1.5, 3), (1, 3.5), (np.float64(0.5), 5),
                                       (math.nan, 3), (1, math.inf), ("1", 3)])
    def test_rejects_a_size_that_is_not_integral(self, sizes):
        cfg = model.SystemConfig.symmetric(K=2, L_D=5, L_I=7, U=3)
        with pytest.raises(model.ConfigError, match="require integers"):
            model.make_delayed_plan(cfg, *sizes)

    @pytest.mark.parametrize("sizes", [(np.int64(3), np.int32(5)), (3.0, np.float64(5.0))])
    def test_integral_sizes_are_the_int_sizes(self, sizes):
        cfg = model.SystemConfig.symmetric(K=2, L_D=5, L_I=7, U=3)
        dplan = model.make_delayed_plan(cfg, *sizes)
        assert dplan == model.make_delayed_plan(cfg, 3, 5)
        assert type(dplan.L_I_d) is int and type(dplan.L_I) is int
        assert (type(dplan.N), type(dplan.T)) == (int, int)


def _projector(plan):
    """W2 = F[:, M_D:]^H, the second stage of the two-stage receiver."""
    return spectral.idft_basis(plan.N)[:, plan.M_D :].conj().T


class TestTwoStageCombiner:
    """spectral.combiner on delayed plans equals W2 W1: the printed 0/1 fold
    matrices W1 followed by the projection W2."""

    def test_fold_matrix_4x7(self):
        cfg, dplan = delayed_case()
        expect = np.zeros((4, 7))
        expect[np.arange(4), 3 + np.arange(4)] = 1.0
        expect[1, 0] = 1.0
        expect[2, 1] = 1.0
        np.testing.assert_array_equal(fold_matrix(dplan), expect)
        np.testing.assert_array_equal(spectral.combiner(dplan), _projector(dplan) @ expect)

    def test_fold_matrix_5x9(self):
        cfg, dplan = analysis.fig5_config()
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
        dplan = model.make_delayed_plan(cfg, 0, 3)
        expect = np.zeros((6, 8))
        expect[np.arange(6), 2 + np.arange(6)] = 1.0
        np.testing.assert_array_equal(spectral.combiner(dplan), _projector(dplan) @ expect)
        np.testing.assert_array_equal(spectral.combiner(dplan),
                                      spectral.combiner(model.make_plan(cfg)))

    def test_projector_dimensions(self):
        cfg, dplan = analysis.fig5_config()
        W = spectral.combiner(dplan)
        assert W.shape == (4, 9)
        F = spectral.idft_basis(5)
        np.testing.assert_allclose(W[:, dplan.cp_len :] @ F[:, 0], 0.0, atol=1e-14)

    def test_no_valid_fold_when_delay_exceeds_prefix(self):
        # L_I_d = 2 harvested samples do not fit a prefix of L_I_prime - 1 = 1
        cfg = model.SystemConfig.symmetric(K=2, L_D=5, L_I=3, U=3)
        with pytest.raises(model.ConfigError, match="L_I_d < L_I_prime"):
            model.make_delayed_plan(cfg, L_I_d=2, L_I_prime=2)

    def test_core_holds_every_harvested_sample(self):
        # a prefix longer than L_D - L_I_prime + 1 lengthens the core to
        # L_I_prime, so each harvested sample j lands on core sample N + j
        cfg = model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[4, 5], [5, 4]])
        for L_I_d in range(5):
            dplan = model.make_delayed_plan(cfg, L_I_d, 5)
            assert (dplan.N, dplan.cp_len, dplan.L_I_d) == (5, 4, L_I_d)
            W = spectral.combiner(dplan)
            np.testing.assert_array_equal(W, _projector(dplan) @ fold_matrix(dplan))


class TestDelayedPlan:
    def test_reference_plan(self):
        cfg, dplan = delayed_case()
        assert dplan.N == 4
        assert dplan.cp_len == 3
        assert dplan.N_bar == 7
        assert dplan.U_active == (3, 3)
        assert dplan.M == (1, 1)

    def test_harvest_budget(self):
        # L_kk = L_I_prime: all activity comes from the harvested samples
        cfg, dplan = analysis.fig5_config()
        assert dplan.N == 5
        assert dplan.cp_len == 4
        assert dplan.U_active == (3,) * 7
        # T = B * N_bar + L_I - 1 flushes the config's 7-tap cross links
        assert (dplan.N_bar, dplan.T, dplan.B) == (9, 96, 10)
        assert (dplan.L_I, dplan.L_I_d) == (5, 3)

    def test_fig5_config_is_the_explicit_network(self):
        # seven cells of 3 users, 5-tap desired and 7-tap cross links
        cir = [[5 if k == i else 7 for i in range(7)] for k in range(7)]
        snr_db = 23.0 - (-174.0 + 10.0 * math.log10(100.0))
        for seed in (0, 7):
            cfg, _ = analysis.fig5_config(seed)
            assert cfg == model.SystemConfig(K=7, users_per_cell=[3] * 7, cir_len=cir,
                                             snr_db=snr_db, subblocks=10, seed=seed)

    def test_caps_users_at_observed_rows(self):
        # L_I_d = 3 harvested samples would admit 4 users per cell, but the
        # combiner observes only N - M_D = 3 rows
        cfg = model.SystemConfig(K=2, users_per_cell=[4, 4], cir_len=[[5, 4], [4, 5]])
        dplan = model.make_delayed_plan(cfg, L_I_d=3, L_I_prime=4)
        assert dplan.N - dplan.M_D == 3
        assert dplan.U_active == (3, 3)
        worst = 0.0
        for t in range(200):
            rng = model.trial_rng(4, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dplan)
            symbols = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)}
            result = transceiver.simulate_link(cfg, dplan, ch, single_symbols(dplan, symbols))
            for k in range(2):
                worst = max(worst, np.abs(result.s_hat[k][0] - symbols[k]).max())
        assert worst <= 1e-9


class TestCompositeChannel:
    def test_composite_ici_is_circulant_on_common_precoder(self):
        # a delayed interfering link becomes circulant after the fold: the
        # folded running tap sum (its response to f_1) is a multiple of f_1
        # and the combiner removes it entirely
        cfg, dplan = delayed_case()
        W = spectral.combiner(dplan)
        f1 = spectral.idft_basis(dplan.N)[:, 0]
        w = dplan.cp_len + dplan.N
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = np.zeros(4, dtype=complex)
            h[dplan.L_I_d :] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            frame = np.cumsum(np.pad(h, (0, w - h.size))) / np.sqrt(dplan.N)
            np.testing.assert_allclose(
                frame, np.convolve(h, np.full(w, 1 / np.sqrt(dplan.N)))[:w], atol=1e-12
            )
            folded = fold_matrix(dplan) @ frame
            np.testing.assert_allclose(folded, (f1.conj() @ folded) * f1, atol=1e-12)
            np.testing.assert_allclose(W @ frame, 0.0, atol=1e-12)
            np.testing.assert_allclose(
                spectral.projected_response(dplan, h[None, :], 1), 0.0, atol=1e-12)

    def test_conv_window_matches_numpy(self):
        # with no prefix, the current core's response is the first N samples
        # of its linear convolution with the taps
        rng = np.random.default_rng(1)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        s = spectral.idft_basis(6).conj().T @ x   # x = F s
        np.testing.assert_allclose(
            _full_response(h[None], 6, 0, 6)[:6] @ s, np.convolve(h, x)[:6], atol=1e-12
        )

    def test_cp_expand(self):
        # a unit tap passes the framed core through unchanged: prefix, then
        # core; with the core complete in the kept samples nothing leaks
        F = spectral.idft_basis(4)
        cols = _full_response(np.ones((1, 1)), 4, 3, 4)
        x = np.arange(4.0)
        np.testing.assert_allclose(cols @ (F.conj().T @ x), [1, 2, 3, 0, 1, 2, 3], atol=1e-12)
        np.testing.assert_allclose(cols[3:], F, atol=1e-15)

    def test_delayed_columns_match_simulated_reception(self):
        # each column of H is the fold and the DFT rows applied to the received
        # frame of one unit symbol sent through the base scheme's framing and
        # convolution
        cfg, dplan = delayed_case()
        for t in range(10):
            ch = zero_delay_taps(model.sample_channel_iid(cfg, model.trial_rng(3, t)), cfg, dplan)
            for k in range(cfg.K):
                H_k, _ = spectral.delayed_effective_channels(cfg, dplan, ch, k)
                for u in range(dplan.U_active[k]):
                    unit = {i: np.zeros((1, dplan.U_active[i], dplan.M[i]), dtype=complex)
                            for i in range(cfg.K)}
                    unit[k][0, u, 0] = 1.0
                    y = transceiver.simulate_reception(cfg, dplan, ch, unit)
                    want = combine_by_subblock(dplan, y[k])[0]
                    err = np.linalg.norm(H_k[:, u] - want)
                    assert err <= 1e-12 * np.linalg.norm(want)


@st.composite
def residual_cases(draw):
    """A delayed plan with residual cross links of mixed lengths and user
    counts, and taps for one draw or a stack: cross links are cancelled (at
    most L_I_prime taps), a few taps past it, or 34 taps, which a cell's
    stack of a few active users takes by the per-draw route of
    projected_response and of more users by its table."""
    K = draw(st.integers(2, 4))
    L_I_prime = draw(st.integers(2, 4))
    cross = st.sampled_from([1, L_I_prime, L_I_prime + 1, L_I_prime + 3, 34])
    cir = [[draw(st.integers(1, 12)) if i == k else draw(cross) for i in range(K)]
           for k in range(K)]
    cir[1][0] = max(cir[1][0], L_I_prime)
    cfg = model.SystemConfig(K=K, users_per_cell=[draw(st.integers(1, 4)) for _ in range(K)],
                             cir_len=cir)
    dplan = model.make_delayed_plan(cfg, draw(st.integers(0, L_I_prime - 1)), L_I_prime)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lead = draw(st.sampled_from([(), (2,), (3, 2)]))
    return cfg, dplan, _draw_taps(cfg, rng, lead)


def _draw_taps(cfg, rng, lead):
    return {(k, i): rng.standard_normal(lead + (cfg.users_per_cell[i], cfg.cir_len[k][i], 2))
            @ [1, 1j] for k in range(cfg.K) for i in range(cfg.K)}


def _interleaved_case(lead):
    """Into cell 0: lengths 34, 6, 34, 3 (cancelled), 6 in link order, so the
    residual lengths interleave; cells 1 and 3 have one and two active users
    on the 34-tap links."""
    cir = [[6, 34, 6, 34, 3, 6],
           [4, 6, 4, 4, 4, 4],
           [4, 4, 6, 4, 4, 4],
           [4, 4, 4, 6, 4, 4],
           [4, 4, 4, 4, 6, 4],
           [4, 4, 4, 4, 4, 6]]
    cfg = model.SystemConfig(K=6, users_per_cell=[2, 1, 2, 2, 2, 2], cir_len=cir)
    dplan = model.make_delayed_plan(cfg, L_I_d=1, L_I_prime=4)
    assert dplan.U_active == (2, 1, 2, 2, 2, 2)
    return cfg, dplan, _draw_taps(cfg, np.random.default_rng(4), lead)


def _idle_desired_case():
    """Cell 0's 2 desired taps are within L_I_prime = 3 and none is harvested
    (L_I_d = 0), so it has no active user, yet cell 1's 6-tap link into it
    leaves one residual column."""
    cfg = model.SystemConfig(K=2, users_per_cell=[2, 2], cir_len=[[2, 6], [3, 4]])
    dplan = model.make_delayed_plan(cfg, L_I_d=0, L_I_prime=3)
    assert dplan.U_active == (0, 1) and dplan.M == (0, 1)
    return cfg, dplan, _draw_taps(cfg, np.random.default_rng(5), (2,))


def _assert_block_close(got, want):
    """got within 1e-12 of want's largest entry."""
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0)
    assert np.abs(got - want).max(initial=0) <= 1e-12 * scale


class TestOneProjection:
    """delayed_effective_channels projects the links into a cell in one
    projected_response call: its desired users on all their taps, then the
    active users of each residual cross link on their taps past L_I_prime."""

    @settings(max_examples=80, deadline=None)
    @given(residual_cases())
    @example(_interleaved_case(()))
    @example(_interleaved_case((3,)))
    @example(_idle_desired_case())
    def test_matches_the_oracles_link_by_link(self, case):
        # the desired columns against the combined framed convolution of the
        # desired taps, each residual link's against residual_columns_by_link
        cfg, dplan, ch = case
        W = spectral.combiner(dplan)
        for k in range(cfg.K):
            H, H_int = spectral.delayed_effective_channels(cfg, dplan, ch, k)
            desired = ch[(k, k)][..., : dplan.U_active[k], :]
            _assert_block_close(H, W @ framed_convolution(dplan, desired, dplan.M[k]))
            want = residual_columns_by_link(cfg, dplan, ch, k)
            assert H_int.shape == want.shape
            start = 0
            for i in range(cfg.K):
                if i != k and cfg.cir_len[k][i] > dplan.L_I:
                    block = np.s_[..., start : start + dplan.U_active[i]]
                    _assert_block_close(H_int[block], want[block])
                    start += dplan.U_active[i]
            assert start == H_int.shape[-1]

    def test_fig5_is_one_call_per_cell_on_the_table(self):
        # each cell's 3 desired users and the 18 users of its six 7-tap cross
        # links are one call of 21 users on 7 taps, which reads the table
        cfg, dplan = analysis.fig5_config()
        calls = []
        original = spectral.projected_response

        def counting(plan, taps, M):
            calls.append((taps.shape, M))
            return original(plan, taps, M)

        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "projected_response", counting)
            pairs = [spectral.delayed_effective_channels(cfg, dplan, ch, k)
                     for k in range(cfg.K)]
        assert calls == [((21, 7), 1)] * cfg.K
        assert 7 <= spectral.TABLE_TAPS_PER_USER * 21
        for H, H_int in pairs:
            assert H.shape == (dplan.N - 1, 3) and H_int.shape == (dplan.N - 1, 18)


def _check_one_call_per_link(cfg, dplan, ch):
    """Each cell's (H_k, H_int) against one projected_response call per link
    into it, block by block within 1e-12 of the block's largest entry: the
    joined stack may take another projected_response route than a link
    alone.  Returns the number of links into cell 0 whose route moved."""
    table = spectral.TABLE_TAPS_PER_USER
    U = dplan.U_active
    moved = 0
    for k in range(cfg.K):
        H, H_int = spectral.delayed_effective_channels(cfg, dplan, ch, k)
        M = max(dplan.M[k], 1)
        desired = ch[(k, k)][..., : U[k], :]
        _assert_block_close(H, spectral.projected_response(dplan, desired, M))
        links = [i for i in range(cfg.K) if i != k and cfg.cir_len[k][i] > dplan.L_I]
        joined_users = U[k] + sum(U[i] for i in links)
        joined_taps = max([cfg.cir_len[k][k]] + [cfg.cir_len[k][i] for i in links])
        joined_route = joined_taps > table * joined_users
        start = 0
        for i in links:
            taps = ch[(k, i)][..., : U[i], :].copy()
            taps[..., : dplan.L_I] = 0.0
            block = np.s_[..., start : start + U[i] * M]
            _assert_block_close(H_int[block], spectral.projected_response(dplan, taps, M))
            if k == 0:
                moved += (cfg.cir_len[k][i] > table * U[i]) != joined_route
            start += U[i] * M
        assert start == H_int.shape[-1]
    return moved


class TestResidualColumnsByLength:
    """delayed_effective_channels joins the links into a cell, residual links
    of every length among them, into one projected_response call; its columns
    stay those of one call per link, in link order."""

    @settings(max_examples=80, deadline=None)
    @given(residual_cases())
    def test_matches_one_call_per_link(self, case):
        _check_one_call_per_link(*case)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_interleaved_lengths_and_a_moved_route(self, lead):
        # the 34-tap links of cells 1 and 3 (one and two active users) take
        # the per-draw route alone and the table route in cell 0's stack of
        # 9 users (34 <= 16 * 9)
        cfg, dplan, ch = _interleaved_case(lead)
        assert _check_one_call_per_link(cfg, dplan, ch) == 2
        _, H_int = spectral.delayed_effective_channels(cfg, dplan, ch, 0)
        assert H_int.shape == lead + (dplan.N - dplan.M_D, 1 + 2 + 2 + 2)


class TestDelayedDecoding:
    def test_noiseless_recovery(self):
        cfg, dplan = delayed_case()
        for t in range(50):
            rng = model.trial_rng(0, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dplan)
            symbols = {
                k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)
            }
            result = transceiver.simulate_link(cfg, dplan, ch, single_symbols(dplan, symbols))
            for k in range(2):
                np.testing.assert_allclose(result.s_hat[k][0], symbols[k], atol=1e-9)

    def test_noisy_matches_per_cell_lstsq(self):
        # the SVD projection against least squares on the same folded and
        # combined observations: both are backward stable, so they may differ
        # by a few cond(H_k) * eps relative
        cfg, dplan = delayed_case()
        for t in range(100):
            rng = model.trial_rng(2, t)
            ch = zero_delay_taps(model.sample_channel_iid(cfg, rng), cfg, dplan)
            symbols = {
                k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)
            }
            got = transceiver.simulate_link(cfg, dplan, ch, single_symbols(dplan, symbols),
                                            noise_rng=model.trial_rng(3, t))
            y = transceiver.simulate_reception(cfg, dplan, ch, single_symbols(dplan, symbols),
                                               rng=model.trial_rng(3, t))
            for k in range(2):
                H_k, _ = spectral.delayed_effective_channels(cfg, dplan, ch, k)
                obs = combine_by_subblock(dplan, y[k])[0]
                want = np.linalg.lstsq(H_k, obs, rcond=None)[0]
                assert got.s_hat[k].shape == (1, 3)
                err = np.abs(got.s_hat[k][0] - want).max() / np.abs(want).max()
                assert err <= 16 * np.linalg.cond(H_k) * np.finfo(float).eps

    def test_rejects_rank_deficient_channel(self):
        # two users of cell 1 with identical taps cannot be separated
        cfg, dplan = delayed_case()
        ch = zero_delay_taps(model.sample_channel_iid(cfg, model.trial_rng(0, 0)), cfg, dplan)
        ch[(1, 1)][1] = ch[(1, 1)][0]
        with pytest.raises(transceiver.RankDeficientError, match="cell 1"):
            transceiver.simulate_link(cfg, dplan, ch,
                                      single_symbols(dplan, {0: np.ones(3), 1: np.ones(3)}))

    def test_rejects_more_users_than_observations(self):
        # more users than observed rows: make_delayed_plan caps U'_k at
        # N - M_D, so a hand-built 3 x 4 channel reaches the detector's check
        H = np.random.default_rng(0).standard_normal((3, 4)) + 0j
        with pytest.raises(transceiver.RankDeficientError, match="cell 0"):
            transceiver.zf_projection(H, "cell 0: effective channel")

    def test_three_symbols_per_seven_samples(self):
        cfg, dplan = delayed_case()
        assert dplan.U_active[0] * dplan.M[0] == 3
        assert dplan.N_bar == 7

    def test_effective_rank_is_three(self):
        cfg, dplan = delayed_case()
        for t in range(100):
            ch = zero_delay_taps(
                model.sample_channel_iid(cfg, model.trial_rng(1, t)), cfg, dplan
            )
            for k in range(2):
                H_k, _ = spectral.delayed_effective_channels(cfg, dplan, ch, k)
                assert np.linalg.matrix_rank(H_k, tol=1e-8) == 3

    def test_multi_subblock_rejected(self):
        # the subblock cancellation does not model the fold: at B = 2 the
        # symbols would come back with relative errors near 7
        cfg = model.SystemConfig(K=2, users_per_cell=[3, 3], cir_len=[[5, 4], [4, 5]],
                                 subblocks=2)
        dplan = model.make_delayed_plan(cfg, L_I_d=2, L_I_prime=4)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        with pytest.raises(ValueError, match="single-subblock"):
            transceiver.simulate_link(cfg, dplan, ch, {k: np.ones((2, 3, 1)) for k in range(2)})

    def test_multi_subblock_rejected_by_the_decoder(self):
        # the guard sits where the misdecoding would happen, not only in
        # simulate_link: a direct decode_block call raises too
        cfg = model.SystemConfig(K=2, users_per_cell=[3, 3], cir_len=[[5, 4], [4, 5]],
                                 subblocks=2)
        dplan = model.make_delayed_plan(cfg, L_I_d=2, L_I_prime=4)
        ch = zero_delay_taps(model.sample_channel_iid(cfg, model.trial_rng(0, 0)), cfg, dplan)
        H = spectral.build_structured(cfg, dplan, ch)
        symbols = {k: np.ones((2, 3, 1)) for k in range(2)}
        y = transceiver.simulate_reception(cfg, dplan, ch, symbols)
        with pytest.raises(ValueError, match="single-subblock"):
            transceiver.decode_block(cfg, dplan, H, transceiver.combine(dplan, y))


class TestResidualIciRate:
    def _setup(self, seed=0):
        cfg, dplan = analysis.fig5_config()
        draw = geometric_draws(cfg, hex_gains(cfg, dplan.L_I_d, 100.0), seed, 1)
        ch = {key: taps[0] for key, taps in draw.items()}
        return cfg, dplan, ch

    def test_deterministic(self):
        cfg, dplan, ch = self._setup()
        cfg = at_snr(cfg, 0.2, 1e-12)
        a = analysis.rate_with_residual_ici(cfg, dplan, ch, 0)
        b = analysis.rate_with_residual_ici(cfg, dplan, ch, 0)
        np.testing.assert_array_equal(a, b)

    def test_monotone_in_power(self):
        cfg, dplan, ch = self._setup()
        rates = [
            analysis.rate_with_residual_ici(at_snr(cfg, p, 1e-12), dplan, ch, 0)
            for p in (0.01, 0.1, 1.0)
        ]
        assert rates[0] < rates[1] < rates[2]

    def test_residual_ici_reduces_high_power_slope(self):
        # taps in [L_I_prime, L_I) survive the projection; the interference
        # subspace they span eats into the three-stream slope at high power
        cfg, dplan, ch = self._setup()
        _, H_int = spectral.delayed_effective_channels(cfg, dplan, ch, 0)
        free = dplan.N - dplan.M_D - np.linalg.matrix_rank(H_int, tol=None)
        assert free < 3
        r12 = analysis.rate_with_residual_ici(at_snr(cfg, 1e12, 1e-12), dplan, ch, 0)
        r15 = analysis.rate_with_residual_ici(at_snr(cfg, 1e15, 1e-12), dplan, ch, 0)
        slope = (r15 - r12) / np.log2(1e3)
        assert slope == pytest.approx(free * dplan.B / dplan.T, rel=0.05)

    def test_unbounded_without_residual_taps(self):
        # cross links no longer than L_I_prime leave no residual interference
        cfg, dplan = delayed_case()
        ch = zero_delay_taps(
            model.sample_channel_iid(cfg, model.trial_rng(2, 0)), cfg, dplan
        )
        r6 = analysis.rate_with_residual_ici(at_snr(cfg, 1e6, 1.0), dplan, ch, 0)
        r9 = analysis.rate_with_residual_ici(at_snr(cfg, 1e9, 1.0), dplan, ch, 0)
        # three streams, prefactor B / T: the rate keeps its full slope
        expect = 3 * np.log2(1e3) * dplan.B / dplan.T
        assert r9 - r6 == pytest.approx(expect, rel=0.01)

    def test_fig5_snr_is_the_link_budget(self):
        # 23 dBm against -174 dBm/Hz over 100 Hz, both in watts
        cfg, _ = analysis.fig5_config()
        P = 10.0 ** ((23.0 - 30.0) / 10.0)
        sigma2 = 10.0 ** ((-174.0 - 30.0) / 10.0) * 100.0
        assert cfg.snr_linear == pytest.approx(P / sigma2, rel=1e-12, abs=0)

    @pytest.mark.parametrize("c", [1e-6, 1e6])
    def test_only_the_ratio_of_power_to_noise_matters(self, c):
        # the oracles' (P, sigma^2) and (c P, c sigma^2) give the same rates,
        # and so does the production rate at rho = P / sigma^2 alone
        cfg, dplan, ch = self._setup(seed=1)
        rho = cfg.snr_linear
        for k in (0, 3):
            prop = residual_ici_rate_by_trial(cfg, dplan, ch, rho, 1.0, k)
            ofdma = ofdma_rate_by_subset(cfg, ch, rho, 1.0, dplan.L_D, dplan.N, k)
            assert prop > 0 and ofdma > 0
            scaled = residual_ici_rate_by_trial(cfg, dplan, ch, c * rho, c, k)
            assert scaled == pytest.approx(prop, rel=1e-12, abs=0)
            scaled = ofdma_rate_by_subset(cfg, ch, c * rho, c, dplan.L_D, dplan.N, k)
            assert scaled == pytest.approx(ofdma, rel=1e-12, abs=0)
            got = analysis.rate_with_residual_ici(cfg, dplan, ch, k)
            assert got == pytest.approx(prop, rel=1e-12, abs=0)
            got = analysis.ofdma_rate_with_ici(cfg, dplan, ch, k)
            assert got == pytest.approx(ofdma, rel=1e-12, abs=0)

    def test_reads_only_the_links_into_its_cell(self):
        # each cell's rate from a realization of the links into it alone: the
        # same bits as from every link, and no link out of the cell is read
        cfg, dplan, ch = self._setup(seed=3)
        cfg = at_snr(cfg, 0.2, 1e-12)
        for k in range(cfg.K):
            into_k = {(k, i): ch[(k, i)] for i in range(cfg.K)}
            every = analysis.rate_with_residual_ici(cfg, dplan, ch, k)
            assert every > 0
            assert analysis.rate_with_residual_ici(cfg, dplan, into_k, k) == every


class TestOfdmaComparator:
    def test_no_interference_single_cell(self):
        P, s2 = 2.0, 0.5
        cfg = at_snr(model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[8]]), P, s2)
        dplan = model.make_delayed_plan(cfg, L_I_d=0, L_I_prime=1)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        n_sc, L_D = 8, 8
        assert (dplan.N, dplan.L_D) == (n_sc, L_D)
        lam = np.fft.fft(ch[(0, 0)][..., 0, :], n_sc)
        expect = np.sum(np.log2(1 + P * np.abs(lam) ** 2 / s2)) / (n_sc + L_D - 1)
        got = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_interference_reduces_rate(self):
        cfg = at_snr(model.SystemConfig.symmetric(K=2, L_D=4, L_I=3, U=2), 1.0, 1e-6)
        dplan = model.make_delayed_plan(cfg, L_I_d=0, L_I_prime=3)
        ch = model.sample_channel_iid(cfg, model.trial_rng(1, 0))
        with_ici = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
        ch[(0, 1)][:] = 0.0
        without = analysis.ofdma_rate_with_ici(cfg, dplan, ch, 0)
        assert with_ici < without


@st.composite
def geometric_cases(draw):
    """A random valid config and delay (L_I_d, L_I_prime) for the fig5 path:
    K in 1..4, asymmetric users and link lengths."""
    K = draw(st.integers(1, 4))
    users = draw(st.lists(st.integers(1, 4), min_size=K, max_size=K))
    cir = draw(st.lists(st.lists(st.integers(1, 9), min_size=K, max_size=K),
                        min_size=K, max_size=K))
    cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir)
    _, L_I = model.link_lengths(cfg)
    L_I_prime = draw(st.integers(1, L_I))
    L_I_d = draw(st.integers(0, max(L_I_prime - 1, 0)))
    return cfg, (L_I_d, L_I_prime), draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 4))


def _max_rel(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


class TestBatchedFig5Path:
    """The fig5 path over stacked trials against one-trial, one-user oracles."""

    @settings(max_examples=60, deadline=None)
    @given(geometric_cases())
    # rates of 1e-11 to 1e-9 bit/s/Hz at 10 dB: a difference of two
    # log-determinants is off by up to 1.3e-6 relative here
    @example((model.SystemConfig(K=4, users_per_cell=(1, 1, 3, 1),
                                 cir_len=((4, 1, 1, 1), (1, 4, 1, 1), (1, 1, 1, 2), (4, 6, 1, 4))),
              (0, 3), 0, 1))
    def test_matches_per_trial_oracles(self, case):
        cfg, delay, seed, trials = case
        L_I_d = delay[0]
        L_D, L_I = model.link_lengths(cfg)
        for k in range(cfg.K):
            for i in range(cfg.K):
                L = cfg.cir_len[k][i]
                want = [pdp_variance(k, i, ell, L_D, L_I, L_I_d) for ell in range(L)]
                support = (0, L_D) if k == i else (L_I_d, L_I)
                np.testing.assert_allclose(model.pdp_profile(L, *support), want,
                                           rtol=1e-15, atol=0)

        rng = np.random.default_rng(seed)
        dist = rng.uniform(0.5, 3.0, (cfg.K, cfg.K, max(cfg.users_per_cell)))
        stacked = geometric_draws(cfg, gain_by_user(cfg, L_I_d, dist), seed, trials)
        draws = [{key: taps[t] for key, taps in stacked.items()} for t in range(trials)]
        for t, ch in enumerate(draws):
            want = sample_channel_by_user(cfg, L_I_d, dist, model.trial_rng(seed, t))
            assert list(ch) == list(want)
            for key in want:
                np.testing.assert_array_equal(ch[key], want[key])
        dplan = model.make_delayed_plan(cfg, *delay)
        # 10 dB leaves tiny rates at the -80 dB reference loss; an SNR that
        # offsets the loss gives rates that are not
        for snr_db, k in itertools.product((10.0, 10.0 - model.REF_LOSS_DB), range(cfg.K)):
            cfg = dataclasses.replace(cfg, snr_db=snr_db)
            rho = cfg.snr_linear
            got = analysis.rate_with_residual_ici(cfg, dplan, stacked, k)
            want = [residual_ici_rate_by_trial(cfg, dplan, ch, rho, 1.0, k) for ch in draws]
            assert got.shape == (trials,)
            assert _max_rel(got, np.array(want)) <= 1e-12
            got = analysis.ofdma_rate_with_ici(cfg, dplan, stacked, k)
            want = [ofdma_rate_by_subset(cfg, ch, rho, 1.0, dplan.L_D, dplan.N, k)
                    for ch in draws]
            assert got.shape == (trials,)
            assert _max_rel(got, np.array(want)) <= 1e-12

    def test_config_is_built_and_checked_once(self, monkeypatch):
        # fig5_config takes the seed, so a run checks one SystemConfig
        checked = []
        original = model._violations
        monkeypatch.setattr(model, "_violations", lambda cfg: checked.append(cfg) or original(cfg))
        analysis.run_distance_comparison(trials=1, seed=3)
        assert [cfg.seed for cfg in checked] == [3]

    def test_gains_only_for_the_links_into_cell_0(self, monkeypatch):
        # one call, for base station 0 over the whole distance grid
        built = []
        original = model.large_scale_gain

        def recording(cfg, L_I_d, D_user, k):
            gains = original(cfg, L_I_d, D_user, k)
            built.append((k, list(gains), {g.shape[0] for g in gains.values()}))
            return gains

        monkeypatch.setattr(model, "large_scale_gain", recording)
        analysis.run_distance_comparison(trials=1, seed=0)
        assert built == [(0, [(0, i) for i in range(7)], {len(FIG5_GRID)})]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_distance_sweep_rejects_no_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            analysis.run_distance_comparison(trials=trials, seed=0)

    def test_distance_sweep_matches_trial_loop(self, monkeypatch):
        grid = FIG5_GRID
        want = np.array(distance_comparison_by_trial(grid, trials=12, seed=5))
        for block in (model.TRIAL_BLOCK, 5):   # one block, then three
            monkeypatch.setattr(model, "TRIAL_BLOCK", block)
            got = np.array(analysis.run_distance_comparison(trials=12, seed=5))
            np.testing.assert_array_equal(got[:, 0], grid)
            np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=1e-12, atol=0)


# fig5's distances (m), stated apart from analysis.FIG5_DISTANCES_M
FIG5_GRID = tuple(np.arange(20.0, 150.0, 10.0))


class TestDistanceGrouping:
    """run_distance_comparison's grouped rate calls against one pair of rate
    calls per distance: the same sums bit for bit, and no call over
    model.TRIAL_BLOCK realizations."""

    @pytest.mark.parametrize("block, trials, calls", [
        (6, 12, 2 * 13),   # step 1: one distance per call
        (20, 4, 3),        # step 5 leaves 3 distances for the last call
        (256, 2, 1),       # the whole grid in one call
    ])
    def test_matches_one_call_per_distance(self, monkeypatch, block, trials, calls):
        monkeypatch.setattr(model, "TRIAL_BLOCK", block)
        want = distance_comparison_by_distance(list(FIG5_GRID), trials=trials, seed=3)
        sizes = {}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                ch = next(a for a in args if isinstance(a, dict))
                sizes.setdefault(name, []).extend(
                    math.prod(taps.shape[:-2]) for taps in ch.values())
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(analysis, "rate_with_residual_ici")
        counting(analysis, "ofdma_rate_with_ici")
        got = analysis.run_distance_comparison(trials=trials, seed=3)
        np.testing.assert_array_equal(np.array(got), np.array(want))
        for name in ("rate_with_residual_ici", "ofdma_rate_with_ici"):
            # seven links into cell 0 per call
            assert len(sizes[name]) == 7 * calls
            assert max(sizes[name]) <= block
