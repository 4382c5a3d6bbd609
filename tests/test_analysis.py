import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindim import analysis, model, spectral, transceiver, verify
from oracles import (
    baseline_slope,
    dof_theorem1_literal,
    ergodic_rate_by_trial,
    highsnr_slope,
    snr_comparison_by_network,
)


def eff_for(cfg, seed=0, trial=0):
    plan = model.make_plan(cfg)
    ch = model.sample_channel_iid(cfg, model.trial_rng(seed, trial))
    return plan, ch, spectral.build_structured(cfg, plan, ch)


class TestDofFormulas:
    def test_reference_half_k(self):
        for K in (2, 3, 5):
            cfg = model.SystemConfig.symmetric(K=K, L_D=4, L_I=2, U=2)
            assert analysis.dof_theorem1(cfg) == K / 2

    def test_trivial_dof_when_no_excess(self):
        cfg = model.SystemConfig.symmetric(K=3, L_D=2, L_I=2, U=4)
        assert analysis.dof_theorem1(cfg) == 1.0

    def test_hand_evaluated_case(self):
        cfg = model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)
        assert analysis.dof_theorem1(cfg) == 2.0

    def test_symmetric_formula(self):
        assert analysis.dof_symmetric(4, 8, 2, 6) == 3.0
        assert analysis.dof_symmetric(3, 6, 1, 5) == 3 * 5 / 6

    def test_symmetric_precondition(self):
        with pytest.raises(ValueError):
            analysis.dof_symmetric(2, 8, 2, 1)   # U < L_D - L_I
        with pytest.raises(ValueError):
            analysis.dof_symmetric(2, 3, 2, 5)   # L_D < 2 L_I

    def test_symmetric_limit_approaches_k(self):
        val = analysis.dof_symmetric(4, 2000, 2, 1998)
        assert abs(val - 4) / 4 <= 0.002

    def test_matches_theorem_on_symmetric_sweep(self):
        for L_D in range(2, 17):
            for L_I in range(1, L_D // 2 + 1):
                for U in range(L_D - L_I, L_D - L_I + 5):
                    for K in range(1, 7):
                        cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U)
                        assert analysis.dof_theorem1(cfg) == analysis.dof_symmetric(
                            K, L_D, L_I, U
                        )

    def test_matches_literal_theorem_on_random_configs(self):
        # asymmetric users and tap counts, exact float equality: cross links
        # of 1-4 taps and desired links of 1-14 give idle cells, and cells
        # with more users than spare taps (0 < U'_k < U_k)
        rng = np.random.default_rng(15)
        crowded = 0
        for _ in range(3000):
            K = int(rng.integers(1, 6))
            cir = rng.integers(1, 5, size=(K, K))
            np.fill_diagonal(cir, rng.integers(1, 15, size=K))
            users = rng.integers(1, 7, size=K).tolist()
            cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir.tolist())
            dof = analysis.dof_theorem1(cfg)
            assert dof == dof_theorem1_literal(cfg), cfg
            active = model.make_plan(cfg).U_active
            crowded += dof > 1 and any(0 < a < u for a, u in zip(active, users))
        assert crowded >= 100

    def test_interference_channel_values(self):
        assert analysis.dof_interference_channel(5, 4, 2) == 2.0
        val = analysis.dof_interference_channel(4, 2000, 2)
        assert abs(val - 2) / 2 <= 0.002

    def test_mac_gain_is_twofold(self):
        mac = analysis.dof_symmetric(4, 5000, 2, 4998)
        ic = analysis.dof_interference_channel(4, 5000, 2)
        assert mac / ic == pytest.approx(2.0, rel=0.002)

    def test_interference_channel_precondition(self):
        with pytest.raises(ValueError):
            analysis.dof_interference_channel(2, 2, 2)
        # one cell has no interference channel
        with pytest.raises(ValueError, match="K >= 2"):
            analysis.dof_interference_channel(1, 4, 1)

    def test_dof_never_below_one(self):
        for L_D in (1, 2, 3):
            cfg = model.SystemConfig.symmetric(K=2, L_D=L_D, L_I=3, U=2)
            assert analysis.dof_theorem1(cfg) >= 1.0


class TestSumRateQr:
    def test_rate_vanishes_at_zero_snr(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan, _, eff = eff_for(cfg)
        assert analysis.sum_rate_qr(plan, eff, [1e-12])[0] <= 1e-9

    def test_qr_determinant_identity(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan, _, eff = eff_for(cfg)
        for k in range(2):
            H = eff[k]
            r = analysis.r_diagonals(eff)[k]
            det = np.real(np.linalg.det(H.conj().T @ H))
            assert np.prod(r ** 2) == pytest.approx(det, rel=1e-8)

    def test_zf_sic_below_capacity(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        for t in range(20):
            plan, _, eff = eff_for(cfg, seed=1, trial=t)
            rho_eff = plan.N * 1.0 / plan.M[0]
            for k in range(2):
                H = eff[k]
                r = analysis.r_diagonals(eff)[k]
                zf_sic = np.sum(np.log2(1 + rho_eff * r ** 2))
                cap = np.real(
                    np.linalg.slogdet(np.eye(H.shape[1]) + rho_eff * H.conj().T @ H)[1]
                ) / np.log(2)
                assert zf_sic <= cap + 1e-9

    def test_unitary_left_invariance(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan, _, eff = eff_for(cfg)
        H = eff[0]
        rng = np.random.default_rng(1)
        A = rng.standard_normal((H.shape[0], H.shape[0])) + 1j * rng.standard_normal(
            (H.shape[0], H.shape[0])
        )
        Uq, _ = np.linalg.qr(A)
        r1 = analysis.r_diagonals({0: H})[0]
        r2 = analysis.r_diagonals({0: Uq @ H})[0]
        np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_strictly_increasing_in_snr(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan, _, eff = eff_for(cfg)
        rates = analysis.sum_rate_qr(plan, eff, np.array([0.5, 1.0, 4.0, 100.0]))
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestScalarSnr:
    def test_scalar_gives_the_leading_axes(self):
        # a 0-d SNR drops the SNR axis: the entry of the one-element list
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        one = model.sample_channel_iid(cfg, model.trial_rng(4, 0))
        stack = {key: np.stack([h, 2 * h, 1j * h]) for key, h in one.items()}
        for ch in (one, stack):
            H = spectral.build_structured(cfg, plan, ch)
            for rate in (lambda snr: analysis.sum_rate_qr(plan, H, snr),
                         lambda snr: analysis.baseline_tdma_ofdma(cfg, plan, ch, snr)):
                got = rate(cfg.snr_linear)
                want = rate([cfg.snr_linear])
                assert got.shape == want.shape[:-1] == H[0].shape[:-2]
                np.testing.assert_array_equal(got, want[..., 0])
                assert rate(np.array([[1.0, 10.0]])).shape == H[0].shape[:-2] + (1, 2)


class TestCellSubset:
    def test_one_cell_rates_its_own_streams(self):
        # cell 1's channel alone: the sum rate is cell 1's own term
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        one = model.sample_channel_iid(cfg, model.trial_rng(4, 0))
        stack = {key: np.stack([h, 2 * h, 1j * h]) for key, h in one.items()}
        snr = np.array([1.0, 100.0])
        for ch in (one, stack):
            H = {1: spectral.build_structured(cfg, plan, ch)[1]}
            r = np.abs(np.diagonal(np.linalg.qr(H[1], mode="r"), axis1=-2, axis2=-1))
            rho = plan.N * snr[:, None] / plan.M[1]
            want = np.log2(1.0 + rho * r[..., None, :] ** 2).sum(axis=-1) / plan.N_bar
            got = analysis.sum_rate_qr(plan, H, snr)
            assert got.shape == H[1].shape[:-2] + (2,)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestBaseline:
    def test_flat_channel_closed_form(self):
        # one user on a one-tap channel: every one of the N = 6 subcarriers
        # sees gain 1 at SNR rho
        cfg = model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[4]])
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        ch[(0, 0)][0] = [1.0, 0.0, 0.0, 0.0]
        n_sc = plan.N
        assert n_sc == 6
        rho = 10.0
        rate = analysis.baseline_tdma_ofdma(cfg, plan, ch, [rho])[0]
        assert rate == pytest.approx(n_sc / (n_sc + plan.L_D - 1) * np.log2(1 + rho))

    def test_taps_beyond_subcarriers_fold(self):
        # the cyclic prefix L_D - 1 covers all 3 taps, so subcarrier sc sees
        # the periodic extension: h0 + h1 + h2 and h0 - h1 + h2 on the plan's
        # N = 2 subcarriers, in cell 0's half of the time
        cfg = model.SystemConfig(K=2, users_per_cell=[1, 1], cir_len=[[3, 2], [2, 3]])
        plan = model.make_plan(cfg)
        assert plan.N == 2
        ch = model.sample_channel_iid(cfg, model.trial_rng(0, 0))
        h0, h1, h2 = ch[(0, 0)][..., 0, :]
        rho = 10.0
        rate = analysis.baseline_tdma_ofdma(cfg, plan, ch, [rho])[0]
        want = sum(np.log2(1 + rho * abs(lam) ** 2) for lam in (h0 + h1 + h2, h0 - h1 + h2))
        assert rate == pytest.approx(want / (2 + plan.L_D - 1) / cfg.K, rel=1e-12)

    def test_independent_of_other_cells(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(2, 0))
        before = analysis.baseline_tdma_ofdma(cfg, plan, ch, [10.0])
        ch[(1, 1)] *= 3.0
        ch[(0, 1)] *= 5.0
        assert analysis.baseline_tdma_ofdma(cfg, plan, ch, [10.0]) == before

    def test_slope_asymptote(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        rates = np.zeros(2)
        trials = 100
        for t in range(trials):
            ch = model.sample_channel_iid(cfg, model.trial_rng(3, t))
            rates += analysis.baseline_tdma_ofdma(cfg, plan, ch, [1e5, 1e6])
        slope = highsnr_slope(rates[0] / trials, rates[1] / trials, 1e5, 1e6)
        expect = baseline_slope(cfg, plan)
        assert slope == pytest.approx(expect, rel=0.03)


class TestSlope:
    def test_single_stream_asymptote(self):
        r1 = np.log2(1 + 1e5 * 0.7)
        r2 = np.log2(1 + 1e6 * 0.7)
        assert highsnr_slope(r1, r2, 1e5, 1e6) == pytest.approx(1.0, rel=0.01)

    def test_matches_dof_three_configs(self):
        for (K, L_D, L_I, U) in [(3, 8, 2, 3), (2, 4, 2, 2), (4, 12, 3, 9)]:
            cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, seed=4)
            r, _ = analysis.ergodic_rate(cfg, [50.0, 60.0], 30)
            slope = highsnr_slope(r[0], r[1], 1e5, 1e6)
            dof = analysis.dof_theorem1(cfg)
            assert abs(slope - dof) / dof <= 0.03


class TestErgodicRate:
    def test_single_trial_equals_single_shot(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3, seed=9)
        plan, _, eff = eff_for(cfg, seed=9, trial=0)
        single = analysis.sum_rate_qr(plan, eff, [10.0])[0]
        erg, _ = analysis.ergodic_rate(cfg, [10.0], 1)
        assert erg[0] == pytest.approx(single, rel=1e-12)

    def test_snr_points_independent(self):
        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3, seed=5)
        fwd = np.array(analysis.ergodic_rate(cfg, [0.0, 10.0, 20.0], 10))
        rev = np.array(analysis.ergodic_rate(cfg, [20.0, 10.0, 0.0], 10))
        np.testing.assert_allclose(fwd, rev[:, ::-1], rtol=1e-12)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
        with pytest.raises(ValueError, match="trials"):
            analysis.ergodic_rate(cfg, [10.0], trials)

    def test_standard_error_shrinks(self):
        def spread(trials, blocks):
            means = []
            for b in range(blocks):
                vals = [
                    analysis.ergodic_rate(model.SystemConfig.symmetric(
                        K=2, L_D=4, L_I=2, U=2, seed=100 + b * trials + t), [10.0], 1)[0][0]
                    for t in range(trials)
                ]
                means.append(np.mean(vals))
            return np.std(means)
        s100, s400 = spread(25, 8), spread(100, 8)
        assert s400 < s100


@st.composite
def iid_cases(draw):
    """A valid SystemConfig (users may outnumber N, cells may be idle with
    L_kk <= L_I), SNRs in dB, a seed, a trial count and a trial block size."""
    K = draw(st.integers(1, 4))
    users = draw(st.lists(st.integers(1, 6), min_size=K, max_size=K))
    cir = [[draw(st.integers(1, 8) if k == i else st.integers(1, 4)) for i in range(K)]
           for k in range(K)]
    cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir)
    snr_db = draw(st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=4))
    return (cfg, snr_db, draw(st.integers(0, 2**31 - 1)), draw(st.integers(1, 5)),
            draw(st.sampled_from([1, 2, 3, model.TRIAL_BLOCK])))


class TestStackedErgodicRate:
    """ergodic_rate over trial blocks against the per-trial, per-SNR loop."""

    @settings(max_examples=60, deadline=None)
    @given(iid_cases())
    def test_matches_per_trial_oracle(self, case):
        cfg, snr_db, seed, trials, block = case
        with mock.patch.object(model, "TRIAL_BLOCK", block):
            got = analysis.ergodic_rate(dataclasses.replace(cfg, seed=seed), snr_db, trials)
        want = ergodic_rate_by_trial(cfg, snr_db, trials, seed)
        for g, w in zip(got, want):
            assert g.shape == (len(snr_db),)
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)


class TestSnrComparison:
    """fig3's one draw per trial, read by every network, against one
    ergodic_rate per network, each drawing its own trials."""

    GRIDS = [list(analysis.FIG3_SNR_GRID), list(analysis.FIG3_SNR_GRID)[::-1], [25.0]]

    @pytest.mark.parametrize("trials", [1, 2, 25, 256, 257, 600])
    @pytest.mark.parametrize("seed", [0, 7, 7919])
    def test_matches_one_run_per_network(self, seed, trials):
        for snr_db in self.GRIDS:
            got = analysis.run_snr_comparison(snr_db, trials, seed)
            assert got == snr_comparison_by_network(snr_db, trials, seed)


class TestErgodicRates:
    """Networks of different widths on shared draws: each network's pair is
    its own ergodic_rate, whichever network is the wider."""

    NARROW = model.SystemConfig(K=2, users_per_cell=[2, 3], cir_len=[[6, 2], [3, 5]])
    WIDE = model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3)
    SNR_DB = [0.0, 10.0, 20.0, 30.0]

    @pytest.mark.parametrize("trials", [1, 256, 257])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_each_pair_is_its_ergodic_rate(self, seed, trials):
        cfgs = [dataclasses.replace(cfg, seed=seed) for cfg in (self.NARROW, self.WIDE)]
        want = [analysis.ergodic_rate(cfg, self.SNR_DB, trials) for cfg in cfgs]
        for order in ([0, 1], [1, 0]):
            got = analysis.ergodic_rates([cfgs[j] for j in order], self.SNR_DB, trials)
            for j, pair in zip(order, got, strict=True):
                assert len(pair) == 2
                assert all((g == w).all() for g, w in zip(pair, want[j], strict=True))

    def test_networks_of_different_seeds_raise(self):
        cfgs = [self.NARROW, dataclasses.replace(self.WIDE, seed=7)]
        with pytest.raises(ValueError, match=r"^the networks must share one seed, got \[0, 7\]$"):
            analysis.ergodic_rates(cfgs, self.SNR_DB, 2)


# every library entry point that takes a trial count, as a call of it whose
# result compares with ==
TRIAL_RUNS = {
    "ergodic_rate": lambda trials: np.concatenate(analysis.ergodic_rate(
        model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2, seed=3), [0.0, 20.0],
        trials)).tobytes(),
    "ergodic_rates": lambda trials: np.concatenate(sum(analysis.ergodic_rates(
        [model.SystemConfig.symmetric(K=K, L_D=4, L_I=2, U=2, seed=3) for K in (1, 2)],
        [0.0, 20.0], trials), ())).tobytes(),
    "run_snr_comparison": lambda trials: analysis.run_snr_comparison([10.0], trials, 3),
    "run_distance_comparison": lambda trials: analysis.run_distance_comparison(
        trials=trials, seed=3),
    "run_all": lambda trials: verify.run_all(verify.DEFAULT_CONFIG, trials),
    "run_link_trials": lambda trials: transceiver.run_link_trials(
        verify.DEFAULT_CONFIG, model.make_plan(verify.DEFAULT_CONFIG), trials),
}


class TestTrialCount:
    @pytest.mark.parametrize("run", TRIAL_RUNS.values(), ids=TRIAL_RUNS.keys())
    def test_integral_count_runs_as_its_int(self, run):
        want = run(2)
        for trials in (2.0, np.float64(2.0), np.int64(2)):
            assert run(trials) == want

    @pytest.mark.parametrize("trials", [2.5, "2", None])
    @pytest.mark.parametrize("run", TRIAL_RUNS.values(), ids=TRIAL_RUNS.keys())
    def test_count_that_is_not_integral_is_a_value_error(self, run, trials):
        with pytest.raises(ValueError, match=r"^trials must be an integer, got "):
            run(trials)

    @pytest.mark.parametrize("trials", [0, -1])
    @pytest.mark.parametrize("run", TRIAL_RUNS.values(), ids=TRIAL_RUNS.keys())
    def test_count_below_one_keeps_its_message(self, run, trials):
        with pytest.raises(ValueError, match=r"^trials must be >= 1, got %d$" % trials):
            run(trials)
