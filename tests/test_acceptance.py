"""End-to-end acceptance suite.

Each test is one acceptance criterion with its tolerance pinned; together they
cover the closed-form DoF results, exact interference cancellation, rank and
decomposition machinery, noiseless decodability, slope/rate properties, the
two experiment scenarios, and the QR rate identities.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from blindim import (
    analysis,
    model,
    spectral,
    transceiver,
    verify,
)
from oracles import check_dft_submatrix_independence, check_lemma2, check_lemma3, highsnr_slope

EXAMPLE1 = dict(K=2, L_D=4, L_I=2, U=2)
FIG3 = dict(K=3, L_D=8, L_I=2, U=3)
ASYM_CIR = [[5, 2, 2], [2, 6, 2], [2, 2, 8]]


def asym_cfg(**kw):
    return model.SystemConfig(K=3, users_per_cell=[3, 3, 3], cir_len=ASYM_CIR, **kw)


def test_criterion_01_dof_golden_values_and_exhaustive_sweep():
    # golden values
    for K in range(2, 7):
        cfg = model.SystemConfig.symmetric(K=K, **{k: v for k, v in EXAMPLE1.items() if k != "K"})
        assert analysis.dof_theorem1(cfg) == K / 2
    cfg = model.SystemConfig.symmetric(K=3, L_D=2, L_I=2, U=4)
    assert analysis.dof_theorem1(cfg) == 1.0
    # exhaustive closed-form agreement, exact float equality
    mismatches = 0
    for L_D in range(2, 17):
        for L_I in range(1, L_D // 2 + 1):
            for U in range(L_D - L_I, L_D - L_I + 5):
                for K in range(1, 7):
                    cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U)
                    expect = float(max(Fraction(K) * (1 - Fraction(L_I, L_D)), 1))
                    if analysis.dof_theorem1(cfg) != expect:
                        mismatches += 1
    assert mismatches == 0
    print("PASS criterion 1: DoF golden values and exhaustive sweep (exact)")


@pytest.mark.parametrize("params", [EXAMPLE1, FIG3], ids=["example1", "fig3"])
def test_criterion_02_perfect_ici_cancellation(params):
    cfg = model.SystemConfig.symmetric(subblocks=3, **params)
    plan = model.make_plan(cfg)
    W = spectral.combiner(plan)
    cp = plan.cp_len
    worst = 0.0
    for t in range(100):
        rng = model.trial_rng(11, t)
        ch = model.sample_channel_iid(cfg, rng)
        symbols = transceiver.draw_symbols(cfg, plan, rng)
        symbols[0] = np.zeros_like(symbols[0])   # cell-0 desired users silent
        y = transceiver.simulate_reception(cfg, plan, ch, symbols)
        pre = post = 0.0
        for frame in y[0, : plan.B * plan.N_bar].reshape(plan.B, plan.N_bar):
            pre += float(np.sum(np.abs(frame[cp:]) ** 2))
            post += float(np.sum(np.abs(W @ frame) ** 2))
        worst = max(worst, post / pre)
    assert worst <= 1e-9
    print("PASS criterion 2: post-combining ICI energy ratio <= 1e-9 (worst %.2e)" % worst)


def test_criterion_03_effective_channel_full_rank():
    cfgs = [
        model.SystemConfig.symmetric(**EXAMPLE1),
        model.SystemConfig.symmetric(**FIG3),
        asym_cfg(),
    ]
    for cfg in cfgs:
        assert check_lemma2(cfg, trials=1000, seed=3) == 1.0
    print("PASS criterion 3: effective channel full rank in 1000/1000 trials x 3 configs")


def test_criterion_04_noiseless_end_to_end_decoding():
    cfg = model.SystemConfig.symmetric(subblocks=10, **FIG3)
    plan = model.make_plan(cfg)
    worst = 0.0
    for t in range(100):
        rng = model.trial_rng(4, t)
        ch = model.sample_channel_iid(cfg, rng)
        symbols = transceiver.draw_symbols(cfg, plan, rng)
        result = transceiver.simulate_link(cfg, plan, ch, symbols)
        for k in range(cfg.K):
            truth = symbols[k].reshape(plan.B, -1)
            worst = max(worst, float(np.max(np.abs(result.s_hat[k] - truth))))
    assert worst <= 1e-9
    print("PASS criterion 4: B=10 noiseless decoding, max symbol error %.2e" % worst)


def test_criterion_05_decomposition_and_rank_lemmas():
    assert verify.DECOMPOSITION_TOL == 1e-10
    cfg = model.SystemConfig.symmetric(**FIG3)
    plan = model.make_plan(cfg)
    worst = 0.0
    for t in range(100):
        ch = model.sample_channel_iid(cfg, model.trial_rng(5, t))
        H = spectral.build_structured(cfg, plan, ch)
        ok, report = verify.check_decomposition(cfg, plan, ch, H)
        assert ok
        worst = max(worst, max(r[-1] for r in report))
    rng = np.random.default_rng(5)
    for _ in range(200):
        dims = rng.integers(1, 9, size=4)
        A = rng.standard_normal((dims[0], dims[1]))
        B = rng.standard_normal((dims[1], dims[2]))
        C = rng.standard_normal((dims[2], dims[3]))
        assert check_lemma3(A, B, C)
    N = 8
    for start in range(N - 2):
        removed = list(range(start, start + 3))
        for cols in itertools.combinations(range(N), 3):
            assert check_dft_submatrix_independence(N, removed, cols)
    results = verify.run_all(model.SystemConfig.symmetric(**FIG3, seed=5), trials=1)
    rows = {name: ok for name, _, ok, _ in results}
    assert rows["rank_inequality"] and rows["dft_submatrix"]
    print("PASS criterion 5: decomposition residual %.2e, rank lemmas hold" % worst)


def test_criterion_06_high_snr_slope_matches_dof():
    configs = [(3, 8, 2, 3), (2, 4, 2, 2), (4, 12, 3, 9)]
    for K, L_D, L_I, U in configs:
        cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, seed=6)
        r, _ = analysis.ergodic_rate(cfg, [50.0, 60.0], 50)
        slope = highsnr_slope(r[0], r[1], 10 ** 5.0, 10 ** 6.0)
        dof = analysis.dof_theorem1(cfg)
        assert abs(slope - dof) / dof <= 0.03
    print("PASS criterion 6: 50-60 dB slope matches DoF within 3%% for %d configs" % len(configs))


def test_criterion_07_snr_comparison_ordering_and_scaling():
    rows = analysis.run_snr_comparison(analysis.FIG3_SNR_GRID, trials=200, seed=0)
    by_k = {}
    for snr, K, prop, base in rows:
        by_k.setdefault(K, {})[snr] = (prop, base)
    for K in (2, 3):
        for snr, (prop, base) in by_k[K].items():
            assert prop >= base, "K=%d at %g dB: %g < %g" % (K, snr, prop, base)
    ratio = by_k[3][30.0][0] / by_k[1][30.0][0]
    assert 2.7 <= ratio <= 3.3
    print("PASS criterion 7: proposed >= baseline on the grid; K3/K1 @30dB = %.3f" % ratio)


def test_criterion_08_delayed_ici_example():
    cfg = model.SystemConfig(
        K=2, users_per_cell=[3, 3], cir_len=[[5, 4], [4, 5]], subblocks=1
    )
    dplan = model.make_delayed_plan(cfg, L_I_d=2, L_I_prime=4)
    # 3 symbols per cell per 7-sample subblock in a block of
    # T = N_bar + max(L_D, L_I) - 1 samples
    assert dplan.U_active[0] * dplan.M[0] == 3 and dplan.N_bar == 7
    assert dplan.T == 11

    # printed first-stage fold matrices W1, bit-exact: the combiner is the
    # projection W2 = F[:, M_D:]^H times each
    def projector(plan):
        return spectral.idft_basis(plan.N)[:, plan.M_D :].conj().T

    expect = np.zeros((4, 7))
    expect[np.arange(4), 3 + np.arange(4)] = 1.0
    expect[1, 0] = 1.0
    expect[2, 1] = 1.0
    assert (spectral.combiner(dplan) == projector(dplan) @ expect).all()
    _, fig5_plan = analysis.fig5_config()
    assert (fig5_plan.N, fig5_plan.N_bar) == (5, 9)
    expect = np.zeros((5, 9))
    expect[np.arange(5), 4 + np.arange(5)] = 1.0
    expect[1, 0] = 1.0
    expect[2, 1] = 1.0
    expect[3, 2] = 1.0
    assert (spectral.combiner(fig5_plan) == projector(fig5_plan) @ expect).all()

    def delayed_channel(t):
        ch = model.sample_channel_iid(cfg, model.trial_rng(8, t))
        for k in range(2):
            for i in range(2):
                if i != k:
                    ch[(k, i)][:, : dplan.L_I_d] = 0.0
        return ch

    # enlarged effective channel full rank in 1000/1000 trials
    for t in range(1000):
        ch = delayed_channel(t)
        for k in range(2):
            H_k, _ = spectral.delayed_effective_channels(cfg, dplan, ch, k)
            assert verify.numerical_rank(H_k) == 3

    # noiseless exact recovery
    worst = 0.0
    for t in range(100):
        rng = model.trial_rng(88, t)
        ch = delayed_channel(t)
        symbols = {k: rng.standard_normal(3) + 1j * rng.standard_normal(3) for k in range(2)}
        result = transceiver.simulate_link(
            cfg, dplan, ch, {k: symbols[k].reshape(1, 3, 1) for k in range(2)})
        for k in range(2):
            worst = max(worst, float(np.max(np.abs(result.s_hat[k][0] - symbols[k]))))
    assert worst <= 1e-9
    print("PASS criterion 8: delayed-ICI example, recovery error %.2e, rank 3 always" % worst)


def test_criterion_09_distance_comparison_ordering():
    rows = {row[0]: row for row in analysis.run_distance_comparison(trials=200, seed=0)}
    near, far = rows[20.0], rows[140.0]
    assert near[2] > near[1], "cell center: OFDMA should win (%g vs %g)" % (near[2], near[1])
    assert far[1] > far[2], "cell edge: proposed should win (%g vs %g)" % (far[1], far[2])
    print(
        "PASS criterion 9: near (ofdma %.2f > proposed %.2f), far (proposed %.2f > ofdma %.2f)"
        % (near[2], near[1], far[1], far[2])
    )


def test_criterion_10_qr_rate_identities():
    cfg = model.SystemConfig.symmetric(**FIG3)
    plan = model.make_plan(cfg)
    rho_eff = plan.N * cfg.snr_linear / plan.M[0]
    for t in range(100):
        ch = model.sample_channel_iid(cfg, model.trial_rng(10, t))
        eff = spectral.build_structured(cfg, plan, ch)
        diags = analysis.r_diagonals(eff)
        for k in range(cfg.K):
            H = eff[k]
            det = np.real(np.linalg.det(H.conj().T @ H))
            assert np.prod(diags[k] ** 2) == pytest.approx(det, rel=1e-8)
            zf_sic = float(np.sum(np.log2(1 + rho_eff * diags[k] ** 2)))
            cap = float(
                np.real(np.linalg.slogdet(np.eye(H.shape[1]) + rho_eff * H.conj().T @ H)[1])
                / np.log(2)
            )
            assert zf_sic <= cap + 1e-9
    print("PASS criterion 10: QR determinant identity and capacity bound on 100 instances")
