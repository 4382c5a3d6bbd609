import numpy as np
import pytest

from blindim import model, spectral, transceiver
from oracles import direct_convolve


def setup_case(K=2, L_D=4, L_I=2, U=2, B=1, seed=0, **kw):
    cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, subblocks=B, **kw)
    plan = model.make_plan(cfg)
    ch = model.sample_channel_iid(cfg, model.trial_rng(seed, 0))
    return cfg, plan, ch


class TestPrecodeAndFrame:
    def test_cyclic_prefix_copies_core_tail(self):
        cfg, plan, _ = setup_case()
        rng = model.trial_rng(1, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        x = transceiver.precode_and_frame(plan, 0, syms[0])
        core = spectral.idft_basis(plan.N)[:, :1] @ syms[0][0, 0]
        # frame = [core[-1], core[0], core[1], core[2], flush zeros]
        np.testing.assert_allclose(x[0, 0], core[-1])
        np.testing.assert_allclose(x[0, 1:4], core)
        np.testing.assert_array_equal(x[0, 4:], 0.0)

    def test_zero_symbols_zero_frame(self):
        cfg, plan, _ = setup_case(B=3)
        z = np.zeros((plan.B, plan.U_active[0], plan.M[0]), dtype=complex)
        np.testing.assert_array_equal(transceiver.precode_and_frame(plan, 0, z), 0.0)

    def test_subblock_concatenation(self):
        cfg, plan, _ = setup_case(B=2)
        rng = model.trial_rng(2, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        x = transceiver.precode_and_frame(plan, 0, syms[0])
        solo = transceiver.precode_and_frame(
            model.make_plan(model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2, subblocks=1)),
            0,
            syms[0][1:2],
        )
        np.testing.assert_allclose(x[:, plan.N_bar : 2 * plan.N_bar], solo[:, : plan.N_bar])

    def test_shape_mismatch_rejected(self):
        cfg, plan, _ = setup_case()
        with pytest.raises(ValueError):
            transceiver.precode_and_frame(plan, 0, np.zeros((1, 1, 5)))

    def test_per_sample_power(self):
        cfg, plan, _ = setup_case(K=2, L_D=8, L_I=2, U=3, B=1, snr_db=13.0)
        acc = 0.0
        trials = 2000
        for t in range(trials):
            syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(5, t))
            x = transceiver.precode_and_frame(plan, 0, syms[0])
            acc += np.mean(np.abs(x[0, : plan.N_bar]) ** 2)
        assert acc / trials == pytest.approx(cfg.snr_linear, rel=0.05)


class TestSimulateReception:
    def test_identity_channel(self):
        cfg, plan, ch = setup_case(K=1, L_D=1, L_I=1, U=1)
        ch.taps[(0, 0)][:] = 1.0
        tx = {0: np.arange(plan.T, dtype=complex)[None, :]}
        y = transceiver.simulate_reception(cfg, plan, ch, tx)
        np.testing.assert_allclose(y[0], tx[0][0])

    def test_matches_convolution_oracle(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2, B=2)
        rng = model.trial_rng(3, 0)
        tx = {
            i: rng.standard_normal((2, plan.T)) + 1j * rng.standard_normal((2, plan.T))
            for i in range(2)
        }
        y = transceiver.simulate_reception(cfg, plan, ch, tx)
        for k in range(2):
            expect = np.zeros(plan.T, dtype=complex)
            for i in range(2):
                for u in range(2):
                    expect += direct_convolve(ch.h(k, i, u), tx[i][u])
            np.testing.assert_allclose(y[k], expect, atol=1e-12)

    def test_noise_variance(self):
        cfg, plan, ch = setup_case(K=1, L_D=4, L_I=2, U=2, B=100)
        tx = {0: np.zeros((plan.U_active[0], plan.T), dtype=complex)}
        y = transceiver.simulate_reception(
            cfg, plan, ch, tx, rng=model.trial_rng(4, 0), noise_var=2.5
        )
        var = np.mean(np.abs(y) ** 2)
        assert var == pytest.approx(2.5, rel=0.03)


class TestRemoveCpAndStack:
    def test_reference_slicing(self):
        cfg, plan, _ = setup_case()   # N=3, N_bar=4, cp=1
        stream = np.arange(plan.T, dtype=complex)
        np.testing.assert_array_equal(
            transceiver.remove_cp_and_stack(plan, stream, 1), [1, 2, 3]
        )

    def test_length_contract(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3, B=4)
        stream = np.zeros(plan.T)
        for b in range(1, 5):
            assert transceiver.remove_cp_and_stack(plan, stream, b).shape == (plan.N,)

    def test_out_of_range_subblock(self):
        cfg, plan, _ = setup_case(B=2)
        with pytest.raises(ValueError):
            transceiver.remove_cp_and_stack(plan, np.zeros(plan.T), 3)

    def test_matrix_form_identity(self):
        # noiseless single cell: post-CP samples equal sum_u Hbar_u @ core_u
        cfg, plan, ch = setup_case(K=1, L_D=6, L_I=1, U=2, B=1)
        rng = model.trial_rng(6, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        tx = {0: transceiver.precode_and_frame(plan, 0, syms[0])}
        y = transceiver.simulate_reception(cfg, plan, ch, tx)
        st = spectral.build_structured(cfg, plan, ch)
        F = spectral.idft_basis(plan.N)[:, : plan.M[0]]
        expect = sum(
            st.desired[(0, u)].Hbar @ (F @ syms[0][0, u]) for u in range(plan.U_active[0])
        )
        np.testing.assert_allclose(
            transceiver.remove_cp_and_stack(plan, y[0], 1), expect, atol=1e-10
        )


class TestCombine:
    def test_reference_dimensions(self):
        cfg, plan, _ = setup_case()
        W = transceiver.combiner(plan)
        assert W.shape == (2, 3)
        F = spectral.idft_basis(3)
        np.testing.assert_allclose(W, F[:, 1:].conj().T)

    def test_common_precoder_is_nulled(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        f1 = spectral.idft_basis(plan.N)[:, 0]
        assert np.linalg.norm(transceiver.combine(plan, 7.3 * f1)) <= 1e-12

    def test_row_orthonormality(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        W = transceiver.combiner(plan)
        np.testing.assert_allclose(W @ W.conj().T, np.eye(W.shape[0]), atol=1e-12)

    def test_interferers_only_transmission_is_nulled(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2)
        rng = model.trial_rng(8, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        syms[0][:] = 0.0   # cell 0 silent; BS 0 hears only ICI
        tx = {i: transceiver.precode_and_frame(plan, i, syms[i]) for i in range(2)}
        y = transceiver.simulate_reception(cfg, plan, ch, tx)
        y_bar = transceiver.remove_cp_and_stack(plan, y[0], 1)
        ratio = np.linalg.norm(transceiver.combine(plan, y_bar)) / np.linalg.norm(y_bar)
        assert ratio <= 1e-9

    def test_combined_noise_variance_preserved(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        rng = model.trial_rng(9, 0)
        W = transceiver.combiner(plan)
        samples = []
        for _ in range(20000 // W.shape[0]):
            z = (rng.standard_normal(plan.N) + 1j * rng.standard_normal(plan.N)) * np.sqrt(1.5 / 2)
            samples.append(W @ z)
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert var == pytest.approx(1.5, rel=0.03)


class TestEffectiveChannels:
    def test_reference_closed_form(self):
        # K=2, L_D=4, L_I=2: H_tilde = -(1/3) A [[h_u[2]], [h_u[3]]] columns
        cfg, plan, ch = setup_case()
        st = spectral.build_structured(cfg, plan, ch)
        eff = transceiver.effective_channels(cfg, plan, st)
        A = -(1 / 3) * np.array(
            [[1, 0.5 - np.sqrt(3) / 2 * 1j], [1, 0.5 + np.sqrt(3) / 2 * 1j]]
        )
        h1, h2 = ch.h(0, 0, 0), ch.h(0, 0, 1)
        expect = A @ np.array([[h1[2], h2[2]], [h1[3], h2[3]]])
        np.testing.assert_allclose(eff.H[0], expect, atol=1e-12)

    def test_zero_when_no_excess_taps(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2)
        for u in range(2):
            ch.taps[(0, 0)][u, 2:] = 0.0
        st = spectral.build_structured(cfg, plan, ch)
        eff = transceiver.effective_channels(cfg, plan, st)
        np.testing.assert_allclose(eff.H[0], 0.0, atol=1e-15)

    def test_full_rank_on_random_draws(self):
        from blindim.verify import numerical_rank

        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        for t in range(100):
            ch = model.sample_channel_iid(cfg, model.trial_rng(10, t))
            st = spectral.build_structured(cfg, plan, ch)
            eff = transceiver.effective_channels(cfg, plan, st)
            for k in range(2):
                assert numerical_rank(eff.H[k]) == plan.U_active[k] * plan.M[k]


class TestDetectors:
    def test_zf_identity_channel(self):
        y = np.array([1 + 2j, -0.5])
        np.testing.assert_allclose(transceiver.detect_zf(np.eye(2), y), y)

    def test_zf_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(transceiver.detect_zf(H, H @ s), s, atol=1e-9)

    def test_zf_rejects_rank_deficient(self):
        H = np.ones((3, 2), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            transceiver.detect_zf(H, np.ones(3))

    def test_ml_single_symbol_sign_decision(self):
        est = transceiver.detect_ml(np.array([[1.0]]), np.array([-0.3]), [-1.0, 1.0])
        assert est[0] == -1.0

    def test_ml_noiseless_exact(self):
        rng = np.random.default_rng(1)
        alphabet = transceiver.QPSK
        H = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        s = rng.choice(alphabet, size=3)
        np.testing.assert_allclose(transceiver.detect_ml(H, H @ s, alphabet), s)

    def test_ml_guard(self):
        with pytest.raises(ValueError):
            transceiver.detect_ml(np.eye(17), np.zeros(17), [-1.0, 1.0])

    def test_ml_matches_zf_at_high_snr(self):
        rng = np.random.default_rng(2)
        alphabet = transceiver.QPSK
        agree = 0
        trials = 200
        for _ in range(trials):
            H = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            s = rng.choice(alphabet, size=2)
            noise = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * np.sqrt(1e-5 / 2)
            y = H @ s + noise
            ml = transceiver.detect_ml(H, y, alphabet)
            zf = transceiver.detect_zf(H, y)
            zf_dec = alphabet[np.argmin(np.abs(zf[:, None] - alphabet[None, :]), axis=1)]
            agree += int(np.allclose(ml, zf_dec))
        assert agree >= 0.99 * trials


class TestDecodeBlock:
    def test_single_subblock_ignores_isbi(self):
        cfg, plan, ch = setup_case(B=1)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(11, 0))
        res = transceiver.simulate_link(cfg, plan, ch, syms)
        for k in range(2):
            truth = syms[k].reshape(plan.B, -1)
            np.testing.assert_allclose(res.s_hat[k], truth, atol=1e-9)

    def test_noiseless_multi_subblock_exact(self):
        cfg, plan, ch = setup_case(K=2, L_D=8, L_I=2, U=3, B=10, seed=5)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(12, 0))
        res = transceiver.simulate_link(cfg, plan, ch, syms)
        for k in range(2):
            truth = syms[k].reshape(plan.B, -1)
            assert np.abs(res.s_hat[k] - truth).max() <= 1e-9

    def test_genie_mode_uses_true_symbols(self):
        cfg, plan, ch = setup_case(K=2, L_D=8, L_I=2, U=3, B=3, seed=6)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(13, 0))
        st = spectral.build_structured(cfg, plan, ch)
        eff = transceiver.effective_channels(cfg, plan, st)
        tx = {k: transceiver.precode_and_frame(plan, k, syms[k]) for k in range(2)}
        y = transceiver.simulate_reception(cfg, plan, ch, tx)
        y_tilde = {
            k: np.array(
                [transceiver.combine(plan, transceiver.remove_cp_and_stack(plan, y[k], b))
                 for b in range(1, plan.B + 1)]
            )
            for k in range(2)
        }
        genie = {k: syms[k].reshape(plan.B, -1) for k in range(2)}
        res = transceiver.decode_block(cfg, plan, eff, y_tilde, genie_symbols=genie)
        for k in range(2):
            np.testing.assert_allclose(res.s_hat[k], genie[k], atol=1e-9)
