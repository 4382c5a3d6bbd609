import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindim import model, spectral, transceiver
from oracles import (
    build_by_cell,
    combine_by_subblock,
    decode_by_cell,
    decode_by_subblock,
    decode_by_triangular_solve,
    direct_channel_matrix,
    direct_convolve,
    fold_matrix,
    frame_by_subblock,
    random_config,
    receive_by_link,
    symbols_by_two_draws,
)


def setup_case(K=2, L_D=4, L_I=2, U=2, B=1, seed=0, **kw):
    cfg = model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, subblocks=B, **kw)
    plan = model.make_plan(cfg)
    ch = model.sample_channel_iid(cfg, model.trial_rng(seed, 0))
    return cfg, plan, ch


def _delta_channel(cfg, ch):
    """ch with every tap zero but tap 0 of each desired link's first user,
    which is 1: base station k then hears user (k, 0)'s frames unchanged."""
    for taps in ch.values():
        taps[:] = 0.0
    for k in range(cfg.K):
        ch[(k, k)][0, 0] = 1.0
    return ch


class TestReceptionFraming:
    """The transmit framing, which simulate_reception applies frame by frame:
    pinned through a unit-tap channel and through the oracle framing."""

    def test_cyclic_prefix_copies_core_tail(self):
        cfg, plan, ch = setup_case()
        rng = model.trial_rng(1, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        x = transceiver.simulate_reception(cfg, plan, _delta_channel(cfg, ch), syms)
        core = spectral.idft_basis(plan.N)[:, :1] @ syms[0][0, 0]
        # frame = [core[-1], core[0], core[1], core[2], flush zeros]
        np.testing.assert_allclose(x[0, 0], core[-1])
        np.testing.assert_allclose(x[0, 1:4], core)
        np.testing.assert_array_equal(x[0, 4:], 0.0)

    def test_zero_symbols_zero_frame(self):
        cfg, plan, ch = setup_case(B=3)
        z = {k: np.zeros((plan.B, plan.U_active[k], plan.M[k]), dtype=complex)
             for k in range(cfg.K)}
        np.testing.assert_array_equal(transceiver.simulate_reception(cfg, plan, ch, z), 0.0)

    def test_subblock_concatenation(self):
        # subblock 1 is received as subblock 0 one frame later, and the
        # subblocks' receptions add, channel memory included
        cfg, plan, ch = setup_case(B=2)
        rng = model.trial_rng(2, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        solo_plan = model.make_plan(dataclasses.replace(cfg, subblocks=1))
        solo = [transceiver.simulate_reception(
            cfg, solo_plan, ch, {i: syms[i][b : b + 1] for i in range(cfg.K)}) for b in range(2)]
        want = np.zeros((cfg.K, plan.T), dtype=complex)
        want[:, : solo_plan.T] += solo[0]
        want[:, plan.N_bar :] += solo[1]
        y = transceiver.simulate_reception(cfg, plan, ch, syms)
        np.testing.assert_allclose(y, want, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        cfg, plan, ch = setup_case()
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(1, 0))
        with pytest.raises(ValueError, match="symbols must have shape"):
            transceiver.simulate_reception(cfg, plan, ch, {**syms, 1: np.zeros((1, 1, 5))})
        # a cell left out is a shape error too, not a KeyError
        with pytest.raises(ValueError, match="symbols must have shape"):
            transceiver.simulate_reception(cfg, plan, ch, {0: syms[0]})

    def test_per_sample_power(self):
        cfg, plan, _ = setup_case(K=2, L_D=8, L_I=2, U=3, B=1, snr_db=13.0)
        acc = 0.0
        trials = 2000
        for t in range(trials):
            syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(5, t))
            x = frame_by_subblock(plan, 0, syms[0])
            acc += np.mean(np.abs(x[0, : plan.N_bar]) ** 2)
        assert acc / trials == pytest.approx(cfg.snr_linear, rel=0.05)


class TestDrawSymbols:
    def test_qpsk_symbols_are_scaled_constellation_points(self):
        cfg, plan, _ = setup_case(K=2, L_D=8, L_I=2, U=3, B=4, snr_db=7.0, symbol_model="qpsk")
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(14, 0))
        for k in range(cfg.K):
            points = transceiver.QPSK * np.sqrt(plan.N * cfg.snr_linear / plan.M[k])
            assert syms[k].shape == (plan.B, plan.U_active[k], plan.M[k])
            dist = np.abs(syms[k].ravel()[:, None] - points[None, :]).min(axis=1)
            assert dist.max() <= 1e-12 * np.abs(points).max()
            # all four points occur among the 4 * 3 * 2 draws of each cell
            assert len(np.unique(np.round(syms[k] / points[0], 9))) == 4

    @pytest.mark.parametrize("symbol_model", ["gaussian", "qpsk"])
    @pytest.mark.parametrize("seed", [0, 7, 7919])
    def test_matches_two_draws_per_cell(self, seed, symbol_model):
        # one draw for every cell, scaled part by part and written into the
        # complex buffer, gives the bits and the generator state of a real and
        # an imaginary draw per cell; cell 2 is idle
        cfg = model.SystemConfig(K=3, users_per_cell=[6, 4, 2],
                                 cir_len=[[32, 4, 3], [4, 24, 4], [2, 4, 4]],
                                 snr_db=17.0, subblocks=5, symbol_model=symbol_model)
        plan = model.make_plan(cfg)
        assert plan.M[2] == 0
        rng, two_draws = model.trial_rng(seed, 3), model.trial_rng(seed, 3)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        want = symbols_by_two_draws(cfg, plan, two_draws)
        for k in range(cfg.K):
            assert syms[k].shape == want[k].shape and syms[k].dtype == want[k].dtype
            assert syms[k].tobytes() == want[k].tobytes()
        assert rng.bit_generator.state == two_draws.bit_generator.state


class TestSimulateReception:
    def test_identity_channel(self):
        # a unit-tap desired link and silent cross links: each base station
        # receives its own cell's framed symbols unchanged
        cfg, plan, ch = setup_case(K=2, L_D=6, L_I=2, U=1, B=3)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(3, 0))
        y = transceiver.simulate_reception(cfg, plan, _delta_channel(cfg, ch), syms)
        for k in range(cfg.K):
            np.testing.assert_allclose(y[k], frame_by_subblock(plan, k, syms[k])[0])

    def test_matches_convolution_oracle(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2, B=2)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(3, 0))
        tx = {i: frame_by_subblock(plan, i, syms[i]) for i in range(2)}
        y = transceiver.simulate_reception(cfg, plan, ch, syms)
        for k in range(2):
            expect = np.zeros(plan.T, dtype=complex)
            for i in range(2):
                for u in range(2):
                    expect += direct_convolve(ch[(k, i)][..., u, :], tx[i][u])
            np.testing.assert_allclose(y[k], expect, atol=1e-12)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_stacked_draws_rejected(self, trials):
        # the link simulator takes one draw: a trial_blocks stack, even of
        # one trial, is a ValueError naming the shape it takes
        cfg, plan, _ = setup_case(K=2, L_D=4, L_I=2, U=2, B=2)
        stack = next(model.trial_blocks(cfg, trials))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(3, 0))
        with pytest.raises(ValueError, match=r"must have shape \(U_i, L_\{k,i\}\)"):
            transceiver.simulate_reception(cfg, plan, stack, syms)
        with pytest.raises(ValueError, match=r"must have shape \(U_i, L_\{k,i\}\)"):
            transceiver.simulate_link(cfg, plan, stack, syms)

    @pytest.mark.parametrize("flaw", ["missing link", "one-user desired link", "long cross link"])
    def test_misshapen_links_rejected(self, flaw):
        # every one of the K^2 links must have the config's (U_i, L_{k,i}):
        # a missing link is not heard as zero, a one-user desired link is not
        # broadcast onto the cell's second user, and no extra tap is heard
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2, B=2)
        if flaw == "missing link":
            del ch[(1, 0)]
        elif flaw == "one-user desired link":
            ch[(0, 0)] = ch[(0, 0)][:1]
        else:
            ch[(0, 1)] = np.concatenate([ch[(0, 1)], ch[(0, 1)]], axis=-1)
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(3, 0))
        with pytest.raises(ValueError, match=r"must have shape \(U_i, L_\{k,i\}\)"):
            transceiver.simulate_reception(cfg, plan, ch, syms)
        with pytest.raises(ValueError, match=r"must have shape \(U_i, L_\{k,i\}\)"):
            transceiver.simulate_link(cfg, plan, ch, syms)

    def test_idle_cell_must_be_given(self):
        # an idle cell sends nothing, but its (B, 0, 0) entry must be given:
        # left out, it is a ValueError, not a KeyError and not zero symbols.
        # Its links' taps are never read, and the per-link oracle ignores
        # whatever stream it is given for the cell
        cfg = model.SystemConfig(K=2, users_per_cell=[2, 3], cir_len=[[5, 2], [2, 2]])
        plan = model.make_plan(cfg)
        assert plan.U_active == (2, 0)
        ch = model.sample_channel_iid(cfg, model.trial_rng(6, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(7, 0))
        assert syms[1].shape == (plan.B, 0, 0)
        with pytest.raises(ValueError, match="symbols must have shape"):
            transceiver.simulate_reception(cfg, plan, ch, {0: syms[0]})
        got = transceiver.simulate_reception(cfg, plan, ch, syms)
        for k in range(cfg.K):
            ch[(k, 1)][:] = 1.0
        np.testing.assert_array_equal(transceiver.simulate_reception(cfg, plan, ch, syms), got)
        tx = {0: frame_by_subblock(plan, 0, syms[0]), 1: np.ones((3, plan.T))}
        assert _relative(got, receive_by_link(cfg, plan, ch, tx)) <= 1e-12

    def test_noise_variance(self):
        # a generator adds noise of unit variance, sigma^2 = 1
        cfg, plan, ch = setup_case(K=1, L_D=4, L_I=2, U=2, B=100)
        zero = {0: np.zeros((plan.B, plan.U_active[0], plan.M[0]), dtype=complex)}
        y = transceiver.simulate_reception(cfg, plan, ch, zero, rng=model.trial_rng(4, 0))
        var = np.mean(np.abs(y) ** 2)
        assert var == pytest.approx(1.0, rel=0.03)


class TestCombineFrames:
    """combine's cyclic-prefix removal and subblock stacking."""

    def test_reference_slicing(self):
        cfg, plan, _ = setup_case(B=2)   # N=3, N_bar=4, cp=1
        stream = np.arange(plan.T, dtype=complex)
        cores = np.array([[1, 2, 3], [5, 6, 7]], dtype=complex)
        np.testing.assert_allclose(
            transceiver.combine(plan, stream),
            np.fft.fft(cores, axis=-1, norm="ortho")[:, plan.M_D :], rtol=0, atol=1e-14,
        )

    def test_length_contract(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3, B=4)
        rows = plan.N - plan.M_D
        assert transceiver.combine(plan, np.zeros(plan.T)).shape == (4, rows)
        # leading axes, e.g. every base station's stream, are kept
        stacked = transceiver.combine(plan, np.zeros((cfg.K, plan.T)))
        assert stacked.shape == (cfg.K, 4, rows)

    def test_short_stream_rejected(self):
        cfg, plan, _ = setup_case(B=2)
        with pytest.raises(ValueError):
            transceiver.combine(plan, np.zeros(2 * plan.N_bar - 1))

    def test_matrix_form_identity(self):
        # noiseless single cell without a prefix: the frame samples are the
        # dense channel matrix's response to every (user, precoder) weighted
        # by its symbol, and the combined observation is their DFT rows M_D:
        cfg, plan, ch = setup_case(K=1, L_D=6, L_I=1, U=2, B=1)
        rng = model.trial_rng(6, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        y = transceiver.simulate_reception(cfg, plan, ch, syms)
        assert plan.cp_len == 0
        F = spectral.idft_basis(plan.N)[:, : plan.M[0]]
        cols = np.hstack([direct_channel_matrix(ch[(0, 0)][..., u, :], plan.N, plan.L_I) @ F
                          for u in range(plan.U_active[0])])
        expect = cols @ syms[0][0].ravel()
        np.testing.assert_allclose(y[0, : plan.N_bar], expect, atol=1e-10)
        np.testing.assert_allclose(
            transceiver.combine(plan, y[0])[0],
            np.fft.fft(expect[plan.cp_len :], norm="ortho")[plan.M_D :], atol=1e-10,
        )


def _cyclic_frame(plan, core):
    """A (T,) stream holding one cyclic-prefixed frame of the core."""
    stream = np.zeros(plan.T, dtype=complex)
    stream[: plan.N_bar] = core[(np.arange(plan.N_bar) - plan.cp_len) % plan.N]
    return stream


class TestCombine:
    def test_reference_dimensions(self):
        cfg, plan, _ = setup_case()
        W = spectral.combiner(plan)
        assert W.shape == (2, 4)
        F = spectral.idft_basis(3)
        np.testing.assert_array_equal(W[:, :1], 0.0)
        np.testing.assert_allclose(W[:, 1:], F[:, 1:].conj().T)

    def test_common_precoder_is_nulled(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        f1 = spectral.idft_basis(plan.N)[:, 0]
        assert np.linalg.norm(transceiver.combine(plan, _cyclic_frame(plan, 7.3 * f1))) <= 1e-12

    def test_row_orthonormality(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        W = spectral.combiner(plan)
        np.testing.assert_allclose(W @ W.conj().T, np.eye(W.shape[0]), atol=1e-12)

    def test_interferers_only_transmission_is_nulled(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2)
        rng = model.trial_rng(8, 0)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        syms[0][:] = 0.0   # cell 0 silent; BS 0 hears only ICI
        y = transceiver.simulate_reception(cfg, plan, ch, syms)
        y_bar = y[0, plan.cp_len : plan.N_bar]
        ratio = np.linalg.norm(transceiver.combine(plan, y[0])) / np.linalg.norm(y_bar)
        assert ratio <= 1e-9

    def test_combined_noise_variance_preserved(self):
        cfg, plan, _ = setup_case(K=3, L_D=8, L_I=2, U=3)
        rng = model.trial_rng(9, 0)
        W = spectral.combiner(plan)
        np.testing.assert_array_equal(W[:, : plan.cp_len], 0.0)
        samples = []
        for _ in range(20000 // W.shape[0]):
            z = (rng.standard_normal(plan.N) + 1j * rng.standard_normal(plan.N)) * np.sqrt(1.5 / 2)
            samples.append(W[:, plan.cp_len :] @ z)
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert var == pytest.approx(1.5, rel=0.03)


class TestStructuredChannels:
    def test_reference_closed_form(self):
        # K=2, L_D=4, L_I=2: H_tilde = -(1/3) A [[h_u[2]], [h_u[3]]] columns
        cfg, plan, ch = setup_case()
        H = spectral.build_structured(cfg, plan, ch)
        A = -(1 / 3) * np.array(
            [[1, 0.5 - np.sqrt(3) / 2 * 1j], [1, 0.5 + np.sqrt(3) / 2 * 1j]]
        )
        h1, h2 = ch[(0, 0)][..., 0, :], ch[(0, 0)][..., 1, :]
        expect = A @ np.array([[h1[2], h2[2]], [h1[3], h2[3]]])
        np.testing.assert_allclose(H[0], expect, atol=1e-12)

    def test_zero_when_no_excess_taps(self):
        cfg, plan, ch = setup_case(K=2, L_D=4, L_I=2, U=2)
        for u in range(2):
            ch[(0, 0)][u, 2:] = 0.0
        H = spectral.build_structured(cfg, plan, ch)
        np.testing.assert_allclose(H[0], 0.0, atol=1e-15)

    def test_full_rank_on_random_draws(self):
        from blindim.verify import numerical_rank

        cfg = model.SystemConfig.symmetric(K=2, L_D=8, L_I=2, U=3)
        plan = model.make_plan(cfg)
        for t in range(100):
            ch = model.sample_channel_iid(cfg, model.trial_rng(10, t))
            H = spectral.build_structured(cfg, plan, ch)
            for k in range(2):
                assert numerical_rank(H[k]) == plan.U_active[k] * plan.M[k]


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

    def test_rank_deficient_channel_rejected(self):
        cfg, plan, ch = setup_case(K=2, L_D=8, L_I=2, U=3, B=3, seed=7)
        H = spectral.build_structured(cfg, plan, ch)
        H[1][:, 1] = H[1][:, 0]
        y_tilde = np.zeros((cfg.K, plan.B, plan.N - plan.M_D), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            transceiver.decode_block(cfg, plan, H, y_tilde)


class TestZfProjection:
    @pytest.mark.parametrize("ratio, deficient", [(0.5e-8, True), (2e-8, False)])
    def test_rank_boundary(self, ratio, deficient):
        # H = U diag(s) V^H with s_min / s_max = ratio either side of RANK_TOL
        rng = np.random.default_rng(17)
        m, n = 12, 5
        U, _ = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
        V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        H = (U * np.geomspace(1.0, ratio, n)) @ V.conj().T
        full, project = transceiver.zf_projection(H)
        assert full == (not deficient)
        if not deficient:
            np.testing.assert_allclose(project() @ H, np.eye(n), atol=1e-6)

    def test_stack_judges_each_matrix_on_its_own(self):
        # each matrix of a stack is checked and inverted on its own
        rng = np.random.default_rng(18)
        H = rng.standard_normal((2, 3, 7, 4)) + 1j * rng.standard_normal((2, 3, 7, 4))
        full, project = transceiver.zf_projection(H)
        assert full.all()
        P = project()
        for j in np.ndindex(2, 3):
            one_full, one = transceiver.zf_projection(H[j])
            assert one_full and P[j].tobytes() == one().tobytes()
        H[1, 2, :, 3] = H[1, 2, :, 0]
        H[1, 0, :, 1] = 0.0
        full, _ = transceiver.zf_projection(H)
        assert full.tolist() == [[True, True, True], [False, True, False]]
        # an idle cell's empty channel passes, with an empty projection
        full, project = transceiver.zf_projection(np.zeros((2, 7, 0), dtype=complex))
        assert full.all() and project().shape == (2, 0, 7)


class TestCellGroups:
    """build_structured and decode_block take each group of equally shaped
    cells as one stack; the oracles' routes take one cell at a time."""

    def test_match_the_per_cell_routes_bit_for_bit(self):
        rng = np.random.default_rng(71)
        seen = dict.fromkeys(("idle cell", "asymmetric users", "qpsk", "B=1", "B=5",
                              "several groups", "shared group", "one-user cell"), 0)
        for trial in range(300):
            cfg = random_config(rng, trial % 5)
            cfg = dataclasses.replace(cfg, subblocks=int(rng.integers(1, 6)),
                                      snr_db=float(rng.uniform(0, 30)),
                                      symbol_model=["gaussian", "qpsk"][trial % 3 == 2])
            plan = model.make_plan(cfg)
            groups = model.cell_groups(cfg, plan)
            assert sorted(k for cells in groups for k in cells) == list(range(cfg.K))
            seen["idle cell"] += 0 in plan.U_active
            seen["asymmetric users"] += len(set(cfg.users_per_cell)) > 1
            seen["qpsk"] += cfg.symbol_model == "qpsk"
            seen["B=1"] += plan.B == 1
            seen["B=5"] += plan.B == 5
            seen["several groups"] += len(groups) > 1
            seen["shared group"] += any(len(cells) > 1 for cells in groups)

            ch = model.sample_channel_iid(cfg, model.trial_rng(72, trial))
            H, want = spectral.build_structured(cfg, plan, ch), build_by_cell(cfg, plan, ch)
            for cells in groups:
                for k in cells:
                    assert H[k].shape == want[k].shape
                    if plan.U_active[k] == 1 and len(cells) > 1:
                        # one user on one draw: a one-row product alone, a
                        # row of a matrix product in its group's stack
                        seen["one-user cell"] += 1
                        assert _relative(H[k], want[k]) <= 1e-12
                    else:
                        assert H[k].tobytes() == want[k].tobytes()

            syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(73, trial))
            noise = model.trial_rng(74, trial)
            y = transceiver.simulate_reception(cfg, plan, ch, syms, rng=noise)
            y_tilde = transceiver.combine(plan, y)
            got = transceiver.decode_block(cfg, plan, H, y_tilde).s_hat
            want = decode_by_cell(cfg, plan, H, y_tilde)
            assert got.keys() == want.keys()
            for k in range(cfg.K):
                assert got[k].shape == want[k].shape
                assert got[k].tobytes() == want[k].tobytes()
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize("failing, named", [((1, 2), 1), ((0, 2), 0), ((2,), 2)])
    def test_rank_error_names_the_lowest_failing_cell(self, failing, named):
        # cells 0 and 2 share a shape and cell 1 has its own, so a lower
        # failing cell may sit in a later group or later in its group's stack
        cfg = model.SystemConfig(K=3, users_per_cell=[3, 2, 3], subblocks=2,
                                 cir_len=[[8, 2, 2], [2, 8, 2], [2, 2, 8]])
        plan = model.make_plan(cfg)
        assert model.cell_groups(cfg, plan) == [(0, 2), (1,)]
        ch = model.sample_channel_iid(cfg, model.trial_rng(75, 0))
        H = spectral.build_structured(cfg, plan, ch)
        for k in failing:
            H[k][:, 1] = H[k][:, 0]
        y_tilde = np.zeros((cfg.K, plan.B, plan.N - plan.M_D), dtype=complex)
        message = "^cell %d: effective channel is numerically rank deficient$" % named
        with pytest.raises(transceiver.RankDeficientError, match=message):
            transceiver.decode_block(cfg, plan, H, y_tilde)

    @pytest.mark.parametrize("failing", [(), (1, 2), (2,)], ids=["none", "cells 1 and 2", "cell 2"])
    def test_one_svd_per_group(self, failing):
        # the groups (0, 2) and (1,) are each decomposed once, whether the
        # decode succeeds or fails, and however many cells fail
        cfg = model.SystemConfig(K=3, users_per_cell=[3, 2, 3], subblocks=2,
                                 cir_len=[[8, 2, 2], [2, 8, 2], [2, 2, 8]])
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(75, 0))
        H = spectral.build_structured(cfg, plan, ch)
        for k in failing:
            H[k][:, 1] = H[k][:, 0]
        y_tilde = np.zeros((cfg.K, plan.B, plan.N - plan.M_D), dtype=complex)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            if failing:
                with pytest.raises(transceiver.RankDeficientError):
                    transceiver.decode_block(cfg, plan, H, y_tilde)
            else:
                transceiver.decode_block(cfg, plan, H, y_tilde)
        assert svd.call_count == 2


def _relative(a, b, scale=None):
    """max |a - b| over max |b|, or over scale where b is (nearly) nulled."""
    if b.size == 0:
        return 0.0
    scale = np.abs(b).max() if scale is None else scale
    return np.abs(a - b).max() / max(scale, 1e-300)


def _deficient(H):
    sv = np.linalg.svd(H, compute_uv=False)
    return H.shape[1] > 0 and sv[-1] <= transceiver.RANK_TOL * sv[0]


class TestMatchesSubblockOracles:
    def test_random_configs(self):
        # the batched transceiver against the one-subblock-at-a-time oracles:
        # framing, reception and combining to 1e-12, noiseless decodes to
        # 1e-9 (relative, max-abs error over the reference max-abs)
        rng = np.random.default_rng(47)
        seen = dict.fromkeys(("K=1", "idle cell", "asymmetric users", "B=1", "L_kk>N"), 0)
        for trial in range(250):
            case = trial % 6
            cfg = random_config(rng, case if case < 5 else int(rng.integers(5)))
            B = 1 if case == 5 else int(rng.integers(2, 6))
            cfg = dataclasses.replace(cfg, subblocks=B, snr_db=float(rng.uniform(0, 30)))
            plan = model.make_plan(cfg)
            seen["K=1"] += cfg.K == 1
            seen["idle cell"] += 0 in plan.U_active
            seen["asymmetric users"] += len(set(cfg.users_per_cell)) > 1
            seen["B=1"] += B == 1
            seen["L_kk>N"] += any(cfg.cir_len[k][k] > plan.N for k in range(cfg.K))

            ch = model.sample_channel_iid(cfg, model.trial_rng(48, trial))
            syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(49, trial))
            tx = {k: frame_by_subblock(plan, k, syms[k]) for k in range(cfg.K)}
            y = transceiver.simulate_reception(cfg, plan, ch, syms)
            assert _relative(y, receive_by_link(cfg, plan, ch, tx)) <= 1e-12
            y_tilde = transceiver.combine(plan, y)
            for k in range(cfg.K):
                # relative to the stream: a cell hearing only ICI combines to ~0
                want = combine_by_subblock(plan, y[k])
                assert _relative(y_tilde[k], want, scale=np.abs(y[k]).max()) <= 1e-12

            H = spectral.build_structured(cfg, plan, ch)
            truth = {k: syms[k].reshape(plan.B, -1) for k in range(cfg.K)}
            if any(_deficient(H[k]) for k in range(cfg.K)):
                # a single user carrying many symbols can be rank deficient
                with pytest.raises(np.linalg.LinAlgError):
                    transceiver.decode_block(cfg, plan, H, y_tilde)
                continue
            got = transceiver.decode_block(cfg, plan, H, y_tilde).s_hat
            want = decode_by_subblock(plan, H, y_tilde)
            for k in range(cfg.K):
                assert got[k].shape == truth[k].shape
                assert _relative(got[k], want[k]) <= 1e-9
        assert min(seen.values()) >= 30, seen

    def test_noise_matches_per_cell_draws(self):
        # zero transmissions leave only the noise: bit-identical to drawing
        # each cell's real then imaginary parts from the same generator
        for cfg in (model.SystemConfig.symmetric(K=3, L_D=8, L_I=2, U=3, subblocks=4),
                    model.SystemConfig(K=2, users_per_cell=[2, 3], cir_len=[[5, 2], [2, 2]])):
            plan = model.make_plan(cfg)
            ch = model.sample_channel_iid(cfg, model.trial_rng(50, 0))
            tx = {i: np.zeros((plan.U_active[i], plan.T), dtype=complex) for i in range(cfg.K)}
            zero = {i: np.zeros((plan.B, plan.U_active[i], plan.M[i]), dtype=complex)
                    for i in range(cfg.K)}
            got = transceiver.simulate_reception(cfg, plan, ch, zero, rng=model.trial_rng(51, 0))
            want = receive_by_link(cfg, plan, ch, tx, rng=model.trial_rng(51, 0), noise_var=1.0)
            np.testing.assert_array_equal(got, want)


class TestFrameReception:
    """simulate_reception's frame-wise products against the per-link
    convolution of the oracle's framed streams, noise included: both sides
    draw it from equal-seeded generators."""

    def _check(self, cfg, plan, seed, noisy):
        ch = model.sample_channel_iid(cfg, model.trial_rng(seed, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(seed, 1))
        tx = {i: frame_by_subblock(plan, i, syms[i]) for i in range(cfg.K)}
        got = transceiver.simulate_reception(cfg, plan, ch, syms,
                                             rng=model.trial_rng(seed, 2) if noisy else None)
        want = receive_by_link(cfg, plan, ch, tx, rng=model.trial_rng(seed, 2),
                               noise_var=1.0 if noisy else 0.0)
        assert got.shape == (cfg.K, plan.T)
        assert _relative(got, want) <= 1e-12

    def test_matches_per_link_convolution_of_framed_symbols(self):
        rng = np.random.default_rng(55)
        seen = dict.fromkeys(("cp=0", "idle cell", "U>L_kk-L_I", "L=N_bar", "delayed"), 0)
        for trial in range(400):
            cfg = random_config(rng, trial % 5)
            delayed = trial % 4 == 3
            B = 1 if delayed else int(rng.integers(1, 5))
            cfg = dataclasses.replace(cfg, subblocks=B, snr_db=float(rng.uniform(0, 30)))
            if delayed:
                L_I = model.link_lengths(cfg)[1]
                L_I_prime = int(rng.integers(1, L_I + 1))
                plan = model.make_delayed_plan(cfg, int(rng.integers(0, L_I_prime)),
                                                    L_I_prime)
            else:
                plan = model.make_plan(cfg)
            seen["cp=0"] += plan.cp_len == 0
            seen["idle cell"] += 0 in plan.U_active
            seen["U>L_kk-L_I"] += any(u > cfg.cir_len[k][k] - plan.L_I
                                      for k, u in enumerate(cfg.users_per_cell))
            seen["L=N_bar"] += any(L == plan.N_bar for row in cfg.cir_len for L in row)
            seen["delayed"] += delayed
            # noisy in two trials of three
            self._check(cfg, plan, 56 + trial, bool(rng.choice([False, True, True])))
        assert min(seen.values()) >= 30, seen

    @pytest.mark.parametrize("B", [1, 2, 3])
    def test_no_prefix_and_one_symbol_per_user(self, B):
        # L_I = 1 and M = 1: no cyclic prefix, N_bar = L_D, so each frame's
        # tail of N_bar - 1 samples fills the next frame but one sample, and
        # the last frame's tail ends one sample before the buffer does
        cfg = model.SystemConfig(K=2, users_per_cell=[4, 4], cir_len=[[5, 1], [1, 5]],
                                 subblocks=B)
        plan = model.make_plan(cfg)
        assert (plan.L_I, plan.M, plan.N_bar) == (1, (1, 1), 5)
        assert (B + 1) * plan.N_bar - plan.T == 1
        self._check(cfg, plan, 57, False)
        self._check(cfg, plan, 58, True)

    def test_long_links_and_few_users_stay_within_one_lagged_product(self):
        # one user per cell and long desired links give M close to L_D, the
        # shape where any per-link basis of delayed precoders grows as L_D^3:
        # the reception must stay within twice one (L_D, T) array, the
        # time-domain route's product of a link's taps and its cell's stream
        cfg = model.SystemConfig.symmetric(K=2, L_D=256, L_I=2, U=1)
        plan = model.make_plan(cfg)
        assert (plan.M, plan.B) == ((254, 254), 1)
        ch = model.sample_channel_iid(cfg, model.trial_rng(60, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(61, 0))
        spectral.idft_basis(plan.N)   # cached before tracing, as in a run
        tracemalloc.start()
        transceiver.simulate_reception(cfg, plan, ch, syms, rng=model.trial_rng(62, 0))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 2 * plan.L_D * plan.T * 16

    def test_cut_links_stay_below_the_padded_peak(self):
        # link_large's reception: padding the 42 four-tap cross links to 32
        # taps peaked at 7.8 (K, T) streams (3.07 MB); cut at S = 4, at 3.05
        cfg = model.SystemConfig.symmetric(K=7, L_D=32, L_I=4, U=6, subblocks=100)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(60, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(61, 0))
        transceiver.simulate_reception(cfg, plan, ch, syms)   # tables cached, as in a run
        tracemalloc.start()
        transceiver.simulate_reception(cfg, plan, ch, syms, rng=model.trial_rng(62, 0))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3.5 * cfg.K * plan.T * 16

    def test_large_trial_frees_each_stream_once_read(self):
        # one link_large trial holds its symbols while the reception's s,
        # lagged and frames meet: 3.85 (K, T) streams, 4.07 while the
        # effective channels were built before the reception, and 5.1 while
        # every stream-sized array lived until the trial ended; the bound
        # leaves 0.1 stream of margin
        cfg = model.SystemConfig.symmetric(K=7, L_D=32, L_I=4, U=6, subblocks=100,
                                           snr_db=20.0)
        plan = model.make_plan(cfg)
        transceiver._link_trial(cfg, plan, 0)   # tables cached, as in a run
        tracemalloc.start()
        transceiver._link_trial(cfg, plan, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= 3.95 * cfg.K * plan.T * 16


class TestProjectionDecode:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 50), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_triangular_solve(self, case, B, noisy, seed):
        # decode_block applies H_k^+ from a thin SVD to every subblock; the oracle
        # back-substitutes R z = Q^H y.  Both apply H_k^+ by backward-stable
        # routes, so each z_b may differ by a few cond(H_k) * eps relative,
        # and the closed-form cancellation sums up to B such differences: the
        # tolerance is 16 * B * cond(H_k) * eps.
        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(random_config(rng, case), subblocks=B,
                                  snr_db=float(rng.uniform(0, 30)))
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, rng)
        syms = transceiver.draw_symbols(cfg, plan, rng)
        y = transceiver.simulate_reception(cfg, plan, ch, syms, rng=rng if noisy else None)
        y_tilde = transceiver.combine(plan, y)
        H = spectral.build_structured(cfg, plan, ch)
        if any(_deficient(H[k]) for k in range(cfg.K)):
            with pytest.raises(np.linalg.LinAlgError):
                transceiver.decode_block(cfg, plan, H, y_tilde)
            return
        got = transceiver.decode_block(cfg, plan, H, y_tilde).s_hat
        want = decode_by_triangular_solve(plan, H, y_tilde)
        for k in range(cfg.K):
            assert got[k].shape == want[k].shape == (plan.B, plan.U_active[k] * plan.M[k])
            cond = np.linalg.cond(H[k]) if H[k].size else 1.0
            assert _relative(got[k], want[k]) <= 16 * B * cond * np.finfo(float).eps


@st.composite
def reception_cases(draw, short_cross=False):
    """K in 1..4 with an independent length per link (all equal or drawn
    from two values in some kinds) and, in half the cases, the delayed-ICI
    plan, whose active cells may hear cross links longer than their own and
    longer than N + cp.  With short_cross, K >= 2 and the cross links (1 to
    4 taps) are mostly outlasted by the desired links (1 to 40 taps)."""
    K = draw(st.integers(2 if short_cross else 1, 4))
    users = draw(st.lists(st.integers(1, 4), min_size=K, max_size=K))
    if short_cross:
        cir = [[draw(st.integers(1, 40) if i == k else st.integers(1, 4)) for i in range(K)]
               for k in range(K)]
    else:
        kind = draw(st.sampled_from(["independent", "ties", "all_equal"]))
        if kind == "all_equal":
            values = [draw(st.integers(1, 12))]
        elif kind == "ties":
            values = draw(st.lists(st.integers(1, 12), min_size=2, max_size=2))
        else:
            values = list(range(1, 13))
        cir = [[draw(st.sampled_from(values)) for _ in range(K)] for _ in range(K)]
    delay = None
    if draw(st.booleans()):
        L_I = max([cir[k][i] for k in range(K) for i in range(K) if i != k], default=1)
        L_I_prime = draw(st.integers(1, L_I))
        delay = (draw(st.integers(0, L_I_prime - 1)), L_I_prime)
    return K, users, cir, delay, draw(st.integers(1, 3)), draw(st.booleans()), draw(
        st.integers(0, 2**32 - 1))


def _reception_plan(case):
    """(cfg, plan) of a reception_cases draw: the base plan, or the delayed
    plan when the case carries a delay (L_I_d, L_I_prime)."""
    K, users, cir, delay, B, _, _ = case
    cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir, subblocks=B)
    if delay is None:
        return cfg, model.make_plan(cfg)
    return cfg, model.make_delayed_plan(cfg, *delay)


# reception_cases on the cut side of simulate_reception's rule (S below the
# longest link): desired links longer than S add their taps from S on as tails
CUT_CASES = {
    # five tails of 42 to 57 taps; cells 1 and 3 have two users each
    "tails": (5, [1, 2, 1, 2, 1], [[60, 2, 3, 2, 2], [2, 50, 2, 2, 3], [3, 2, 60, 2, 2],
                                   [2, 2, 2, 45, 2], [2, 3, 2, 2, 60]], None, 2, True, 11),
    # cell 1's desired link (2 taps) is shorter than S = 3, so it is idle and
    # has no tail; cell 0's tail is 37 taps long
    "short_cell": (4, [2, 3, 2, 1], [[40, 3, 2, 2], [2, 2, 3, 2], [1, 2, 12, 3],
                                     [2, 2, 3, 36]], None, 2, False, 12),
    # delayed plan: cell 1 is active on a 4-tap link, below S = 6 > L_I' = 4
    "delayed": (3, [6, 3, 6], [[140, 6, 3], [5, 4, 6], [2, 6, 130]], (1, 4), 2, True, 13),
    # link_large's geometry at B = 2: seven tails of 28 taps
    "link_large": (7, [6] * 7, [[32 if k == i else 4 for i in range(7)] for k in range(7)],
                   None, 2, False, 14),
}


def _symmetric_case(K, L_D, L_I, U, B, seed):
    """The reception_cases draw of SystemConfig.symmetric(K, L_D, L_I, U)."""
    cir = [[L_D if k == i else L_I for i in range(K)] for k in range(K)]
    return K, [U] * K, cir, None, B, False, seed


class TestReceptionProperty:
    @settings(max_examples=80, deadline=None)
    @given(reception_cases())
    # cell 0's cross link (7) outlasts its own (4) and N + cp = 4; U' < U
    @example((2, [3, 2], [[4, 9], [7, 3]], (0, 2), 2, False, 1))
    # every link of length 5
    @example((3, [2, 2, 2], [[5] * 3] * 3, (1, 3), 1, True, 2))
    # three base stations tie at the longest link of every cell
    @example((4, [1, 2, 3, 2], [[6, 6, 2, 6], [6, 6, 6, 2], [2, 6, 6, 6], [6, 2, 6, 6]],
              (0, 2), 3, False, 3))
    # cell 1 idle (L_11 = L_I) and cell 0 with U' < U in the base plan
    @example((3, [5, 3, 1], [[6, 2, 2], [2, 2, 2], [2, 2, 7]], None, 2, True, 4))
    @example(CUT_CASES["tails"])
    @example(CUT_CASES["short_cell"])
    @example(CUT_CASES["delayed"])
    @example(CUT_CASES["link_large"])
    # one user and 64-tap desired links: cut at S = 2, seven tails
    @example(_symmetric_case(K=7, L_D=64, L_I=2, U=1, B=1, seed=15))
    # 3120 padded taps: below SPLIT_PADDED_TAPS, so no link is cut
    @example(_symmetric_case(K=5, L_D=16, L_I=3, U=3, B=1, seed=16))
    def test_matches_per_link_convolution(self, case):
        self._check(case)

    @settings(max_examples=40, deadline=None)
    @given(reception_cases(short_cross=True))
    def test_cut_at_every_padded_block_matches_per_link_convolution(self, case):
        # with no threshold, every desired link that outlasts S is cut
        with mock.patch.object(transceiver, "SPLIT_PADDED_TAPS", 0):
            self._check(case)

    @pytest.mark.parametrize("geometry, S", [
        (dict(K=2, L_D=4, L_I=2, U=2), 4),                      # 8 padded taps: simulate's default
        (dict(K=3, L_D=8, L_I=2, U=3, subblocks=10), 8),        # 216
        (dict(K=7, L_D=8, L_I=4, U=2, subblocks=100), 8),       # 672
        (dict(K=7, L_D=12, L_I=4, U=6, subblocks=100), 12),     # 2016
        (dict(K=6, L_D=16, L_I=4, U=3, subblocks=10), 16),      # 4320
        (dict(K=3, L_D=32, L_I=4, U=4, subblocks=3), 4),        # 4704
        (dict(K=7, L_D=16, L_I=4, U=6, subblocks=100), 4),      # 6048
        (dict(K=7, L_D=32, L_I=4, U=6, subblocks=100), 4),      # link_large: 28224
        (dict(K=2, L_D=256, L_I=2, U=1), 2),                    # 129032
        (dict(K=7, L_D=64, L_I=2, U=1), 2),                     # 161448
        (dict(K=5, L_D=16, L_I=3, U=3, subblocks=1), 16),       # 3120
        ("tails", 3),                                           # 129960
        ("short_cell", 3),                                      # 29304
        ("delayed", 6),                                         # 4824
        ("link_large", 4),                                      # 28224
    ])
    def test_cut_length(self, geometry, S):
        # K (K - 1) cross links padded by U M (longest - S) taps each: the
        # first frame_response takes every link's first S taps, and each
        # desired link longer than S adds one tail of its own length
        if isinstance(geometry, str):
            cfg, plan = _reception_plan(CUT_CASES[geometry])
        else:
            cfg = model.SystemConfig.symmetric(**geometry)
            plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(63, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(64, 0))
        with mock.patch.object(transceiver, "frame_response",
                               wraps=spectral.frame_response) as spy:
            transceiver.simulate_reception(cfg, plan, ch, syms)
        shapes = [call.args[0].shape for call in spy.call_args_list]
        K, U = cfg.K, max(plan.U_active)
        assert shapes[0] == (K, K * U, S)
        assert shapes[1:] == [(U, cfg.cir_len[k][k]) for k in range(K) if cfg.cir_len[k][k] > S]

    def _check(self, case):
        K, users, cir, delay, B, noisy, seed = case
        cfg, plan = _reception_plan(case)
        rng = np.random.default_rng(seed)
        ch = model.sample_channel_iid(cfg, rng)
        syms = {i: rng.standard_normal((B, plan.U_active[i], plan.M[i]))
                + 1j * rng.standard_normal((B, plan.U_active[i], plan.M[i])) for i in range(K)}
        tx = {i: frame_by_subblock(plan, i, syms[i]) for i in range(K)}
        got = transceiver.simulate_reception(cfg, plan, ch, syms,
                                             rng=model.trial_rng(seed, 1) if noisy else None)
        want = receive_by_link(cfg, plan, ch, tx, rng=model.trial_rng(seed, 1),
                               noise_var=1.0 if noisy else 0.0)
        assert _relative(got, want) <= 1e-12


class TestCombinerProperty:
    @settings(max_examples=80, deadline=None)
    @given(reception_cases())
    # the fig5 geometry: N = 5, cp = 4 and three harvested samples
    @example((2, [3, 3], [[5, 7], [7, 5]], (3, 5), 2, False, 5))
    def test_matches_fold_then_dft_rows(self, case):
        # the combiner against the explicit 0/1 fold followed by the DFT rows,
        # and combine against per-subblock prefix removal, fold and DFT rows
        cfg, plan = _reception_plan(case)
        want = spectral.idft_basis(plan.N)[:, plan.M_D :].conj().T @ fold_matrix(plan)
        assert _relative(spectral.combiner(plan), want) <= 1e-12
        rng = np.random.default_rng(case[-1])
        y = rng.standard_normal((cfg.K, plan.T)) + 1j * rng.standard_normal((cfg.K, plan.T))
        got = transceiver.combine(plan, y)
        assert got.shape == (cfg.K, plan.B, plan.N - plan.M_D)
        for k in range(cfg.K):
            assert _relative(got[k], combine_by_subblock(plan, y[k])) <= 1e-12


class TestLargeBlockSic:
    @pytest.mark.parametrize("B", [100, 400])
    def test_matches_subblock_recursion(self, B):
        # the closed-form SIC against one subblock at a time, over many
        # subblocks; noise makes the soft SIC estimates a random walk
        cfg = model.SystemConfig.symmetric(K=2, L_D=9, L_I=3, U=2, subblocks=B)
        plan = model.make_plan(cfg)
        ch = model.sample_channel_iid(cfg, model.trial_rng(52, 0))
        syms = transceiver.draw_symbols(cfg, plan, model.trial_rng(53, 0))
        H = spectral.build_structured(cfg, plan, ch)
        truth = {k: syms[k].reshape(plan.B, -1) for k in range(cfg.K)}
        for noisy in (False, True):
            y = transceiver.simulate_reception(cfg, plan, ch, syms,
                                               rng=model.trial_rng(54, 0) if noisy else None)
            y_tilde = transceiver.combine(plan, y)
            got = transceiver.decode_block(cfg, plan, H, y_tilde).s_hat
            want = decode_by_subblock(plan, H, y_tilde)
            for k in range(cfg.K):
                assert _relative(got[k], want[k]) <= 1e-9
                if not noisy:
                    assert _relative(got[k], truth[k]) <= 1e-9
