import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blindim import configfile, model
from oracles import (
    gain_by_user,
    hex_deployment,
    pdp_variance,
    plan_by_cases,
    sample_channel_by_link,
    small_scale_by_user,
)


def symmetric(K=2, L_D=4, L_I=2, U=2, **kw):
    return model.SystemConfig.symmetric(K=K, L_D=L_D, L_I=L_I, U=U, **kw)


def hex_gains(cfg, L_I_d, D_user):
    """large_scale_gain into every base station of a 7-cell cfg."""
    gain = {}
    for k in range(cfg.K):
        gain.update(model.large_scale_gain(cfg, L_I_d, D_user, k))
    return gain


def geometric_draws(cfg, gain, seed, trials):
    """Trials 0 .. trials - 1 of fig5's route, stacked (T, U_i, L_{k,i}) per
    link of gain: those gains times trial_blocks' user-major taps."""
    blocks = list(model.trial_blocks(dataclasses.replace(cfg, seed=seed), trials,
                                     user_major=True))
    return {key: gain[key] * np.concatenate([b[key] for b in blocks]) for key in gain}


class TestConfigInvariants:
    def test_valid_reference_config(self):
        cfg = symmetric()
        assert cfg.users_per_cell == (2, 2)
        assert cfg.cir_len == ((4, 2), (2, 4))

    def test_zero_cells_rejected(self):
        with pytest.raises(model.ConfigError) as exc:
            model.SystemConfig(K=0, users_per_cell=[], cir_len=[])
        assert exc.value.violations == ["K >= 1 violated (K=0)"]

    def test_zero_tap_count_rejected(self):
        with pytest.raises(model.ConfigError) as exc:
            model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[0]])
        assert exc.value.violations == ["L >= 1 violated at (k=0, i=0): L=0"]

    def test_construction_lists_every_violation(self):
        with pytest.raises(model.ConfigError) as exc:
            model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[0]], subblocks=0)
        assert exc.value.violations == ["L >= 1 violated at (k=0, i=0): L=0",
                                        "B >= 1 violated (B=0)"]
        assert str(exc.value) == "L >= 1 violated at (k=0, i=0): L=0; B >= 1 violated (B=0)"

    def test_negative_seed_rejected(self):
        with pytest.raises(model.ConfigError) as exc:
            symmetric(seed=-1)
        assert exc.value.violations == ["seed >= 0 violated (seed=-1)"]

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(model.ConfigError) as exc:
            symmetric(snr_db=snr_db)
        assert exc.value.violations == ["snr_db must be finite (snr_db=%r)" % snr_db]


# symmetric()'s network as SystemConfig fields
BASE = dict(K=2, users_per_cell=(2, 2), cir_len=((4, 2), (2, 4)))
# name: (fields that differ from BASE, the same change as arguments of
# symmetric() or None where it cannot express it, the violations)
INVALID = {
    "no_cells": (dict(K=0, users_per_cell=(), cir_len=()), dict(K=0),
                 ["K >= 1 violated (K=0)"]),
    "idle_cell": (dict(users_per_cell=(2, 0)), None,
                  ["U_k >= 1 violated at cell 1 (U=0)"]),
    "no_users": (dict(users_per_cell=(0, 0)), dict(U=0),
                 ["U_k >= 1 violated at cell 0 (U=0)", "U_k >= 1 violated at cell 1 (U=0)"]),
    "user_count": (dict(users_per_cell=(2, 2, 2)), None,
                   ["users_per_cell must have K entries (got 3, K=2)"]),
    "no_cross_taps": (dict(cir_len=((4, 0), (0, 4))), dict(L_I=0),
                      ["L >= 1 violated at (k=0, i=1): L=0",
                       "L >= 1 violated at (k=1, i=0): L=0"]),
    "cir_shape": (dict(cir_len=((4, 2),)), None,
                  ["cir_len must be a K x K matrix"]),
    "no_subblocks": (dict(subblocks=0), dict(subblocks=0),
                     ["B >= 1 violated (B=0)"]),
    "seed": (dict(seed=-1), dict(seed=-1),
             ["seed >= 0 violated (seed=-1)"]),
    "snr_nan": (dict(snr_db=float("nan")), dict(snr_db=float("nan")),
                ["snr_db must be finite (snr_db=nan)"]),
    "snr_high": (dict(snr_db=4000.0), dict(snr_db=4000.0),
                 ["snr_db <= 1541.27 violated (snr_db=4000.0)"]),
    "snr_low": (dict(snr_db=-4000.0), dict(snr_db=-4000.0),
                ["snr_db >= -1541.27 violated (snr_db=-4000.0)"]),
    "two_fields": (dict(symbol_model="bpsk", seed=-2), dict(symbol_model="bpsk", seed=-2),
                   ["seed >= 0 violated (seed=-2)", "symbol_model must be 'gaussian' or 'qpsk'"]),
    "fractional_K": (dict(K=2.5), None, ["K must be an integer (K=2.5)"]),
    "fractional_entries": (dict(users_per_cell=(2.9, 2), cir_len=((4.7, 2), (2, 4))), None,
                           ["U_k must be an integer at cell 0 (U=2.9)",
                            "L must be an integer at (k=0, i=0): L=4.7"]),
    "fractional_subblocks": (dict(subblocks=2.5), dict(subblocks=2.5),
                             ["B must be an integer (B=2.5)"]),
    "fractional_seed": (dict(seed=1.5), dict(seed=1.5), ["seed must be an integer (seed=1.5)"]),
    "scalar_users": (dict(users_per_cell=2), None,
                     ["users_per_cell must be a sequence (users_per_cell=2)"]),
    "scalar_cir_rows": (dict(cir_len=(4, 2)), None, ["cir_len must be a K x K matrix"]),
    "snr_text": (dict(snr_db="10"), dict(snr_db="10"),
                 ["snr_db must be a real number (snr_db='10')"]),
    "snr_none": (dict(snr_db=None), dict(snr_db=None),
                 ["snr_db must be a real number (snr_db=None)"]),
}
# a config file parses these counts as integers, so it rejects the fractions
# on their line (test_configfile.py::TestErrors::test_fractional_count)
PARSED_AS_INTEGERS = {"fractional_K", "fractional_entries", "fractional_subblocks",
                      "fractional_seed"}
# a config file cannot write these: it parses a one-entry users_per_cell as
# every cell's count, every cir_len row as a list, and snr_db as a number
NOT_IN_A_FILE = {"scalar_users", "scalar_cir_rows", "snr_text", "snr_none"}

def _config_text(fields):
    """A config file that sets fields: lists comma-separated, matrix rows
    ';'-separated; an empty list is left to the file's default."""
    lines = []
    for key, value in fields.items():
        if isinstance(value, tuple) and value and isinstance(value[0], tuple):
            value = "; ".join(",".join(map(str, row)) for row in value)
        elif isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value != "":
            lines.append("%s = %s" % (key, value))
    return "\n".join(lines) + "\n"


ROUTES = {
    "direct": lambda changes, args: model.SystemConfig(**dict(BASE, **changes)),
    "symmetric": lambda changes, args: symmetric(**args),
    "replace": lambda changes, args: dataclasses.replace(model.SystemConfig(**BASE), **changes),
    "file": lambda changes, args: configfile.load_system_config(
        _config_text(dict(BASE, **changes))),
}


@pytest.mark.parametrize("route, changes, args, violations", [
    pytest.param(route, changes, args, violations, id="%s-%s" % (route, name))
    for route in ROUTES for name, (changes, args, violations) in INVALID.items()
    if (route != "symmetric" or args is not None)
    and (route != "file" or name not in PARSED_AS_INTEGERS | NOT_IN_A_FILE)
])
def test_every_route_rejects_an_invalid_config(route, changes, args, violations):
    with pytest.raises(model.ConfigError) as exc:
        ROUTES[route](changes, args)
    assert exc.value.violations == violations


@pytest.mark.parametrize("route", ROUTES)
def test_every_route_builds_the_valid_config(route):
    assert ROUTES[route]({}, {}) == symmetric()


def test_integral_counts_are_normalised_to_int():
    cfg = model.SystemConfig(K=2.0, users_per_cell=[np.int64(2), 2.0],
                             cir_len=[[np.int32(4), 2], [2, np.float32(4)]],
                             subblocks=np.int64(3), seed=7.0)
    assert cfg == symmetric(subblocks=3, seed=7)
    counts = (cfg.K, cfg.subblocks, cfg.seed, *cfg.users_per_cell, *sum(cfg.cir_len, ()))
    assert {type(x) for x in counts} == {int}
    assert model.make_plan(cfg) == model.make_plan(symmetric(subblocks=3, seed=7))


@st.composite
def plan_configs(draw):
    """A valid SystemConfig: K <= 4, U <= 9, links of 1-11 taps, B <= 3."""
    K = draw(st.integers(1, 4))
    counts = st.lists(st.integers(1, 11), min_size=K, max_size=K)
    return model.SystemConfig(
        K=K, users_per_cell=draw(st.lists(st.integers(1, 9), min_size=K, max_size=K)),
        cir_len=draw(st.lists(counts, min_size=K, max_size=K)),
        subblocks=draw(st.integers(1, 3)))


@st.composite
def single_symbol_configs(draw):
    """A plan_configs network whose desired links are redrawn as
    L_kk = L_I + n_k, every n_k <= U_k and some n_k >= 1, so its plan sends
    one symbol per active user: M_D = 1."""
    cfg = draw(plan_configs())
    _, L_I = model.link_lengths(cfg)
    sending = draw(st.integers(0, cfg.K - 1))
    cir_len = [list(row) for row in cfg.cir_len]
    for k, U in enumerate(cfg.users_per_cell):
        cir_len[k][k] = L_I + draw(st.integers(int(k == sending), U))
    return dataclasses.replace(cfg, cir_len=cir_len)


class TestMakePlan:
    def test_reference_parameters(self):
        plan = model.make_plan(symmetric(K=2, L_D=4, L_I=2, U=2))
        assert plan.M == (1, 1)
        assert plan.U_active == (2, 2)
        assert plan.N == 3
        assert plan.N_bar == 4
        assert plan.cp_len == 1

    def test_multi_symbol_parameters(self):
        plan = model.make_plan(symmetric(K=2, L_D=8, L_I=2, U=3))
        assert plan.M == (2, 2)
        assert plan.U_active == (3, 3)
        assert plan.M_D == 2
        assert plan.N == 8
        assert plan.N_bar == 9

    def test_no_spare_taps_means_no_streams(self):
        plan = model.make_plan(symmetric(K=2, L_D=2, L_I=2, U=3))
        assert plan.M == (0, 0)
        assert plan.U_active == (0, 0)

    def test_more_users_than_spare_taps(self):
        # 0 < L_kk - L_I < U: activate L_kk - L_I users with one symbol each
        plan = model.make_plan(symmetric(K=2, L_D=5, L_I=3, U=6))
        assert plan.U_active == (2, 2)
        assert plan.M == (1, 1)

    def test_pure_function(self):
        cfg = symmetric(K=3, L_D=8, L_I=2, U=3)
        assert model.make_plan(cfg) == model.make_plan(cfg)

    def test_symmetric_case_arithmetic(self):
        # U >= L_D - L_I and L_D >= 2 L_I: full budget used and N_bar = L_D
        for L_D, L_I in [(4, 2), (8, 2), (9, 3), (12, 4)]:
            plan = model.make_plan(symmetric(K=2, L_D=L_D, L_I=L_I, U=L_D - L_I))
            assert plan.U_active[0] * plan.M[0] == L_D - L_I
            assert plan.N_bar == L_D

    def test_single_cell_has_no_cyclic_prefix(self):
        plan = model.make_plan(symmetric(K=1, L_D=8, L_I=2, U=3))
        assert plan.L_I == 1
        assert plan.cp_len == 0

    def test_frame_length(self):
        cfg = symmetric(K=2, L_D=8, L_I=2, U=3, subblocks=5)
        plan = model.make_plan(cfg)
        assert plan.T == 5 * plan.N_bar + plan.L_D - 1

    def test_matches_the_case_oracle(self):
        # the closed form against Theorem 1's three cases, cell by cell, on
        # 20000 random networks: K 1-4, U 1-11, every tap count 1-19
        rng = np.random.default_rng(0)
        for _ in range(20000):
            K = int(rng.integers(1, 5))
            cfg = model.SystemConfig(K=K, users_per_cell=rng.integers(1, 12, K),
                                     cir_len=rng.integers(1, 20, (K, K)),
                                     subblocks=int(rng.integers(1, 4)))
            assert model.make_plan(cfg) == plan_by_cases(cfg)

    @given(single_symbol_configs())
    def test_delayed_plan_without_delay_is_the_base_plan(self, cfg):
        # where the two scenarios meet, one symbol per active user and no
        # delay, the two builders agree on every field, T included
        plan = model.make_plan(cfg)
        assert plan.M_D == 1
        assert model.make_delayed_plan(cfg, 0, plan.L_I) == plan


class TestIidSampler:
    def test_deterministic_for_fixed_seed(self):
        cfg = symmetric()
        a = model.sample_channel_iid(cfg, model.trial_rng(7, 3))
        b = model.sample_channel_iid(cfg, model.trial_rng(7, 3))
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_trials_are_independent_streams(self):
        cfg = symmetric()
        a = model.sample_channel_iid(cfg, model.trial_rng(7, 0))
        b = model.sample_channel_iid(cfg, model.trial_rng(7, 1))
        assert np.abs(a[(0, 0)] - b[(0, 0)]).max() > 1e-6

    def test_moments(self):
        cfg = model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[1]])
        draws = np.array(
            [model.sample_channel_iid(cfg, model.trial_rng(0, t))[(0, 0)][0, 0]
             for t in range(10 ** 5)]
        )
        assert 0.98 <= np.mean(np.abs(draws) ** 2) <= 1.02
        assert np.abs(np.mean(draws)) <= 0.02


@st.composite
def iid_configs(draw):
    """A valid SystemConfig (cells may be idle with L_kk <= L_I), a seed and a trial."""
    K = draw(st.integers(1, 4))
    users = draw(st.lists(st.integers(1, 6), min_size=K, max_size=K))
    cir = [[draw(st.integers(1, 8) if k == i else st.integers(1, 4)) for i in range(K)]
           for k in range(K)]
    cfg = model.SystemConfig(K=K, users_per_cell=users, cir_len=cir)
    return cfg, draw(st.integers(0, 2**31 - 1)), draw(st.integers(0, 1000))


class TestOneDrawSampler:
    """sample_channel_iid's single normal draw against a real and an imaginary
    draw per link."""

    @settings(max_examples=80, deadline=None)
    @given(iid_configs())
    def test_matches_per_link_draws(self, case):
        cfg, seed, trial = case
        rng, ref_rng = model.trial_rng(seed, trial), model.trial_rng(seed, trial)
        got = model.sample_channel_iid(cfg, rng)
        want = sample_channel_by_link(cfg, ref_rng)
        assert list(got) == list(want)
        for key, taps in want.items():
            assert got[key].shape == taps.shape and got[key].dtype == taps.dtype
            assert got[key].tobytes() == taps.tobytes()
        # what is drawn next (simulate's symbols and noise) is unchanged too
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestTrialBlocks:
    """trial_blocks against one oracle draw per trial (per link for the IID
    layout, per user for fig5's), stacked per block, with blocks small enough
    that most runs cross a boundary, and any subset of the links."""

    @pytest.mark.parametrize("block", [3, 7])
    @settings(max_examples=40, deadline=None)
    @given(case=iid_configs(), trials=st.integers(1, 20), user_major=st.booleans(),
           data=st.data())
    @example(   # cell 1 idle (L_11 <= L_I), unequal cells and links
        case=(model.SystemConfig(K=2, users_per_cell=[2, 5], cir_len=[[5, 2], [3, 2]]), 11, 0),
        trials=8, user_major=False, data=None,
    )
    def test_matches_stacked_single_draws(self, block, case, trials, user_major, data):
        cfg, seed, _ = case
        every = [(k, i) for k in range(cfg.K) for i in range(cfg.K)]
        links = None if data is None else data.draw(
            st.none() | st.lists(st.sampled_from(every), min_size=1, unique=True))
        oracle = small_scale_by_user if user_major else sample_channel_by_link
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "TRIAL_BLOCK", block)
            blocks = list(model.trial_blocks(dataclasses.replace(cfg, seed=seed), trials,
                                             links, user_major))
        starts = range(0, trials, block)
        assert len(blocks) == len(starts)
        picked = [key for key in every if links is None or key in links]
        for start, ch in zip(starts, blocks):
            draws = [oracle(cfg, model.trial_rng(seed, t))
                     for t in range(start, min(start + block, trials))]
            assert list(ch) == picked
            for key, taps in ch.items():
                want = np.stack([d[key] for d in draws])
                assert taps.shape == want.shape and taps.dtype == want.dtype
                assert taps.strides == want.strides
                assert taps.tobytes() == want.tobytes()


class TestTrialNormals:
    @pytest.mark.parametrize("block", [3, model.TRIAL_BLOCK])
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_shorter_draws_are_prefixes(self, monkeypatch, block, seed):
        # across a block boundary, m normals per trial are the first m of n:
        # fig3's networks read one draw at the widest count
        monkeypatch.setattr(model, "TRIAL_BLOCK", block)
        trials = block + 2
        wide = list(model.trial_normals(seed, trials, 216))
        assert [len(b) for b in wide] == [block, 2]
        for m in (1, 48, 120, 215, 216):
            narrow = list(model.trial_normals(seed, trials, m))
            assert len(narrow) == len(wide)
            for got, full in zip(narrow, wide):
                assert got.shape == (len(full), m)
                assert got.tobytes() == np.ascontiguousarray(full[:, :m]).tobytes()

    def test_row_t_is_trial_t(self, monkeypatch):
        # each block's rows continue the trial count: no block restarts at 0
        monkeypatch.setattr(model, "TRIAL_BLOCK", 3)
        got = np.concatenate(list(model.trial_normals(5, 7, 4)))
        want = np.stack([model.trial_rng(5, t).standard_normal(4) for t in range(7)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trials", [2.0, np.float64(2.0), np.int64(2)])
    def test_integral_count_is_its_int(self, trials):
        got = list(model.trial_normals(3, trials, 5))
        want = list(model.trial_normals(3, 2, 5))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("trials", [2.5, "2", None, float("nan"), float("inf")])
    def test_count_that_is_not_integral_is_rejected(self, trials):
        blocks = model.trial_normals(3, trials, 5)
        with pytest.raises(ValueError, match=r"^trials must be an integer, got "):
            next(blocks)


class TestFadingTrialBlocks:
    """fig5's user-major trial_blocks against one full per-user draw per
    trial, with blocks of 3 trials."""

    CFG = model.SystemConfig(K=3, users_per_cell=[2, 1, 3],
                             cir_len=[[4, 2, 3], [2, 5, 2], [3, 1, 4]], seed=4)

    @pytest.mark.parametrize("links", [[(0, 0), (0, 1), (0, 2)], [(1, 0), (2, 2)]])
    @pytest.mark.parametrize("trials", [1, 6, 8])
    def test_matches_full_draws(self, monkeypatch, links, trials):
        cfg = self.CFG
        monkeypatch.setattr(model, "TRIAL_BLOCK", 3)
        blocks = list(model.trial_blocks(cfg, trials, links, user_major=True))
        full = [small_scale_by_user(cfg, model.trial_rng(cfg.seed, t)) for t in range(trials)]
        for ch in blocks:
            assert list(ch) == links
        assert [len(ch[links[0]]) for ch in blocks] == [
            min(3, trials - start) for start in range(0, trials, 3)]
        for key in links:
            got = np.concatenate([ch[key] for ch in blocks])
            assert got.tobytes() == np.stack([d[key] for d in full]).tobytes()

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        blocks = model.trial_blocks(self.CFG, trials)
        with pytest.raises(ValueError, match="trials must be >= 1, got %d" % trials):
            next(blocks)

    def test_draws_only_up_to_the_last_link_picked(self):
        # the links into base station 0 come first in a draw
        into_0 = [(0, 0), (0, 1), (0, 2)]
        assert model._normal_count(self.CFG, into_0) == 2 * (2 * 4 + 1 * 2 + 3 * 3)
        assert model._normal_count(self.CFG, [(2, 0)]) == 2 * (2 * 4 + 1 * 2 + 3 * 3
                                                                + 2 * 2 + 1 * 5 + 3 * 2 + 2 * 3)
        assert model._normal_count(self.CFG) == 2 * (2 * 4 + 1 * 2 + 3 * 3 + 2 * 2 + 1 * 5
                                                     + 3 * 2 + 2 * 3 + 1 * 1 + 3 * 4)


class TestPdpVariance:
    def test_delayed_ici_support(self):
        gamma = model.pdp_profile(8, 3, 7)
        np.testing.assert_array_equal(gamma[:3], 0.0)
        assert gamma[3] > 0.0
        assert gamma[7] == 0.0

    def test_normalization(self):
        own = model.pdp_profile(10, 0, 6).sum()
        cross = model.pdp_profile(10, 2, 7).sum()
        assert own == pytest.approx(1.0, abs=1e-12)
        assert cross == pytest.approx(1.0, abs=1e-12)

    def test_empty_support_is_zero(self):
        # every cross tap precedes the delay offset: no power, and no 0 / 0
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(model.pdp_profile(4, 5, 4), 0.0)


class TestHexDeployment:
    """The oracle deployment that large_scale_gain is checked against."""

    def test_own_bs_distance(self):
        dist = hex_deployment(80.0, [3] * 7)
        for i in range(7):
            for u in range(3):
                assert dist[i, i, u] == pytest.approx(80.0)

    def test_bs_spacing(self):
        # a user at distance 0 sits on its own site: dist[k, i, 0] is the
        # distance between sites i and k
        dist = hex_deployment(0.0, [1] * 7)
        for c in range(1, 7):
            assert dist[0, c, 0] == pytest.approx(300.0)
        # adjacent ring sites are also D_site apart
        assert dist[1, 2, 0] == pytest.approx(300.0)

    def test_sixty_degree_symmetry(self):
        dist = hex_deployment(80.0, [1] * 7)
        # distances from the center BS to each ring cell's user repeat under rotation
        d = sorted(dist[0, 1:, 0])
        rot = sorted(np.roll(dist[0, 1:, 0], 1))
        np.testing.assert_allclose(d, rot, rtol=1e-12)

    def test_rejects_user_outside_cell(self):
        with pytest.raises(ValueError):
            hex_deployment(300.0, [3] * 7)


class TestGeometricSampler:
    def test_pathloss_scaling(self):
        cfg = symmetric(K=7, L_D=4, L_I=1, U=1)
        powers = {}
        for d in (50.0, 100.0):
            ch = geometric_draws(cfg, hex_gains(cfg, 0, d), 0, 4000)
            powers[d] = np.sum(np.abs(ch[(0, 0)][..., 0, :]) ** 2) / 4000
        assert powers[50.0] / powers[100.0] == pytest.approx(2 ** 3.5, rel=0.05)

    def test_tap_power_matches_profile(self):
        cfg = symmetric(K=7, L_D=4, L_I=1, U=1)
        acc = np.mean(np.abs(geometric_draws(cfg, hex_gains(cfg, 0, 60.0), 3, 20000)[(0, 0)][..., 0, :]) ** 2, axis=0)
        p0 = 10 ** (model.REF_LOSS_DB / 10)
        for ell in range(4):
            expect = p0 * 60.0 ** -3.5 * pdp_variance(0, 0, ell, 4, 1, 0)
            assert acc[ell] == pytest.approx(expect, rel=0.05)

    def test_delayed_ici_taps_exactly_zero(self):
        cfg = symmetric(K=7, L_D=5, L_I=7, U=2)
        ch = geometric_draws(cfg, hex_gains(cfg, 3, 100.0), 0, 1)
        for (k, i), taps in ch.items():
            if k != i:
                np.testing.assert_array_equal(taps[..., :3], 0.0)
                assert np.all(np.abs(taps[..., 3:]) > 0)

    def test_rejects_bad_distance(self):
        # seven cells, and every user strictly inside its own cell, anywhere
        # on a grid
        cfg = symmetric(K=7, L_D=4, L_I=1, U=1)
        with pytest.raises(ValueError, match="K == 7"):
            model.large_scale_gain(model.SystemConfig(K=1, users_per_cell=[1], cir_len=[[4]]),
                                   0, 50.0, 0)
        for D_user in (0.0, 300.0, [50.0, 0.0, 80.0], [50.0, 300.0], -1.0, np.nan):
            with pytest.raises(ValueError, match="D_user"):
                model.large_scale_gain(cfg, 0, D_user, 0)
        # a base station outside the layout, negative ones too
        for k in (-1, 7):
            with pytest.raises(ValueError, match="k=%d" % k):
                model.large_scale_gain(cfg, 0, 50.0, k)

    def test_bad_distance_on_a_grid_names_its_link(self):
        # a good grid takes no invalid power; one bad D_user on it is named by
        # its grid index, with the links it was asked for
        cfg = model.SystemConfig(K=7, users_per_cell=[1, 2, 1, 3, 1, 2, 1],
                                 cir_len=[[3] * 7] * 7)
        D_user = np.full((3, 2), 50.0)
        with np.errstate(all="raise"):
            gains = model.large_scale_gain(cfg, 0, D_user, 1)
            assert all(np.isfinite(g).all() for g in gains.values())
            D_user[2, 1] = 0.0
            with pytest.raises(ValueError, match=r"links into k=1 .* D_user\[2, 1\] = 0\.0"):
                model.large_scale_gain(cfg, 0, D_user, 1)
        with pytest.raises(ValueError, match=r"D_user = nan"):
            model.large_scale_gain(cfg, 0, np.nan, 1)

    def test_integral_base_station_is_its_int(self):
        # k = 3.0 (numpy's too) gives k = 3's gains bit for bit; a k that is
        # not integral is outside the layout
        cfg = symmetric(K=7, L_D=5, L_I=7, U=3)
        grid = np.array([40.0, 120.0])
        want = model.large_scale_gain(cfg, 3, grid, 3)
        for k in (3.0, np.float64(3.0), np.int64(3)):
            gains = model.large_scale_gain(cfg, 3, grid, k)
            assert list(gains) == list(want)
            assert {type(key[0]) for key in gains} == {int}
            for key in want:
                np.testing.assert_array_equal(gains[key], want[key])
        for k in (3.5, "3", None):
            with pytest.raises(ValueError, match="need K == 7 and 0 <= k < 7"):
                model.large_scale_gain(cfg, 3, grid, k)

    def test_integral_delay_is_its_int(self):
        # L_I_d = 3.0 (numpy's too) gives 3's gains bit for bit
        cfg = symmetric(K=7, L_D=5, L_I=7, U=3)
        grid = np.array([40.0, 120.0])
        want = model.large_scale_gain(cfg, 3, grid, 0)
        for L_I_d in (3.0, np.float64(3.0), np.int64(3)):
            gains = model.large_scale_gain(cfg, L_I_d, grid, 0)
            assert list(gains) == list(want)
            for key in want:
                assert gains[key].tobytes() == want[key].tobytes()

    @pytest.mark.parametrize("L_I_d", ["3", 3.5, None, float("nan"), -1, 7, 8])
    def test_delay_outside_the_cross_links_is_rejected(self, L_I_d):
        # -1 once read tap -1, and 7 or more (L_I = 7) zeroed every cross link
        cfg = symmetric(K=7, L_D=5, L_I=7, U=3)
        with pytest.raises(ValueError, match=r"need 0 <= L_I_d < L_I = 7 \(L_I_d="):
            model.large_scale_gain(cfg, L_I_d, 50.0, 0)

    @pytest.mark.parametrize("links", [
        [(0, i) for i in range(7)],    # fig5's pick: the links into cell 0
        [(2, 1), (0, 0), (1, 2)],      # out of (k, i) order
        [(6, 6)],
        [],
    ])
    def test_gains_of_picked_links(self, links):
        # the picked links, in their order, each bit for bit the oracle's
        # gain on its full deployment
        users = [2, 1, 3, 1, 2, 1, 3]
        cir = np.random.default_rng(1).integers(1, 9, (7, 7))
        cfg = model.SystemConfig(K=7, users_per_cell=users, cir_len=cir)
        grid = np.random.default_rng(1).uniform(1.0, 299.0, (5,))
        want = [gain_by_user(cfg, 2, hex_deployment(d, users)) for d in grid]
        into = {k: model.large_scale_gain(cfg, 2, grid, k) for k in {k for k, _ in links}}
        picked = {key: into[key[0]][key] for key in links}
        assert list(picked) == links
        for key, gain in picked.items():
            for j in range(len(grid)):
                np.testing.assert_array_equal(gain[j], want[j][key])

    @pytest.mark.parametrize("users", [[3] * 7, list(range(1, 8))])
    def test_gains_match_the_oracle_deployment(self, users):
        # every link into every base station, with an asymmetric cir_len,
        # bit for bit the oracle's scalar gains on its full (7, 7, U_max)
        # deployment; users of cell k at 1e-14 m are still that far from
        # base station k, so every gain is finite
        grid = np.concatenate([[1e-14, 1e-10], np.linspace(0.001, 299.999, 43)])
        cir = np.random.default_rng(2).integers(1, 9, (7, 7))
        cfg = model.SystemConfig(K=7, users_per_cell=users, cir_len=cir)
        want = [gain_by_user(cfg, 2, hex_deployment(d, users)) for d in grid]
        for k in range(7):
            with np.errstate(all="raise"):
                gains = model.large_scale_gain(cfg, 2, grid, k)
            assert list(gains) == [(k, i) for i in range(7)]
            for (_, i), gain in gains.items():
                assert gain.shape == (len(grid), users[i], cir[k][i])
                for j in range(len(grid)):
                    np.testing.assert_array_equal(gain[j], want[j][(k, i)])

    def test_picked_links_keep_their_place_in_the_draw(self):
        # the links into base station 0 come first: normals cut after them
        # build the same taps for them as the whole draw
        cfg = model.SystemConfig(K=3, users_per_cell=[2, 1, 3],
                                 cir_len=[[4, 2, 3], [2, 5, 2], [3, 1, 4]])
        normals = np.random.default_rng(0).standard_normal((2, model._normal_count(cfg)))
        full = model._taps(cfg, normals, user_major=True)
        into_0 = [(0, 0), (0, 1), (0, 2)]
        cut = model._taps(cfg, normals[:, : 2 * (2 * 4 + 1 * 2 + 3 * 3)], into_0, user_major=True)
        assert list(cut) == into_0
        for key in into_0:
            np.testing.assert_array_equal(cut[key], full[key])
        later = model._taps(cfg, normals, [(2, 1)], user_major=True)
        np.testing.assert_array_equal(later[(2, 1)], full[(2, 1)])
