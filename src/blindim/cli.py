# blindim/cli.py
"""Experiment command-line interface.

Commands: dof, rate, simulate, sweep, verify, fig3, fig5.  Every command
writes a CSV table (single header row) to --out or stdout, and accepts only
the options it reads (COMMANDS).  Exit status is 0 on success, 1 on a failed
check (a verification check, or a channel draw that fails the rank
criterion), 2 on configuration or usage errors, a --config or --out path
that cannot be read or written included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import sys

import numpy as np

from . import analysis, configfile, experiments, model, transceiver, verify


class UsageError(ValueError):
    """A command-line value outside the range the commands accept."""


def _check_args(args):
    """Range checks of --trials and --seed, for the commands that take them."""
    trials = getattr(args, "trials", 1)
    seed = getattr(args, "seed", None)
    if trials < 1:
        raise UsageError("--trials must be >= 1, got %d" % trials)
    if seed is not None and seed < 0:
        raise UsageError("--seed must be >= 0, got %d" % seed)


def _load_cfg(args) -> model.SystemConfig:
    if args.config:
        with open(args.config) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError("--config %s is not text: %s" % (args.config, exc)) from None
        cfg = configfile.load_system_config(text)
    else:
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return model.require_valid(cfg)


def _write_csv(args, header, rows):
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["%.12g" % v if isinstance(v, float) else v for v in row])
    finally:
        if args.out:
            out.close()


def _snr_list(args, default):
    if args.snr is None:
        return list(default)
    try:
        snrs = [float(s) for s in args.snr.split(",")]
        if all(math.isfinite(s) and s <= model.MAX_SNR_DB for s in snrs):
            return snrs
    except ValueError:
        pass
    raise UsageError("--snr must be a comma-separated list of numbers <= %.6g dB, got %r"
                     % (model.MAX_SNR_DB, args.snr))


def _dof_row(cfg):
    plan = model.make_plan(cfg)
    d1 = analysis.dof_theorem1(cfg)
    sym = ""
    ldd = {cfg.cir_len[k][k] for k in range(cfg.K)}
    lii = {cfg.cir_len[k][i] for k in range(cfg.K) for i in range(cfg.K) if i != k}
    uu = set(cfg.users_per_cell)
    if len(ldd) == 1 and len(lii) <= 1 and len(uu) == 1:
        L_D = ldd.pop()
        L_I = lii.pop() if lii else 1
        U = uu.pop()
        if U >= L_D - L_I and L_D >= 2 * L_I:
            sym = analysis.dof_symmetric(cfg.K, L_D, L_I, U)
        dic = analysis.dof_interference_channel(cfg.K, L_D, L_I) if L_D > L_I else ""
    else:
        dic = ""
    return [cfg.K, plan.L_D, plan.L_I, plan.N, d1, sym, dic]


DOF_HEADER = ["K", "L_D", "L_I", "N", "dof_theorem1", "dof_symmetric", "dof_ic"]


def cmd_dof(args):
    cfg = _load_cfg(args)
    _write_csv(args, DOF_HEADER, [_dof_row(cfg)])
    return 0


def cmd_sweep(args):
    if not args.sweep:
        raise UsageError("sweep requires --sweep key=v1,v2,...")
    key, _, values = args.sweep.partition("=")
    values = [v for v in values.split(",") if v]
    if not values:
        raise UsageError("empty sweep list for %r" % key)
    if key not in ("L_D", "K"):
        raise UsageError("unknown sweep key %r: supported sweep keys are L_D and K" % key)
    try:
        numbers = [int(v) for v in values]
    except ValueError:
        raise UsageError("--sweep %s values must be integers, got %r" % (key, args.sweep))
    cfg = _load_cfg(args)
    _, L_I = model.link_lengths(cfg)
    if key == "L_D" and min(numbers) <= L_I:
        raise UsageError("--sweep L_D values must exceed L_I = %d, since each cell has "
                         "U = L_D - L_I users, got %r" % (L_I, args.sweep))
    rows = []
    for v, x in zip(values, numbers):
        if key == "L_D":
            swept = model.SystemConfig.symmetric(
                K=cfg.K, L_D=x, L_I=L_I, U=x - L_I, subblocks=cfg.subblocks, seed=cfg.seed,
            )
        else:
            swept = model.SystemConfig.symmetric(
                K=x, L_D=cfg.cir_len[0][0], L_I=L_I, U=cfg.users_per_cell[0],
                subblocks=cfg.subblocks, seed=cfg.seed,
            )
        rows.append([v] + _dof_row(swept))
    _write_csv(args, ["sweep_" + key] + DOF_HEADER, rows)
    return 0


def cmd_rate(args):
    cfg = _load_cfg(args)
    snrs = _snr_list(args, default=[cfg.snr_db])
    proposed, baseline = analysis.ergodic_rate(cfg, snrs, args.trials)
    rows = [
        (float(s), float(p), float(b)) for s, p, b in zip(snrs, proposed, baseline)
    ]
    _write_csv(args, ["snr_db", "proposed_sum_se", "baseline_sum_se"], rows)
    return 0


def cmd_simulate(args):
    cfg = _load_cfg(args)
    plan = model.make_plan(cfg)
    rows = []
    for t in range(args.trials):
        rng = model.trial_rng(cfg.seed, t)
        ch = model.sample_channel_iid(cfg, rng)
        symbols = transceiver.draw_symbols(cfg, plan, rng)
        try:
            result = transceiver.simulate_link(
                cfg, plan, ch, symbols, noise_rng=rng, noise_var=1.0
            )
        except transceiver.RankDeficientError as exc:
            raise transceiver.RankDeficientError("trial %d, %s" % (t, exc)) from None
        for k in range(cfg.K):
            if plan.U_active[k] * plan.M[k] == 0:
                continue   # an idle cell sends nothing, so it has no error to report
            truth = symbols[k].reshape(plan.B, -1)
            err = result.s_hat[k] - truth
            denom = max(float(np.mean(np.abs(truth) ** 2)), 1e-300)
            rows.append((t, k, float(np.mean(np.abs(err) ** 2) / denom)))
    _write_csv(args, ["trial", "cell", "normalized_mse"], rows)
    return 0


def cmd_verify(args):
    if args.config:
        cfg = _load_cfg(args)
    else:
        cfg = dataclasses.replace(verify.DEFAULT_CONFIG, seed=args.seed or 0)
    results = verify.run_all(cfg, args.trials)
    rows = [(name, detail, "pass" if ok else "FAIL", float(res)) for name, detail, ok, res in results]
    _write_csv(args, ["check", "detail", "status", "residual"], rows)
    return 0 if all(ok for _, _, ok, _ in results) else 1


def cmd_fig3(args):
    snrs = _snr_list(args, default=experiments.FIG3_SNR_GRID)
    rows = experiments.run_snr_comparison(
        snr_db=snrs, trials=args.trials, seed=args.seed or 0
    )
    _write_csv(args, ["snr_db", "K", "proposed_sum_se", "baseline_sum_se"], rows)
    return 0


def cmd_fig5(args):
    rows = experiments.run_distance_comparison(trials=args.trials, seed=args.seed or 0)
    _write_csv(args, ["d_user_m", "proposed_se", "ofdma_se"], rows)
    return 0


# Every option, and the options each command reads: argparse rejects the rest
OPTIONS = {
    "--config": dict(help="path to a key=value configuration file"),
    "--out": dict(help="output CSV path (default: stdout)"),
    "--seed": dict(type=int, default=None),
    "--trials": dict(type=int, default=200),
    "--snr": dict(help="comma-separated SNR list in dB"),
    "--sweep": dict(help="sweep axis, e.g. L_D=4,8,16"),
}
COMMANDS = {
    "dof": (cmd_dof, ["--config", "--out"]),
    "rate": (cmd_rate, ["--config", "--out", "--seed", "--trials", "--snr"]),
    "simulate": (cmd_simulate, ["--config", "--out", "--seed", "--trials"]),
    "sweep": (cmd_sweep, ["--config", "--out", "--sweep"]),
    "verify": (cmd_verify, ["--config", "--out", "--seed", "--trials"]),
    "fig3": (cmd_fig3, ["--out", "--seed", "--trials", "--snr"]),
    "fig5": (cmd_fig5, ["--out", "--seed", "--trials"]),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blindim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in flags:
            sp.add_argument(flag, **OPTIONS[flag])
        sp.set_defaults(handler=fn)
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args keeps no state
    between calls, and building it costs more than a short command's work."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        return args.handler(args)
    except (configfile.ConfigParseError, model.ConfigError, OSError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except transceiver.RankDeficientError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
