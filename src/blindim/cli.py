# blindim/cli.py
"""Experiment command-line interface.

Commands: dof, rate, simulate, sweep, verify, fig3, fig5.  Every command
writes a CSV table (single header row) to --out or stdout.  Exit status is 0
on success, 1 on a failed check (a verification check, or a channel draw that
fails the rank criterion), 2 on configuration or usage errors.
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
    if args.trials < 1:
        raise UsageError("--trials must be >= 1, got %d" % args.trials)
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be >= 0, got %d" % args.seed)


def _load_cfg(args) -> model.SystemConfig:
    if args.config:
        with open(args.config) as fh:
            cfg = configfile.load_system_config(fh.read())
    else:
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
    if args.seed is not None:
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
        if all(map(math.isfinite, snrs)):
            return snrs
    except ValueError:
        pass
    raise UsageError("--snr must be a comma-separated list of numbers, got %r" % args.snr)


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
    if key not in ("L_D", "K", "snr_db", "subblocks", "seed"):
        raise UsageError("unknown sweep key %r" % key)
    cast = float if key == "snr_db" else int
    try:
        numbers = [cast(v) for v in values]
    except ValueError:
        raise UsageError("--sweep %s values must be %s, got %r"
                         % (key, "numbers" if cast is float else "integers", args.sweep))
    cfg = _load_cfg(args)
    L_I = cfg.cir_len[0][1] if cfg.K > 1 else 2
    rows = []
    for v, x in zip(values, numbers):
        if key == "L_D":
            swept = model.SystemConfig.symmetric(
                K=cfg.K, L_D=x, L_I=L_I, U=x - L_I, subblocks=cfg.subblocks, seed=cfg.seed,
            )
        elif key == "K":
            L_D = cfg.cir_len[0][0]
            swept = model.SystemConfig.symmetric(
                K=x, L_D=L_D, L_I=L_I, U=cfg.users_per_cell[0],
                subblocks=cfg.subblocks, seed=cfg.seed,
            )
        else:
            swept = dataclasses.replace(cfg, **{key: x})
        rows.append([v] + _dof_row(swept))
    _write_csv(args, ["sweep_" + key] + DOF_HEADER, rows)
    return 0


def cmd_rate(args):
    cfg = _load_cfg(args)
    snrs = _snr_list(args, default=[cfg.snr_db])
    proposed, baseline = analysis.ergodic_rate(cfg, snrs, args.trials, seed=cfg.seed)
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
    cfg = _load_cfg(args) if args.config else None
    results = verify.run_all(cfg=cfg, seed=args.seed or 0, trials=args.trials)
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blindim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    handlers = {
        "dof": cmd_dof,
        "rate": cmd_rate,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "verify": cmd_verify,
        "fig3": cmd_fig3,
        "fig5": cmd_fig5,
    }
    for name, fn in handlers.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to a key=value configuration file")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--trials", type=int, default=200)
        sp.add_argument("--snr", help="comma-separated SNR list in dB")
        sp.add_argument("--sweep", help="sweep axis, e.g. L_D=4,8,16")
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
    except (configfile.ConfigParseError, model.ConfigError, FileNotFoundError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except transceiver.RankDeficientError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
