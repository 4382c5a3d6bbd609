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
import os
import stat
import sys

from . import analysis, configfile, experiments, model, transceiver, verify


class UsageError(ValueError):
    """A command-line value outside the range the commands accept."""


def _check_args(args):
    """--trials through model.trial_count, which every trial loop calls, for
    every command that takes it: main turns the UsageError into exit 2, where
    trial_count's ValueError would escape it.  A --seed is checked by the
    config it enters."""
    try:
        model.trial_count(getattr(args, "trials", 1))
    except ValueError as exc:
        raise UsageError("--%s" % exc) from None


def _load_cfg(args, default=None) -> model.SystemConfig:
    """The --config file's system, else default or an empty file's."""
    if args.config:
        with open(args.config) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise UsageError("--config %s is not text: %s" % (args.config, exc)) from None
        cfg = configfile.load_system_config(text)
    else:
        cfg = default or configfile.load_system_config("")
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _write_csv(out, header, rows):
    """Write header and rows to the text stream out, floats as %.12g: the
    --out file that main opened, or stdout.  Called once, with every row,
    when the command's work is done."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%.12g" % v if isinstance(v, float) else v for v in row])


def _open_out(path):
    """(text stream, created): path opened for writing from offset 0 without
    truncating it, and whether this call created the file."""
    try:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), True
    except FileExistsError:
        fd, created = os.open(path, os.O_WRONLY | os.O_CREAT), False
    return open(fd, "w", newline=""), created


def _snr_list(args, default):
    if args.snr is None:
        return list(default)
    try:
        snrs = [float(s) for s in args.snr.split(",")]
        if all(abs(s) <= model.MAX_SNR_DB for s in snrs):
            return snrs
    except ValueError:
        pass
    raise UsageError("--snr must be a comma-separated list of numbers from -%.6g to %.6g dB, "
                     "got %r" % (model.MAX_SNR_DB, model.MAX_SNR_DB, args.snr))


def _or_blank(formula, *args):
    """formula(*args), or an empty cell outside its domain (a ValueError)."""
    try:
        return formula(*args)
    except ValueError:
        return ""


def _dof_row(cfg):
    plan = model.make_plan(cfg)
    d1 = analysis.dof_theorem1(cfg)
    sym = dic = ""
    ldd = {cfg.cir_len[k][k] for k in range(cfg.K)}
    lii = {cfg.cir_len[k][i] for k in range(cfg.K) for i in range(cfg.K) if i != k}
    uu = set(cfg.users_per_cell)
    if len(ldd) == 1 and len(lii) <= 1 and len(uu) == 1:
        L_D = ldd.pop()
        L_I = lii.pop() if lii else 1
        sym = _or_blank(analysis.dof_symmetric, cfg.K, L_D, L_I, uu.pop())
        dic = _or_blank(analysis.dof_interference_channel, cfg.K, L_D, L_I)
    return [cfg.K, plan.L_D, plan.L_I, plan.N, d1, sym, dic]


DOF_HEADER = ["K", "L_D", "L_I", "N", "dof_theorem1", "dof_symmetric", "dof_ic"]


def cmd_dof(args, out):
    cfg = _load_cfg(args)
    _write_csv(out, DOF_HEADER, [_dof_row(cfg)])
    return 0


def cmd_sweep(args, out):
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
    # a DoF row reads neither B nor the seed
    axes = dict(K=cfg.K, L_D=cfg.cir_len[0][0], L_I=L_I, U=cfg.users_per_cell[0])
    rows = []
    for v, x in zip(values, numbers):
        swept = dict(axes, **{key: x})
        if key == "L_D":
            swept["U"] = x - L_I
        rows.append([v] + _dof_row(model.SystemConfig.symmetric(**swept)))
    _write_csv(out, ["sweep_" + key] + DOF_HEADER, rows)
    return 0


def cmd_rate(args, out):
    cfg = _load_cfg(args)
    snrs = _snr_list(args, default=[cfg.snr_db])
    proposed, baseline = analysis.ergodic_rate(cfg, snrs, args.trials)
    rows = [
        (float(s), float(p), float(b)) for s, p, b in zip(snrs, proposed, baseline)
    ]
    _write_csv(out, ["snr_db", "proposed_sum_se", "baseline_sum_se"], rows)
    return 0


def cmd_simulate(args, out):
    cfg = _load_cfg(args)
    rows = experiments.run_link_trials(cfg, model.make_plan(cfg), args.trials)
    _write_csv(out, ["trial", "cell", "normalized_mse"], rows)
    return 0


def cmd_verify(args, out):
    cfg = _load_cfg(args, default=verify.DEFAULT_CONFIG)
    results = verify.run_all(cfg, args.trials)
    rows = [(name, detail, "pass" if ok else "FAIL", float(res)) for name, detail, ok, res in results]
    _write_csv(out, ["check", "detail", "status", "residual"], rows)
    return 0 if all(ok for _, _, ok, _ in results) else 1


def cmd_fig3(args, out):
    snrs = _snr_list(args, default=experiments.FIG3_SNR_GRID)
    rows = experiments.run_snr_comparison(snrs, args.trials, args.seed or 0)
    _write_csv(out, ["snr_db", "K", "proposed_sum_se", "baseline_sum_se"], rows)
    return 0


def cmd_fig5(args, out):
    rows = experiments.run_distance_comparison(trials=args.trials, seed=args.seed or 0)
    _write_csv(out, ["d_user_m", "proposed_se", "ofdma_se"], rows)
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
    """Run one command; returns its exit status.

    --out is opened once, before the run, so a path that cannot be written
    exits 2 at once.  It is not truncated: the command writes its CSV through
    that handle from offset 0, and a regular file is then cut at the end of
    the new bytes.  A failed run writes nothing, so an existing file keeps its
    bytes, and a file the run created is removed.  Without --out the CSV goes
    to stdout.
    """
    args = _parser().parse_args(argv)
    try:
        _check_args(args)
        if not args.out:
            return args.handler(args, sys.stdout)
        out, created = _open_out(args.out)
        with out:
            try:
                status = args.handler(args, out)
                # flushes, then cuts; a device cannot be cut
                if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                    out.truncate()
            except BaseException:
                if created:
                    os.remove(args.out)
                raise
        return status
    except (configfile.ConfigParseError, model.ConfigError, OSError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except transceiver.RankDeficientError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
