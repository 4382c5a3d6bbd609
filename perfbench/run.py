"""Benchmark of the blindim command-line tool.

Runs one workload in this process, single-threaded, through the real entry
point ``blindim.cli.main([...])``, checks every CSV it writes, and prints each
metric by name with its unit.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

  python3 perfbench/run.py --workload ergodic_iid --seed 0 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (setup_s, trials_per_s, peak_rss_mb),
with times in reference seconds (see refspeed.py).  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of
layers.PER_LAYER.  Outputs, the manifest and the spans go to .perfbench_out/
under the repository root.  Exit status: 0 when every
operation passed the correctness gate, 1 when one failed, 2 on a usage error
or when the blindim sources are missing.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import layers
import refspeed
import spans
from workloads import DEFAULT_SEED, WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (metric, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen.  Times are in reference seconds (refspeed):
# unscaled, trials_per_s of 10 seeds spread by 5-37% (IQR/median) on the
# 2-vCPU Xeon VM, scaled by 2-6%.  Set-up is import-dominated and tracks the
# reference kernel least well, so it gets the widest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("trials_per_s", "1/s", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


class Tally:
    """Operations attempted and failed; each failure's reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, errors):
        """Count one operation, failed if it has errors; True when it passed."""
        self.attempted += 1
        self.failed += bool(errors)
        for e in errors:
            print("FAIL: " + e, file=sys.stderr)
        return not errors


def _median(values):
    """Median, or 0 when no operation succeeded (the run is then marked incorrect)."""
    return statistics.median(values) if values else 0.0


def _invoke(cli, argv):
    """Errors of one CLI invocation: an exception or a non-zero exit."""
    try:
        code = cli.main(argv)
    except Exception:
        return ["%s raised:\n%s" % (argv[0], traceback.format_exc())]
    return [] if code == 0 else ["%s exited %d" % (argv[0], code)]


class Bench:
    def __init__(self, workload, seed, out_dir):
        from blindim import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.program_seed = program_seed(seed)
        self.out_dir = out_dir
        self.tally = Tally()
        workload.write_inputs(self.program_seed, out_dir)

    def csv(self, stem, suffix):
        return self.out_dir / (stem + suffix + ".csv")

    def warm_up(self):
        """One trial of each command, untimed; only the exit status is checked."""
        for stem, argv in self.workload.commands(self.program_seed, self.out_dir, trials=1):
            self.tally.record(_invoke(self.cli, argv + ["--out", str(self.csv(stem, ".warmup"))]))

    def run_pass(self, suffix=""):
        """One pass of the workload's commands, then the gate on every CSV it
        wrote.  Returns the pass's wall seconds, or None if an operation failed."""
        w = self.workload
        commands = w.commands(self.program_seed, self.out_dir)
        errors = {}
        start = time.perf_counter()
        for stem, argv in commands:
            errors[stem] = _invoke(self.cli, argv + ["--out", str(self.csv(stem, suffix))])
        wall = time.perf_counter() - start
        ok = True
        for stem, _ in commands:
            errs = errors[stem]
            if not errs:
                try:
                    rows = gate.read_rows(self.csv(stem, suffix))
                except (OSError, csv.Error) as exc:
                    rows, errs = [], ["%s: unreadable CSV: %s" % (stem, exc)]
                errs = errs or gate.structural_errors(stem, rows, w.rows[stem])
                if self.seed == DEFAULT_SEED and rows:
                    errs += gate.reference_errors(w.name, stem, rows)
            ok = self.tally.record(errs) and ok
        return wall if ok else None

    def timed_passes(self, seconds, traced=None):
        """Run passes until `seconds` have elapsed (at least one).  Returns the
        wall seconds of each pass that succeeded and the reference kernel's
        time around it (the mean of the runs just before and just after).
        With `traced`, every untraced pass is followed by traced()."""
        walls, kernels = [], []
        before = refspeed.kernel_seconds()
        deadline = time.perf_counter() + seconds
        while True:
            wall = self.run_pass()
            after = refspeed.kernel_seconds()
            if wall is not None:
                walls.append(wall)
                kernels.append((before + after) / 2)
            before = after
            if traced is not None:
                traced()
                before = refspeed.kernel_seconds()
            if time.perf_counter() >= deadline:
                return walls, kernels

    def setup_seconds(self):
        """Set-up wall seconds and reference kernel seconds from each of
        SETUP_PROBES fresh interpreters."""
        probe = Path(__file__).resolve().parent / "setup_probe.py"
        walls, kernels = [], []
        for _ in range(SETUP_PROBES):
            argv = [sys.executable, str(probe), str(ROOT), self.workload.name, str(self.seed),
                    str(self.out_dir / "setup")]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                self.tally.record(["setup probe timed out"])
                continue
            errs = [] if proc.returncode == 0 else ["setup probe exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:])]
            if self.tally.record(errs):
                wall, kernel = proc.stdout.split()[-2:]
                walls.append(float(wall))
                kernels.append(float(kernel))
        return walls, kernels

    def decode_checks(self):
        """Noiselessly re-decode every link_large link a pass simulated."""
        if self.workload.name != "link_large":
            return
        cfg = self.out_dir / "large_link.cfg"
        for t in range(self.workload.trials):
            try:
                err = gate.decode_error(cfg, self.program_seed, t)
            except Exception:
                err = "link trial %d raised:\n%s" % (t, traceback.format_exc())
            self.tally.record([err] if err else [])

    def end_to_end(self, seconds):
        """End-to-end metrics, times in reference seconds (see refspeed)."""
        setup_walls, setup_kernels = self.setup_seconds()
        self.warm_up()
        walls, kernels = self.timed_passes(seconds)
        self.decode_checks()
        ref = refspeed.NOMINAL_S
        n = self.workload.realizations
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print("passes: %d, median pass %.4f s wall; set-up %.4f s wall; reference kernel "
              "%.4f s in passes, %.4f s in set-up (nominal %.4f s)" % (
                  len(walls), _median(walls), _median(setup_walls), _median(kernels),
                  _median(setup_kernels), ref))
        print("wall-clock trials_per_s %.6g 1/s" % _median([n / w for w in walls]))
        return {
            "setup_s": _median([w * ref / k for w, k in zip(setup_walls, setup_kernels)]),
            "trials_per_s": _median([n * k / (w * ref) for w, k in zip(walls, kernels)]),
            "peak_rss_mb": rss_mb,
        }

    def per_layer(self, seconds):
        mods = layers.modules()
        per_pass, traced_walls, unattributed = [], [], []
        last = None

        def traced():
            nonlocal last
            rec = spans.Recorder()
            with spans.installed(rec, mods, layers.layer_of, layers.HOOKS):
                wall = self.run_pass(suffix=".traced")
            for stem in self.workload.rows:
                try:
                    same = self.csv(stem, ".traced").read_bytes() == self.csv(stem, "").read_bytes()
                except OSError as exc:
                    same = False
                    print("FAIL: %s" % exc, file=sys.stderr)
                self.tally.record([] if same else ["%s: traced CSV differs from untraced" % stem])
            if wall is not None:
                summary = spans.summarize(rec)
                per_pass.append(layers.layer_metrics(rec, summary))
                traced_walls.append(wall)
                unattributed.append(wall - summary["root_time"])
                last = rec

        self.warm_up()
        walls, _ = self.timed_passes(seconds, traced=traced)
        self.decode_checks()
        if last is not None:
            self.write_spans(last)
        out = {name: _median([p[name] for p in per_pass])
               for name, _, _ in layers.PER_LAYER if name != "trace.overhead_s"}
        out["trace.overhead_s"] = _median(traced_walls) - _median(walls)
        layer_sum = sum(out[layer + ".self_s"] for layer in layers.LAYERS)
        print("traced passes: %d, median traced wall %.4f s, sum of layer self times %.4f s, "
              "median unattributed %.6f s, hook errors in the last pass %d" % (
                  len(traced_walls), _median(traced_walls), layer_sum, _median(unattributed),
                  last.counts["hook_errors"] if last else 0))
        return out

    def write_spans(self, rec):
        """The last traced pass's spans, times in seconds from its first span."""
        t0 = rec.spans[0][1] if rec.spans else 0.0
        with open(self.out_dir / "spans.csv", "w") as fh:
            fh.write("span,name,start_s,end_s,parent,trial\n")
            for i, (fid, start, end, parent, trial) in enumerate(rec.spans):
                fh.write("%d,%s,%.7f,%.7f,%d,%d\n" % (
                    i, rec.names[fid], start - t0, end - t0, parent, trial))


def git_commit(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(bench, args, blas_threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError, ValueError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        "git_commit": git_commit(ROOT),
        "workload": bench.workload.name,
        "seed": bench.seed,
        "program_seed": bench.program_seed,
        "trials": {name: w.trials for name, w in WORKLOADS.items()},
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "blindim" / "__init__.py").is_file():
        print("error: blindim sources not found under %s" % src, file=sys.stderr)
        return 2
    # pin BLAS to one thread before numpy is first imported
    blas_threads = min(1, os.cpu_count() or 1)
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / ("%s-seed%d-trace%d" % (workload.name, args.seed, args.trace))
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, args.seed, out_dir)
    info = manifest(bench, args, blas_threads)
    (out_dir / "manifest.json").write_text(json.dumps(info, indent=1) + "\n")
    print("manifest: " + json.dumps(info))

    if args.trace:
        values = bench.per_layer(args.seconds)
        specs = [(n, u) for n, u, _ in layers.PER_LAYER]
    else:
        values = bench.end_to_end(args.seconds)
        specs = [(n, u) for n, u, _, _ in END_TO_END]
    tally = bench.tally
    for name, unit in specs:
        print("%-44s %.6g %s" % (name, values[name], unit))
    print("%-44s %.6g ratio (%d of %d operations)" % (
        "failed_frac", tally.failed / tally.attempted, tally.failed, tally.attempted))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
