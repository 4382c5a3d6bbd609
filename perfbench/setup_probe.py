"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing blindim plus one warm-up trial of each of the workload's
CLI commands, which builds their configs, plans and deployments.  Prints that
time and the reference kernel's time (see refspeed) in the same process.
run.py starts this script several times and reports the median of the set-up
time in reference seconds as setup_s.

Usage: python3 setup_probe.py ROOT WORKLOAD SEED OUT_DIR
"""

import sys
import time
from pathlib import Path

import refspeed
from workloads import WORKLOADS, program_seed


def main(argv):
    root, name, seed, out_dir = Path(argv[0]), argv[1], int(argv[2]), Path(argv[3])
    workload = WORKLOADS[name]
    pseed = program_seed(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(pseed, out_dir)
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    from blindim import cli

    for stem, argv_ in workload.commands(pseed, out_dir, trials=1):
        code = cli.main(argv_ + ["--out", str(out_dir / (stem + ".csv"))])
        if code != 0:
            print("%s exited %d" % (stem, code), file=sys.stderr)
            return 1
    wall = time.perf_counter() - start
    refspeed.kernel_seconds()   # warm-up, as the set-up above was a first call
    print(repr(wall), repr(refspeed.kernel_seconds(repeats=3)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
