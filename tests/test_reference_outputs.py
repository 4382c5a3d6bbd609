"""Every command's default output, pinned.

Each case runs one command through cli.main at its defaults (rate with
--snr 0,10,20,30, sweep with --sweep L_D=4,8,16), the seeded ones at seeds
0 and 7, plus simulate on the networks of the config files beside the
references (tests/reference/simulate_<name>.cfg): link_large's, one of three
differently shaped cells, and one of QPSK payloads.  It compares the CSV
with tests/reference/<case>.csv column by column: numbers within
|g - w| <= 1e-9 max(|g|, |w|) + 1e-12, the rule of perfbench's gate, and
text cells exactly.  So a change of BLAS kernels may
move the last bits, and a change of the library's values fails.

A change that means to move a value regenerates only the files of the
cases whose values it changes, and lists them in CHANGES.md:

    PYTHONPATH=src python tests/test_reference_outputs.py CASE [CASE ...]
"""

import csv
import sys
from pathlib import Path

import pytest

from blindim import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_FLOOR = 1e-12

CASES = {"dof": ["dof"], "sweep": ["sweep", "--sweep", "L_D=4,8,16"]}
for seed in (0, 7):
    for name, argv in [("rate", ["rate", "--snr", "0,10,20,30"]), ("verify", ["verify"]),
                       ("simulate", ["simulate"]), ("fig3", ["fig3"]), ("fig5", ["fig5"])]:
        CASES["%s_seed%d" % (name, seed)] = argv + ["--seed", str(seed)]
for name, trials in [("link_large", 2), ("asymmetric", 20), ("qpsk", 20)]:
    cfg = REFERENCE_DIR / ("simulate_%s.cfg" % name)
    CASES["simulate_" + name] = ["simulate", "--config", str(cfg), "--trials", str(trials)]


def _run(case, path):
    assert cli.main(CASES[case] + ["--out", str(path)]) == 0


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


@pytest.mark.parametrize("case", CASES)
def test_output_matches_reference(tmp_path, case):
    _run(case, tmp_path / "out.csv")
    got, want = _read(tmp_path / "out.csv"), _read(REFERENCE_DIR / (case + ".csv"))
    assert got[0] == want[0], "header"
    assert len(got) == len(want), "row count"
    for j, column in enumerate(want[0]):
        for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:])):
            g, w = g_row[j], w_row[j]
            gn, wn = _number(g), _number(w)
            if gn is None or wn is None:
                ok = g == w
            else:
                ok = abs(gn - wn) <= REL_TOL * max(abs(gn), abs(wn)) + ABS_FLOOR
            assert ok, "%s row %d: %s, reference %s" % (column, i, g, w)


if __name__ == "__main__":
    if len(sys.argv) < 2 or not set(sys.argv[1:]) <= CASES.keys():
        sys.exit("usage: test_reference_outputs.py CASE [CASE ...]; cases: " + " ".join(CASES))
    REFERENCE_DIR.mkdir(exist_ok=True)
    for case in sys.argv[1:]:
        _run(case, REFERENCE_DIR / (case + ".csv"))
