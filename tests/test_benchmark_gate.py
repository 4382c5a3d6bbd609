"""The benchmark's correctness gate on the default seed: each workload's
commands run once through cli.main, and every CSV must pass perfbench's
structural and reference checks, so a changed pinned output fails here
before it fails a benchmark run.  perfbench's modules are loaded read-only
by path."""

import importlib.util
import sys
from pathlib import Path

import pytest

from blindim import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_the_gate(tmp_path, name):
    w = workloads.WORKLOADS[name]
    seed = workloads.program_seed(workloads.DEFAULT_SEED)
    w.write_inputs(seed, tmp_path)
    for stem, argv in w.commands(seed, tmp_path):
        out = tmp_path / (stem + ".csv")
        assert cli.main(argv + ["--out", str(out)]) == 0
        rows = gate.read_rows(out)
        assert gate.structural_errors(stem, rows, w.rows[stem]) == []
        assert gate.reference_errors(name, stem, rows) == []
    if name == "link_large":
        assert gate.decode_error(tmp_path / "large_link.cfg", seed, 0) is None
