"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gate
import layers
import run
import spans
from workloads import WORKLOADS, program_seed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _namespaces():
    return {m.__name__: dict(vars(m)) for m in layers.modules()}


def test_wrappers_are_transparent_and_restored():
    from blindim import model, spectral, transceiver
    import blindim

    before = _namespaces()
    original = spectral.build_structured
    rec = spans.Recorder()
    with spans.installed(rec, layers.modules(), layers.layer_of, layers.HOOKS):
        wrapped = spectral.build_structured
        assert wrapped is not original
        assert transceiver.build_structured is wrapped and blindim.build_structured is wrapped
        assert wrapped.__name__ == original.__name__ and wrapped.__doc__ == original.__doc__
        assert (spectral.idft_basis(5) == spectral.idft_basis.__wrapped__(5)).all()
        cfg = model.SystemConfig.symmetric(K=2, L_D=4, L_I=2, U=2)
        ch = model.sample_channel_iid(cfg, model.trial_rng(3, 7))
        assert rec.spans[-2][4] == 7   # the trial_rng span carries its trial
        with pytest.raises(ValueError):
            spectral.idft_basis(0)
        assert rec.current == -1
    assert _namespaces() == before
    assert transceiver.build_structured is original
    # restored also when the traced body raises
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder(), layers.modules()):
            raise RuntimeError
    assert _namespaces() == before
    names = [rec.names[s[0]] for s in rec.spans]
    assert names.count("spectral.idft_basis") == 2 and "model.sample_channel_iid" in names
    assert ch.taps[(0, 0)].shape == (2, 4)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _module(name, source, **env):
    mod = types.ModuleType(name)
    mod.__dict__.update(env)
    exec(source, mod.__dict__)
    return mod


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    inner = _module("syn.inner", (
        "def leaf(n):\n    clock.t += n\n"
        "def recurse(n):\n    clock.t += 1\n    if n:\n        recurse(n - 1)\n"
    ), clock=clock)
    outer = _module("syn.outer", (
        "def root():\n"
        "    clock.t += 1\n    inner.leaf(2)\n    clock.t += 3\n    inner.leaf(4)\n"
        "    _helper()\n    inner.recurse(2)\n"
        "def _helper():\n    clock.t += 5\n"
    ), clock=clock, inner=inner)
    rec = spans.Recorder(clock=clock)
    with spans.installed(rec, [outer, inner]):
        outer.root()
    s = spans.summarize(rec)
    # root: 1 + 3 + 5 of its own (the private helper is not a span)
    assert s["layer_self"] == {"outer": 9.0, "inner": 9.0}
    assert s["inclusive"]["outer.root"] == 18.0
    assert s["inclusive"]["inner.leaf"] == 6.0
    assert s["inclusive"]["inner.recurse"] == 3.0   # outermost span only
    assert s["calls"]["inner.recurse"] == 3 and s["calls"]["inner.leaf"] == 2
    assert s["root_time"] == sum(s["layer_self"].values())
    assert [sp[3] for sp in rec.spans] == [-1, 0, 0, 0, 3, 4]


def test_seed_changes_the_inputs(tmp_path):
    assert program_seed(5) == program_seed(5)
    assert program_seed(0) != program_seed(1)
    w = WORKLOADS["link_large"]
    texts = []
    for seed in (0, 1):
        d = tmp_path / str(seed)
        d.mkdir()
        w.write_inputs(program_seed(seed), d)
        texts.append((d / "large_link.cfg").read_text())
    assert texts[0] != texts[1]
    a = WORKLOADS["ergodic_iid"].commands(program_seed(0), tmp_path)
    b = WORKLOADS["ergodic_iid"].commands(program_seed(1), tmp_path)
    assert a != b


def test_gate_reads_columns_by_name():
    ref = gate.read_rows(gate.REFERENCE_DIR / "geometric_fig5" / "fig5.csv")
    rows = [dict(r, proposed_se_se="0.01") for r in ref]   # a later added column
    assert gate.structural_errors("fig5", rows, 13) == []
    assert gate.reference_errors("geometric_fig5", "fig5", rows) == []
    rows[3]["ofdma_se"] = repr(float(rows[3]["ofdma_se"]) * (1 + 1e-6))
    assert len(gate.reference_errors("geometric_fig5", "fig5", rows)) == 1
    rows[4]["proposed_se"] = "nan"
    assert len(gate.structural_errors("fig5", rows, 13)) == 1
    assert len(gate.structural_errors("fig5", rows[:5], 13)) == 2
    verify = gate.read_rows(gate.REFERENCE_DIR / "ergodic_iid" / "verify.csv")
    verify[1]["status"] = "FAIL"
    assert len(gate.structural_errors("verify", verify, 4)) == 1


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": d} for n, u, b, d in run.END_TO_END]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ergodic_iid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
