"""What the traced run measures in blindim: the modules it wraps, the layer
each module is charged to, the counters taken at span boundaries, and the
per-layer metrics reported from them."""

from __future__ import annotations

import importlib
import pkgutil

LAYERS = ("model", "spectral", "transceiver", "analysis", "extensions", "verify",
          "experiments", "cli")


def layer_of(short):
    """Argument parsing and config files are both orchestration: charge configfile to cli."""
    return "cli" if short == "configfile" else short


def modules():
    """The blindim package and every submodule: each namespace that may bind a function."""
    import blindim

    subs = [importlib.import_module("blindim." + m.name)
            for m in pkgutil.iter_modules(blindim.__path__)]
    return [blindim] + subs


def _trial(rec, span, args, kwargs, result):
    # trial_rng(seed, trial) opens the stream of one Monte Carlo trial
    rec.trial = span[4] = int(args[1] if len(args) > 1 else kwargs["trial"])


def _built(rec, span, args, kwargs, result):
    links = result.desired.values()
    built = sum(a.nbytes for link in links for a in vars(link).values() if hasattr(a, "nbytes"))
    built += sum(a.nbytes for a in getattr(result, "ici", {}).values())
    rec.counts["spectral.built_bytes"] += built
    rec.counts["spectral.used_bytes"] += sum(link.Hnc.nbytes + link.Hsub.nbytes for link in links)


def _detect_zf(rec, span, args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    rec.seen.setdefault("detect_zf", {})[id(H)] = H


def _cells_built(rec, span, args, kwargs, result):
    rec.counts["extensions.cells_built"] += len(result[1])


def _cells_requested(rec, span, args, kwargs, result):
    cells = kwargs.get("cells", args[6] if len(args) > 6 else None)
    rec.counts["extensions.cells_requested"] += args[0].K if cells is None else len(cells)


HOOKS = {
    "model.trial_rng": _trial,
    "spectral.build_structured": _built,
    "transceiver.detect_zf": _detect_zf,
    "extensions.delayed_effective_channels": _cells_built,
    "extensions.rate_with_residual_ici": _cells_requested,
}

# (metric, unit, better); "<layer>.self_s" is layer self time, "<fn>.s" a
# function's inclusive time and "<fn>.calls" its call count, per traced pass
PER_LAYER = [
    ("model.self_s", "s", "lower"),
    ("model.sample_channel_iid.s", "s", "lower"),
    ("model.sample_channel_iid.calls", "count", "lower"),
    ("model.trial_rng.s", "s", "lower"),
    ("model.sample_channel_geometric.s", "s", "lower"),
    ("model.pdp_variance.calls", "count", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("spectral.build_structured.s", "s", "lower"),
    ("spectral.build_structured.calls", "count", "lower"),
    ("spectral.built_mb", "MB", "lower"),
    ("spectral.used_frac", "ratio", "higher"),
    ("spectral.idft_basis.calls", "count", "lower"),
    ("transceiver.self_s", "s", "lower"),
    ("transceiver.decode_block.s", "s", "lower"),
    ("transceiver.detect_zf.calls", "count", "lower"),
    ("transceiver.detect_zf.s", "s", "lower"),
    ("transceiver.combine.s", "s", "lower"),
    ("transceiver.simulate_reception.s", "s", "lower"),
    ("transceiver.precode_and_frame.s", "s", "lower"),
    ("transceiver.useful_factor_frac", "ratio", "higher"),
    ("transceiver.effective_channels.s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("analysis.r_diagonals.s", "s", "lower"),
    ("analysis.qr_positive.calls", "count", "lower"),
    ("analysis.sum_rate_from_diagonals.s", "s", "lower"),
    ("analysis.baseline_tdma_ofdma.s", "s", "lower"),
    ("analysis.ofdma_rate_with_ici.s", "s", "lower"),
    ("extensions.self_s", "s", "lower"),
    ("extensions.delayed_effective_channels.s", "s", "lower"),
    ("extensions.composite_channel.calls", "count", "lower"),
    ("extensions.rate_with_residual_ici.s", "s", "lower"),
    ("extensions.useful_cell_frac", "ratio", "higher"),
    ("verify.self_s", "s", "lower"),
    ("verify.check_decomposition.s", "s", "lower"),
    ("verify.build_rank_factors.calls", "count", "lower"),
    ("verify.check_lemma2.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num, den):
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(rec, summary) -> dict:
    """Every PER_LAYER value except trace.overhead_s for one traced pass."""
    counts, calls = rec.counts, summary["calls"]
    out = {
        "spectral.built_mb": counts["spectral.built_bytes"] / 1e6,
        "spectral.used_frac": _ratio(counts["spectral.used_bytes"], counts["spectral.built_bytes"]),
        "transceiver.useful_factor_frac": _ratio(
            len(rec.seen.get("detect_zf", {})), calls["transceiver.detect_zf"]),
        "extensions.useful_cell_frac": _ratio(
            counts["extensions.cells_requested"], counts["extensions.cells_built"]),
    }
    for name, _, _ in PER_LAYER:
        if name in out or name == "trace.overhead_s":
            continue
        head, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = summary["layer_self"][head]
        elif field == "s":
            out[name] = summary["inclusive"][head]
        else:
            out[name] = float(calls[head])
    return out
