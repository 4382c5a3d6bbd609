"""Span recording around the public functions of a package, installed from
outside the package, and the self-time arithmetic over recorded spans.

A span is ``[function id, start, end, parent span index, trial]``.  Spans stay
in memory in the Recorder and are written out by the caller when the run ends.
Installing replaces each public function in every given namespace that binds
it (``transceiver.build_structured`` as well as ``spectral.build_structured``)
and restores the originals on exit, also when the body raises.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import Counter, defaultdict


class Recorder:
    """In-memory spans and counters of one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []      # function id -> "module.function"
        self.layers = []     # function id -> layer name
        self.spans = []
        self.current = -1    # index of the open innermost span
        self.trial = -1      # trial of the spans being opened, -1 when unknown
        self.counts = Counter()   # counters that hooks add at span boundaries
        self.seen = {}       # objects hooks keep alive so that their ids stay distinct

    def _wrap(self, fn, name, layer, hook):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            if parent < 0:
                self.trial = -1
            span = [fid, self.clock(), 0.0, parent, self.trial]
            self.current = len(self.spans)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self.current = parent
            if hook is not None:
                try:
                    hook(self, span, args, kwargs, result)
                except Exception:
                    # a hook that no longer fits the program must not change
                    # what the program does; the count is printed instead
                    self.counts["hook_errors"] += 1
            return result

        return wrapper


def public_functions(module):
    """Functions a module defines itself whose names do not start with '_'."""
    return [
        (name, obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


@contextlib.contextmanager
def installed(recorder, modules, layer_of=lambda short: short, hooks=None):
    """Wrap every public function of `modules` in all of `modules`' namespaces.

    Span names are "<module short name>.<function>"; layer_of maps the module
    short name to the layer the span's time is charged to; hooks maps span
    names to ``hook(recorder, span, args, kwargs, result)``, called after the
    function returns.
    """
    hooks = hooks or {}
    wrappers = {}
    for module in modules:
        short = module.__name__.rpartition(".")[2]
        for name, fn in public_functions(module):
            qual = short + "." + name
            wrappers[fn] = recorder._wrap(fn, qual, layer_of(short), hooks.get(qual))
    patched = []
    try:
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    patched.append((module, name, obj))
        yield recorder
    finally:
        for module, name, obj in reversed(patched):
            setattr(module, name, obj)


def summarize(recorder):
    """Per-layer self time, per-function inclusive time and call counts.

    A span's self time is its duration minus the durations of its direct
    children (calls are single-threaded, so children never overlap).  A
    function's inclusive time counts only spans with no ancestor of the same
    function, so recursion is not counted twice.
    """
    spans = recorder.spans
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    layer_self = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for i, s in enumerate(spans):
        fid = s[0]
        name = recorder.names[fid]
        layer_self[recorder.layers[fid]] += own[i]
        calls[name] += 1
        p = s[3]
        while p >= 0 and spans[p][0] != fid:
            p = spans[p][3]
        if p < 0:
            inclusive[name] += s[2] - s[1]
    root_time = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return {"layer_self": layer_self, "inclusive": inclusive, "calls": calls,
            "root_time": root_time}
