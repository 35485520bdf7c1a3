"""Outside-in span recorder for lcltflow, and the arithmetic on its spans.

``install()`` replaces each layer's public functions listed in ``LAYERS``
with a timing wrapper, both on the defining module and on every other
``lcltflow`` module that imported the function by name (``from .x import
f``), so calls made through ``lcltflow.cli`` are seen too.  Nothing inside
the package is edited.  Spans stay in memory and are written out once by
``Recorder.dump``.

A span is ``[name, start, end, cpu_start, cpu_end, parent, run_id, attrs]``:
wall times from ``time.perf_counter``, process CPU from
``time.process_time`` (all threads), ``parent`` the index of the enclosing
span on the same thread or -1, and ``attrs`` a few sizes taken from the
call's arguments (``N``, number of t values, grid points).

The analysis half (``busy``, ``self_time``, ...) imports nothing from
lcltflow, so run.py can use it without loading the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

# layer -> (module, public functions traced)
LAYERS = {
    "cli": ("lcltflow.cli", ["main"]),
    "systems": ("lcltflow.systems", ["load_system"]),
    "montecarlo": ("lcltflow.montecarlo",
                   ["estimate_mlclt", "estimate_lclt", "estimate_correlation",
                    "sample_flow_integrals", "estimate_sigma"]),
    "renewal_exact": ("lcltflow.renewal_exact",
                      ["counterexample_scan", "stationary_event_probability",
                       "dp_distribution"]),
    "spectral": ("lcltflow.spectral",
                 ["fourier_lclt", "eigen_curve_rows", "expansion_fit"]),
    "groups": ("lcltflow.groups",
               ["closure_of_group", "classify_case", "closure_1d"]),
    "predict": ("lcltflow.predict",
                ["predict", "prediction_record", "flow_variance",
                 "mixing_classify"]),
}

# span name -> {attr: function of the bound arguments}
_ATTRS = {
    "montecarlo.estimate_mlclt": {"N": lambda a: int(a["N"])},
    "montecarlo.estimate_lclt": {"N": lambda a: int(a["N"])},
    "montecarlo.estimate_correlation": {"N": lambda a: int(a["N"])},
    "montecarlo.sample_flow_integrals": {"N": lambda a: int(a["N"])},
    "renewal_exact.counterexample_scan": {
        "n_t": lambda a: len(a["t_values"])},
    "spectral.eigen_curve_rows": {"points": lambda a: len(a["t_grid"])},
}

NAME, START, END, CPU0, CPU1, PARENT, RUN, ATTRS = range(8)


class Recorder:
    """Collects spans for one process; safe to call from several threads."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)
        getters = _ATTRS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if getters:
                bound = sig.bind(*args, **kwargs).arguments
                attrs = {k: g(bound) for k, g in getters.items()}
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                idx = len(self.spans)
                span = [name, 0.0, 0.0, 0.0, 0.0,
                        stack[-1] if stack else -1, self.run_id, attrs]
                self.spans.append(span)
            stack.append(idx)
            span[CPU0] = time.process_time()
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                span[CPU1] = time.process_time()
                stack.pop()

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(recorder):
    """Wrap every function in LAYERS, at its module and at each lcltflow
    module that holds it under a from-import."""
    for modname, _ in LAYERS.values():
        importlib.import_module(modname)
    mods = [m for n, m in sys.modules.items()
            if n == "lcltflow" or n.startswith("lcltflow.")]
    for layer, (modname, names) in LAYERS.items():
        home = sys.modules[modname]
        for fname in names:
            orig = getattr(home, fname)
            wrapped = recorder.wrap(f"{layer}.{fname}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def load(paths):
    """Spans of several processes; parents are re-indexed per file.  A
    process that died before writing its spans contributes none."""
    out = []
    for p in paths:
        if not os.path.exists(p):
            continue
        with open(p) as fh:
            spans = json.load(fh)
        base = len(out)
        for s in spans:
            s = list(s)
            if s[PARENT] >= 0:
                s[PARENT] += base
            out.append(s)
    return out


def _union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def outermost(spans, names):
    """Spans named in ``names`` with no ancestor also named in ``names``,
    so recursion or one traced function calling another is not counted
    twice."""
    names = set(names)
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def busy(spans, names):
    """Wall seconds spent inside the named functions."""
    return sum(s[END] - s[START] for s in outermost(spans, names))


def cpu(spans, names):
    """Process CPU seconds (all threads) inside the named functions."""
    return sum(s[CPU1] - s[CPU0] for s in outermost(spans, names))


def calls(spans, names):
    names = set(names)
    return sum(1 for s in spans if s[NAME] in names)


def attr_sum(spans, names, key):
    return sum(s[ATTRS].get(key, 0) for s in outermost(spans, names))


def self_time(spans, names):
    """Duration of the named spans minus the part their child spans
    cover."""
    children = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in names:
            total += (s[END] - s[START]) - _union_length(children.get(i, []))
    return total


def layer_names(layer):
    return [f"{layer}.{f}" for f in LAYERS[layer][1]]
