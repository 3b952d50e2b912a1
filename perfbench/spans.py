"""Spans and work counts at the public boundaries of the iwafit modules.

The library imports functions by name, so each module reads its own
attribute for a function defined elsewhere.  ``Tracer.install`` replaces
the original function on every iwafit module attribute bound to it (for
example ``iwafit.ideals.howell_span_rows`` and ``iwafit.fitting.mul``;
``RingElement.__mul__`` and ``__pow__`` read ``iwafit.groupring.mul``) and
``Tracer.uninstall`` puts the originals back.

A span is (parent id, layer, start, end), kept in memory for the whole run.
A layer's self time is the duration of its spans minus the time covered by
their child spans.  Counts are taken from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _howell_counts(result, p, k, ncols, mat):
    wide = (result[0].dtype if result else np.asarray(mat).dtype) == object
    return {"rows_in": len(mat), "rows_out": len(result), "ncols_max": ncols,
            "wide_calls": int(wide)}


def _fitting_counts(result, m):
    h = m.presentation
    return {"minors_out": len(result.generators), "cells_in": h.nrows * h.ncols}


def _parse_counts(result, src, spec):
    return {"chars_in": len(src)}


def _print_counts(result, x):
    return {"chars_out": len(result)}


# (module, attribute, extra counts from (result, *args)).  Every layer gets
# ``calls`` and ``self_s``; measures ending in ``_max`` keep the maximum.
# The comments name the end-to-end metric each layer should move.
FUNCTIONS = (
    # pass_s and item_s.p90 on euler-grid; on cli-session through wide_calls
    ("linalg", "howell_span_rows", _howell_counts),
    # pass_s and item_s.p90 on shift-ladder; no work on euler-grid
    ("fitting", "fitting_ideal", _fitting_counts),
    ("groupring", "mul", None),
    # item_s.p50 on cli-session, and Howell input size everywhere
    ("groupring", "multiplication_rows", None),
    # item_s.p50 on euler-grid
    ("groupring", "apply_hom", None),
    ("groupring", "twist_hom", None),
    ("groupring", "char_eval", None),
    ("ideals", "nzd_certificate", None),
    ("apps", "euler_factor_closed", None),
    ("apps", "euler_factor_direct", None),
    # item_s.p50 on shift-ladder
    ("complexes", "tensor", None),
    ("complexes", "cyclic_complex", None),
    ("fitting", "lift_presentation", None),
    ("shifts", "shift_trivial", None),
    # pass_s and item_s.p50 on cli-session; no work elsewhere
    ("parser", "parse_element", _parse_counts),
    ("parser", "element_to_text", _print_counts),
    ("cli", "run_command", None),
)
# The Ideal.canonical property, with cache hits: item_s.p50 on cli-session.
CANONICAL = "ideals.canonical"

LAYERS = tuple(f"{m}.{f}" for m, f, _ in FUNCTIONS) + (CANONICAL,)
EXTRA_COUNTS = {
    "linalg.howell_span_rows": ("rows_in", "rows_out", "ncols_max", "wide_calls"),
    "fitting.fitting_ideal": ("minors_out", "cells_in"),
    "parser.parse_element": ("chars_in",),
    "parser.element_to_text": ("chars_out",),
    CANONICAL: ("hits",),
}
# Ratios and the count each is taken over.
RATIOS = {
    "linalg.howell_span_rows.rows_out_per_in":
        ("linalg.howell_span_rows.rows_out", "linalg.howell_span_rows.rows_in"),
    "ideals.canonical.hit_ratio": ("ideals.canonical.hits", "ideals.canonical.calls"),
}
ROOT = "bench.pass"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "iwafit" or name.startswith("iwafit."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([self._stack[-1] if self._stack else -1, name,
                           perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][3] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, extra=None, before=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            pre = before(*args) if before else None
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
                counts[name + ".calls"] += 1
            for key, value in (pre or {}).items():
                counts[f"{name}.{key}"] += value
            if extra:
                for key, value in extra(result, *args, **kwargs).items():
                    full = f"{name}.{key}"
                    if key.endswith("_max"):
                        counts[full] = max(counts[full], value)
                    else:
                        counts[full] += value
            return result

        return wrapper

    def install(self) -> None:
        mods = _modules()
        for mod_name, attr, extra in FUNCTIONS:
            home = importlib.import_module(f"iwafit.{mod_name}")
            original = getattr(home, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, extra)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        ideal_cls = importlib.import_module("iwafit.ideals").Ideal
        prop = ideal_cls.__dict__["canonical"]
        getter = self._wrap(CANONICAL, prop.fget,
                            before=lambda ideal: {"hits": int(ideal._canonical is not None)})
        self._patches.append((ideal_cls, "canonical", prop))
        ideal_cls.canonical = property(getter, doc=prop.__doc__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- one traced pass -------------------------------------------------

    def run_pass(self, fn):
        """Run ``fn`` under a root span; return its value, the pass span's
        duration and the layer totals of this pass."""
        self.counts.clear()
        first = len(self.spans)
        self.enabled = True
        root = self._open(ROOT)
        try:
            value = fn()
        finally:
            self._close(root)
            self.enabled = False
        return value, self.spans[root][3] - self.spans[root][2], self._totals(first)

    def _totals(self, first: int) -> dict:
        child = defaultdict(float)
        for parent, _, t0, t1 in self.spans[first:]:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for sid in range(first, len(self.spans)):
            _, name, t0, t1 = self.spans[sid]
            self_s[name] += (t1 - t0) - child[sid]
        out = {f"{layer}.calls": self.counts[f"{layer}.calls"] for layer in LAYERS}
        for layer, keys in EXTRA_COUNTS.items():
            for key in keys:
                out[f"{layer}.{key}"] = self.counts[f"{layer}.{key}"]
        for name, (num, base) in RATIOS.items():
            out[name] = out[num] / out[base] if out[base] else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["trace.outside_s"] = self_s[ROOT]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for sid, (parent, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def is_count(metric: str) -> bool:
    """Work counts, which must repeat exactly on the same inputs."""
    return not metric.endswith("_s")
