"""Per-layer tracing from outside the program.

The tracer replaces module-level functions (and a few methods) of ``hkfun``
with wrappers that record a span per call: its layer, its duration and the
time its traced children took.  Every module that imported the same
function object by name gets the wrapper too, so calls between modules are
seen.  Spans are kept in memory; ``snapshot`` sums them per layer and
resets.  The wrappers record only while ``active`` is set, which the runner
sets around timed jobs alone.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

from hkfun import bundle, density, oracle, piecewise, trinomial, volume
import hkfun.cli as cli

# (owner, attribute, layer): the functions each layer is made of
LAYERS = [
    (cli, "main", "cli"),
    (oracle, "top_nonzero_degree", "oracle.entry"),
    (oracle, "colength_profile", "oracle.entry"),
    (oracle, "graded_piece_length_raw", "oracle.length"),
    (oracle, "normalize_poly", "oracle.prep"),
    (oracle, "frobenius_power", "oracle.prep"),
    (oracle, "dense_rank_modp", "oracle.rank"),
    (trinomial, "classify", "trinomial.classify"),
    (trinomial, "taxicab_search", "trinomial.taxicab"),
    (trinomial, "residue_table", "trinomial.table"),
    (piecewise, "count_roots_open", "piecewise.sturm"),
    (piecewise, "is_positive_on_open", "piecewise.sturm"),
    (piecewise, "is_nonneg_on_closed", "piecewise.sturm"),
    (piecewise.PiecewisePolynomial, "__add__", "piecewise.algebra"),
    (piecewise.PiecewisePolynomial, "__sub__", "piecewise.algebra"),
    (piecewise.PiecewisePolynomial, "__mul__", "piecewise.algebra"),
    (piecewise.PiecewisePolynomial, "integrate", "piecewise.algebra"),
    (piecewise.PiecewisePolynomial, "compose_affine", "piecewise.algebra"),
    (bundle, "syzygy_pair_density", "bundle.syzygy"),
    (density, "symmetry_class", "density.symmetry"),
    (density, "segre", "density.segre"),
    (volume, "slice_volume", "volume.slice"),
]

# per-layer metrics: (name, layer, kind); "self" is time in the layer minus
# time in traced layers it called, "incl" includes them
METRICS = [
    ("oracle.length.calls", "oracle.length", "calls"),
    ("oracle.length.s", "oracle.length", "incl"),
    ("oracle.walk.s", "oracle.length", "self"),
    ("oracle.prep.calls", "oracle.prep", "calls"),
    ("oracle.prep.s", "oracle.prep", "incl"),
    ("oracle.rank.calls", "oracle.rank", "calls"),
    ("oracle.rank.s", "oracle.rank", "incl"),
    ("oracle.rank.cells", "oracle.rank", "cells"),
    ("oracle.entry.s", "oracle.entry", "self"),
    ("cli.s", "cli", "self"),
    ("trinomial.classify.calls", "trinomial.classify", "calls"),
    ("trinomial.taxicab.calls", "trinomial.taxicab", "calls"),
    ("trinomial.taxicab.s", "trinomial.taxicab", "incl"),
    ("trinomial.table.s", "trinomial.table", "self"),
    ("piecewise.sturm.calls", "piecewise.sturm", "calls"),
    ("piecewise.sturm.s", "piecewise.sturm", "incl"),
    ("piecewise.algebra.s", "piecewise.algebra", "self"),
    ("bundle.syzygy.s", "bundle.syzygy", "self"),
    ("density.symmetry.s", "density.symmetry", "self"),
    ("density.segre.s", "density.segre", "self"),
    ("volume.slice.s", "volume.slice", "self"),
]


class Tracer:
    def __init__(self):
        self.active = False
        self._stack: list[list] = []  # [layer, child seconds] per open span
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.calls = defaultdict(int)
        self.cells = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)

    def _wrap(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outermost = all(span[0] != layer for span in tracer._stack)
            tracer._stack.append([layer, 0.0])
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                _, children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
                tracer.calls[layer] += 1
                tracer.self_s[layer] += elapsed - children
                if outermost:
                    tracer.incl_s[layer] += elapsed
                if layer == "oracle.rank":
                    rows, cols = args[0].shape
                    tracer.cells[layer] += rows * cols

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "hkfun" or name.startswith("hkfun.")]
        for owner, attr, layer in LAYERS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer)
            targets = [owner] if isinstance(owner, type) else \
                [m for m in modules if getattr(m, attr, None) is original]
            for target in targets:
                self._saved.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        """Per-layer metric values since the last snapshot; then reset."""
        source = {"calls": self.calls, "cells": self.cells,
                  "self": self.self_s, "incl": self.incl_s}
        out = {name: source[kind][layer] for name, layer, kind in METRICS}
        self._reset()
        return out


def layer_metrics(snapshots: list[dict]) -> dict:
    """Median over traced rounds of each per-layer value."""
    out = {}
    for name, _, kind in METRICS:
        values = [s[name] for s in snapshots]
        if kind in ("self", "incl"):
            out[name] = {"value": statistics.median(values), "unit": "s"}
        else:
            out[name] = {"value": statistics.median_low(values), "unit": "count"}
    return out
