"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces every public function of the measured layers,
and `RankAccumulator.add_rows`, by a wrapper that records one span (function,
start, end, parent span) in flat in-memory arrays.  The replacement is made
in every `redsecant` module namespace that holds the function, so calls that
went through `from .x import f` are traced too.  Class constructors and
other methods are not wrapped: their time counts to the caller's layer.
`cli` is an argparse shell and is not measured.

`summary()` turns the spans of one round into the per-layer metrics; a
layer's self time is the time of its spans minus the time of their child
spans.  The wrapper's own bookkeeping for a child call lands in the parent's
self time; the traced run reports the total as trace.overhead_s.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "workbench",
    "predictor",
    "series",
    "combinatorics",
    "oracle.runs",
    "oracle.forms",
    "oracle.monomials",
    "oracle.modmat",
)

ROOT = "round"


def _rows(block) -> int:
    shape = np.shape(block)
    return 1 if len(shape) < 2 else int(shape[0])


def _matmul_note(args, result, pre):
    a, b = args[0], args[1]
    m, k = np.shape(a)
    n = np.shape(b)[1]
    return (m, k, n)


def _add_rows_note(args, result, pre):
    return (_rows(args[1]), args[0].rank - pre)


def _oracle_run_note(args, result, pre):
    return (result.trials,)


def _wlp_note(args, result, pre):
    executed = sum(1 for lv in result.levels if lv.observed is not None)
    trials = sum(lv.trials_used for lv in result.levels)
    return (executed, len(result.levels) - executed, trials)


# function name -> (value taken before the call, record made after it)
NOTES = {
    "oracle.modmat.matmul_mod": (None, _matmul_note),
    "oracle.modmat.RankAccumulator.add_rows": (lambda args: args[0].rank,
                                               _add_rows_note),
    "oracle.runs.oracle_run": (None, _oracle_run_note),
    "oracle.runs.wlp_consequence_check": (None, _wlp_note),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.layer_of: list[int] = [-1]
        self.fid: dict[str, int] = {ROOT: 0}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = [-1]
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.notes: dict[int, tuple] = {}

    # -- recording ---------------------------------------------------

    def clear(self) -> None:
        """Drop the recorded spans; the arrays are emptied in place because
        the wrappers hold references to them."""
        for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.notes.clear()

    def _wrap(self, name: str, layer: int, fn):
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.fid[name] = fid
        pre, note = NOTES.get(name, (None, None))
        fns, parents = self.span_fn, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, notes = self._stack, self.notes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            before = pre(args) if pre else None
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note:
                notes[idx] = note(args, result, before)
            return result

        return traced

    @contextmanager
    def span(self):
        """Record the root span of one round around the block."""
        idx = len(self.span_fn)
        self.span_fn.append(0)
        self.span_parent.append(-1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.span_end[idx] = perf_counter()

    # -- patching ----------------------------------------------------

    def _build(self) -> None:
        """Make one wrapper per traced function, keyed by the original's id."""
        self._wrappers: dict[int, tuple] = {}
        for layer, short in enumerate(LAYERS):
            mod = importlib.import_module(f"redsecant.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", layer, obj))
        acc = importlib.import_module("redsecant.oracle.modmat").RankAccumulator
        self._add_rows = (acc, acc.add_rows,
                          self._wrap("oracle.modmat.RankAccumulator.add_rows",
                                     LAYERS.index("oracle.modmat"), acc.add_rows))

    def install(self) -> None:
        if len(self.names) == 1:
            self._build()
        acc, add_rows, wrapped = self._add_rows
        self._patches.append((acc, "add_rows", add_rows))
        acc.add_rows = wrapped
        for name, mod in list(sys.modules.items()):
            if not (name == "redsecant" or name.startswith("redsecant.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- derived metrics ---------------------------------------------

    def summary(self) -> dict:
        """Per-layer counts and times of the spans recorded since clear()."""
        fn = np.frombuffer(self.span_fn, np.int32).astype(np.int64)
        parent = np.frombuffer(self.span_parent, np.int32).astype(np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=fn.size)
        self_time = dur - child
        layer_of = np.asarray(self.layer_of, np.int64)
        span_layer = layer_of[fn]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -2)
        layer_self = np.bincount(span_layer + 1, weights=self_time,
                                 minlength=len(LAYERS) + 1)[1:]
        calls = np.bincount(fn, minlength=len(self.names))
        inclusive = np.bincount(fn, weights=dur, minlength=len(self.names))
        fn_self = np.bincount(fn, weights=self_time, minlength=len(self.names))

        def fid(name):
            return self.fid[name]

        def notes_of(name):
            want = fid(name)
            return [v for i, v in self.notes.items() if fn[i] == want]

        def layer(name):
            return LAYERS.index(name)

        add_rows = notes_of("oracle.modmat.RankAccumulator.add_rows")
        rows_fed = sum(r for r, _ in add_rows)
        pivots = sum(p for _, p in add_rows)
        mm = notes_of("oracle.modmat.matmul_mod")
        gflop = sum(2 * m * k * n for m, k, n in mm) / 1e9
        mbytes = sum(8 * (m * k + k * n + m * n) for m, k, n in mm) / 1e6
        matmul_s = float(inclusive[fid("oracle.modmat.matmul_mod")])
        wlp = notes_of("oracle.runs.wlp_consequence_check")
        runs = notes_of("oracle.runs.oracle_run")
        entering = (span_layer == layer("predictor")) & (parent_layer != layer("predictor"))
        render = ("workbench.render_csv", "workbench.render_json")
        return {
            "oracle.modmat.add_rows_calls": int(calls[fid("oracle.modmat.RankAccumulator.add_rows")]),
            "oracle.modmat.rows_fed": rows_fed,
            "oracle.modmat.pivots": pivots,
            "oracle.modmat.pivot_yield": pivots / rows_fed if rows_fed else 0.0,
            "oracle.modmat.add_rows_self_s": float(fn_self[fid("oracle.modmat.RankAccumulator.add_rows")]),
            "oracle.modmat.block_rows_max": max((r for r, _ in add_rows), default=0),
            "oracle.modmat.matmul_calls": int(calls[fid("oracle.modmat.matmul_mod")]),
            "oracle.modmat.matmul_s": matmul_s,
            "oracle.modmat.matmul_gflop": gflop,
            "oracle.modmat.matmul_mb": mbytes,
            "oracle.modmat.matmul_gflops": gflop / matmul_s if matmul_s else 0.0,
            "oracle.runs.oracle_run_calls": int(calls[fid("oracle.runs.oracle_run")]),
            "oracle.runs.wlp_calls": int(calls[fid("oracle.runs.wlp_consequence_check")]),
            "oracle.runs.piece_rank_calls": int(calls[fid("oracle.runs.ideal_piece_rank")]),
            "oracle.runs.trials_used": sum(t for (t,) in runs) + sum(t for _, _, t in wlp),
            "oracle.runs.levels_executed": sum(e for e, _, _ in wlp),
            "oracle.runs.levels_skipped": sum(s for _, s, _ in wlp),
            "oracle.runs.self_s": float(layer_self[layer("oracle.runs")]),
            "oracle.forms.generator_calls": int(calls[fid("oracle.forms.tangent_generators")]),
            "oracle.forms.eliminate_s": float(inclusive[fid("oracle.forms.eliminate_linear")]),
            "oracle.forms.self_s": float(layer_self[layer("oracle.forms")]),
            "oracle.monomials.rank_rows_calls": int(calls[fid("oracle.monomials.rank_rows")]),
            "oracle.monomials.self_s": float(layer_self[layer("oracle.monomials")]),
            "series.expand_calls": int(calls[fid("series.expand_rational")]),
            "series.self_s": float(layer_self[layer("series")]),
            "predictor.calls": int(entering.sum()),
            "predictor.self_s": float(layer_self[layer("predictor")]),
            "combinatorics.self_s": float(layer_self[layer("combinatorics")]),
            "workbench.cells": int(calls[fid("workbench.verify_case")]),
            "workbench.render_s": float(sum(inclusive[fid(n)] for n in render)),
            "workbench.self_s": float(layer_self[layer("workbench")]),
            "trace.spans": int(fn.size),
        }

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_fn)):
                fh.write(json.dumps({
                    "span": i,
                    "name": self.names[self.span_fn[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": self.span_parent[i],
                }) + "\n")
