"""Span recorder for the traced benchmark run.

Every public function of the qplanar layer modules is wrapped at every
module attribute that binds it: callers look these names up in their own
module globals at call time, so one ``setattr`` per binding routes every
call through the wrapper.  A span is (name, start, end, parent), kept in
flat in-memory arrays while the workload runs and written out at the end.
Layer self time and the per-layer counts are derived from those spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "stack", "modes", "scatter", "iorel", "commutators", "thermal",
          "greens", "sampler", "rhokernels")

# Spans of these functions also keep a note on one argument: (position, keyword).
_NOTED_ARGS = {"modes.make_context": (2, "k")}


def _k_note(k) -> tuple[int, float]:
    """(number of k values, first k) of a scalar or array-valued k."""
    ks = np.ravel(np.asarray(k, dtype=float))
    return ks.size, (float(ks[0]) if ks.size else float("nan"))


class SpanRecorder:
    """Wraps the qplanar layer functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []          # span-name table
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")             # perf_counter_ns
        self.end = array("q")
        self.notes: dict[int, tuple[int, float]] = {}   # span index -> (number of k, first k)
        self._open = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qplanar" or name.startswith("qplanar."))]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("qplanar.") or layer not in LAYERS:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, f"{layer}.{fn.__name__}")
                self._bindings.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, notes, clock = self._open, self.notes, time.perf_counter_ns
        noted = _NOTED_ARGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            # The note is made before any span array grows, so they stay in step.
            if noted is not None:
                pos, key = noted
                notes[i] = _k_note(args[pos] if len(args) > pos else kwargs.get(key))
            name_id.append(nid)
            parent.append(open_spans[-1])
            end.append(0)
            open_spans.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_spans.pop()

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """Save the spans as arrays: names table, name id, parent, start and end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
                 parent=np.frombuffer(self.parent, np.int32),
                 start_ns=np.frombuffer(self.start, np.int64),
                 end_ns=np.frombuffer(self.end, np.int64))


_OVERHEAD_CALLS = 20_000
_OVERHEAD_REPEATS = 3


def overhead_per_span() -> float:
    """Seconds the wrapper adds to the caller's time per recorded call (best of a few loops)."""
    def noop():
        return None

    clock = time.perf_counter
    best = float("inf")
    for _ in range(_OVERHEAD_REPEATS):
        traced = SpanRecorder()._wrap(noop, "cli.noop")
        t = clock()
        for _ in range(_OVERHEAD_CALLS):
            noop()
        plain = clock() - t
        t = clock()
        for _ in range(_OVERHEAD_CALLS):
            traced()
        best = min(best, (clock() - t - plain) / _OVERHEAD_CALLS)
    return max(best, 0.0)


class SpanTable:
    """Array view of recorded spans with the derived durations and self times.

    Durations have the recorder's own cost taken out, `overhead` seconds per
    descendant span, and so do the self times derived from them.  Spans are
    stored in call order, so the descendants of span i are the spans i+1 ..
    that start before span i ends.
    """

    def __init__(self, rec: SpanRecorder, overhead: float = 0.0):
        self.names = list(rec.names)
        self.name_id = np.frombuffer(rec.name_id, np.int32).copy()
        self.parent = np.frombuffer(rec.parent, np.int32).copy()
        start = np.frombuffer(rec.start, np.int64)
        end = np.frombuffer(rec.end, np.int64)
        descendants = np.searchsorted(start, end, side="left") - np.arange(start.size) - 1
        self.dur_s = (end - start) * 1e-9 - overhead * descendants
        self.notes = dict(rec.notes)
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        name_layer = np.array([self.layer_ids[n.partition(".")[0]] for n in self.names], np.int32)
        self.layer = name_layer[self.name_id]
        has_parent = self.parent >= 0
        child_s = np.zeros(self.dur_s.size)
        np.add.at(child_s, self.parent[has_parent], self.dur_s[has_parent])
        self.self_s = self.dur_s - child_s
        parent_layer = np.full(self.layer.size, -1, dtype=np.int32)
        parent_layer[has_parent] = self.layer[self.parent[has_parent]]
        self.parent_layer = parent_layer

    def of(self, name: str) -> np.ndarray:
        """Boolean mask of the spans of one function, e.g. 'scatter.scatter_set'."""
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def self_time(self, layer: str) -> float:
        return float(self.self_s[self.layer == self.layer_ids[layer]].sum())

    def entries(self, layer: str) -> int:
        """Calls into the layer from another layer or from the benchmark itself."""
        lid = self.layer_ids[layer]
        return int(np.count_nonzero((self.layer == lid) & (self.parent_layer != lid)))
