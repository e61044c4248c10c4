"""In-memory span tracing of perco's layers, installed from the benchmark.

Nothing under ``src/`` is changed: ``install`` replaces each traced function
with a timing wrapper at every place a ``perco`` module refers to it (its
defining module and every ``from .x import f`` site), and the returned undo
list puts the originals back.  Spans are appended to flat typed arrays and
only turned into per-layer numbers, or written out, when the run ends.

A span records its name, start, end, parent span and the top-level call
(root span) it belongs to, plus one work count taken from the call's result
(points sampled, pairs screened, edges kept, event hits, ...).
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    """Span store for one single-threaded run; ``clock`` gives the span times."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.root = array("q")
        self.work = array("q")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span named ``name``; ``count(result)`` sets the work count."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, self.clock
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, roots, works = self.parent, self.root, self.work

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            name_ids.append(nid)
            parents.append(parent)
            roots.append(roots[parent] if parent >= 0 else idx)
            ends.append(0.0)
            works.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                works[idx] = int(count(result))
            return result

        return functools.update_wrapper(traced, fn)

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "root": np.frombuffer(self.root, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span once, as arrays plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install(tracer: Tracer, targets) -> list:
    """Wrap each (span name, owner, attribute, count) target; return the undo list.

    A module-level function is replaced in every loaded ``perco`` module that
    holds it, so calls through ``from .graph import build_graph`` are traced
    as well.  A class owner (a method) is patched on the class itself.
    """
    modules = [m for key, m in sys.modules.items() if key == "perco" or key.startswith("perco.")]
    undo = []
    for name, owner, attr, count in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        holders = [owner] if isinstance(owner, type) else modules
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo: list) -> None:
    for holder, key, original in reversed(undo):
        setattr(holder, key, original)


class SpanTable:
    """Per-name aggregates over a tracer's spans: calls, self time, total time, work."""

    def __init__(self, tracer: Tracer):
        spans = tracer.arrays()
        self.names = tracer.names
        self.name_id = spans["name_id"]
        self.parent = spans["parent"]
        self.work = spans["work"]
        self.duration = spans["end"] - spans["start"]
        nested = self.parent >= 0
        child_time = np.zeros_like(self.duration)
        np.add.at(child_time, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child_time
        self.top_level_time = float(self.duration[~nested].sum())

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def total_s(self, name: str) -> float:
        return float(self.duration[self._mask(name)].sum())

    def work_sum(self, name: str, parent: str | None = None) -> int:
        """Summed work counts; with ``parent``, only spans called directly from that span."""
        mask = self._mask(name)
        if parent is not None:
            direct = self.parent >= 0
            parent_mask = self._mask(parent)
            mask &= direct & parent_mask[np.where(direct, self.parent, 0)]
        return int(self.work[mask].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.duration[self._mask(name)]

    def calls_within(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` that have a span named ``ancestor`` above them."""
        if ancestor not in self.names or name not in self.names:
            return 0
        ancestor_id = self.names.index(ancestor)
        name_ids = self.name_id.tolist()
        inside = [False] * len(name_ids)
        # parents precede their children, so one forward sweep settles every span
        for idx, parent in enumerate(self.parent.tolist()):
            if parent >= 0:
                inside[idx] = inside[parent] or name_ids[parent] == ancestor_id
        return int((np.array(inside, dtype=bool) & self._mask(name)).sum())

    def top_level_totals(self) -> dict:
        """Time per top-level call name (spans no other span encloses), largest first."""
        roots = self.parent < 0
        totals = {self.names[i]: float(self.duration[roots & (self.name_id == i)].sum()) for i in range(len(self.names))}
        return dict(sorted(((n, t) for n, t in totals.items() if t > 0), key=lambda item: -item[1]))

    def layer_self_s(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name_id, ids)].sum())
