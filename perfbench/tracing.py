"""In-memory spans around the public entry points of each sketchlsh layer.

The tracer patches class attributes and module globals with timing
wrappers for the duration of a ``with tracer.patched():`` block and puts the
original objects back on exit, exceptions included. Nothing inside the
package is edited; a span sees only what crosses a public boundary.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from sketchlsh import query as query_module
from sketchlsh.cluster import SimulatedTransport
from sketchlsh.core import NULL_ID
from sketchlsh.hashing import HashFamily
from sketchlsh.index import NodeIndex
from sketchlsh.sketch import TopkapiSketch


class Span:
    """One call: name, start and end (perf_counter seconds), the enclosing
    span on the same thread, the thread (a cluster rank or the main thread),
    the batch being run, and an optional count of work done."""

    __slots__ = ("name", "start", "end", "parent", "thread", "batch", "count")

    def __init__(self, name, start=0.0, end=0.0, parent=None, thread="", batch=-1, count=0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.batch = batch
        self.count = count

    @property
    def duration(self) -> float:
        return self.end - self.start


def _items(args, result):
    return int(np.asarray(args[1]).size)


def _occupied_cells(args, result):
    return int(np.count_nonzero(result.ids != np.uint64(NULL_ID)))


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _payload_bytes(args, result):
    return len(result.payload)


# (owner, attribute, span name, count of work read from the call)
TARGETS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (HashFamily, "addresses", "hashing.addresses", None),
    (NodeIndex, "local_candidates", "index.local_candidates", _occupied_cells),
    (NodeIndex, "exact_candidates", "index.exact_candidates", None),
    (NodeIndex, "save", "index.save", _file_bytes),
    (NodeIndex, "load", "index.load", None),
    (TopkapiSketch, "insert_many", "sketch.insert_many", _items),
    (TopkapiSketch, "merge", "sketch.merge", None),
    (TopkapiSketch, "to_bytes", "sketch.to_bytes", None),
    (TopkapiSketch, "from_bytes", "sketch.from_bytes", None),
    (TopkapiSketch, "heavy_hitters", "sketch.heavy_hitters", None),
    (SimulatedTransport, "recv", "cluster.recv", _payload_bytes),
    # names sketchlsh.query imported by value: patch them where they are read
    (query_module, "allgather", "cluster.allgather", None),
    (query_module, "tree_reduce_sketches", "cluster.tree_reduce_sketches", None),
    (query_module, "tree_reduce_counts", "cluster.tree_reduce_counts", None),
    (query_module, "top_k_extract", "query.top_k_extract", None),
)


class Tracer:
    """Collects spans from every thread; ``batch`` tags the spans of the
    query batch the caller is running (-1 outside batches)."""

    def __init__(self):
        self.originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
        self.spans: list[Span] = []
        self.batch = -1
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, count: Callable | None = None, **kwargs):
        """Run ``fn`` inside a span; ``count(args, result)`` gives its work count."""
        stack = self._stack()
        span = Span(
            name,
            parent=stack[-1] if stack else None,
            thread=threading.current_thread().name,
            batch=self.batch,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL
        if count is not None:
            span.count = count(args, result)
        return result

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        return traced

    @contextmanager
    def patched(self):
        """Install a wrapper on every target; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, count))
                else:
                    replacement = self.wrap(name, original, count)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every target holds the object it held at construction."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.originals)

    def to_rows(self) -> list[tuple]:
        """Spans as plain rows; ``parent`` is the parent's row index, -1 for none."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            (s.name, s.start, s.end, index.get(id(s.parent), -1), s.thread, s.batch, s.count)
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
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


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``: its duration minus
    the part of its interval that its direct children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            lo = max(s.start, s.parent.start)
            hi = min(s.end, s.parent.end)
            if hi > lo:
                children.setdefault(id(s.parent), []).append((lo, hi))
    return {id(s): s.duration - _covered(children.get(id(s), [])) for s in spans}
