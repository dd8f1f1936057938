"""Benchmark-side tracing: timing wrappers around the layers' entry points.

Nothing under ``src/`` knows about this. :func:`instrument` replaces the
public entry points of one server's objects with instance-level wrappers
(``setattr`` on the instance, so the class and every other instance stay
untouched) that record a :class:`Span` per call: name, start, end and the
span that caused it. A span's *self time* is its duration minus the part
its child spans cover, so the self times of all spans sum exactly to the
duration of the root spans -- the per-layer budget adds up to the request.

Spans stay in memory; :meth:`Recorder.summary` folds them into per-name
totals when the run ends. Forked pool workers inherit the wrappers but
their spans die with the child, so on a pool workload only the client
side (``service.server.rewrite``) is span-timed and the worker side is
read from ``OptimizationResult`` fields instead.
"""

from __future__ import annotations

import gc
import threading
import time

# span name -> layer (module) it is charged to
SPAN_LAYER = {
    "sql.bind": "sql",
    "service.server.serve": "service.server",
    "service.server.rewrite": "service.server",
    "service.cache.get": "service.cache",
    "service.snapshot.register_views": "service.snapshot",
    "service.snapshot.unregister_view": "service.snapshot",
    "core.describe": "core.describe",
    "core.matcher.match": "core.matching",
    "core.filtertree.candidates": "core.filtertree",
    "core.preverify.screen": "core.preverify",
    "optimizer.optimize": "optimizer",
    "cdc.insert": "cdc",
    "cdc.drain": "cdc",
    "cdc.register_view": "engine",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "covered")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.covered = 0.0  # seconds of this span spent inside child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class Recorder:
    """Collects spans while ``enabled``; one current-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()

    def wrap(self, target, attribute: str, name: str) -> None:
        """Time ``target.attribute`` under ``name`` (idempotent)."""
        original = getattr(target, attribute)
        if getattr(original, "_e2e_traced", False):
            return
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            parent = getattr(local, "current", None)
            span = Span(name, parent)
            local.current = span
            span.start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = clock()
                local.current = parent
                if parent is not None:
                    parent.covered += span.end - span.start
                spans.append(span)

        traced._e2e_traced = True
        setattr(target, attribute, traced)

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, calls by parent."""
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name,
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": {}},
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += span.self_time
            parent = span.parent.name if span.parent is not None else "<root>"
            row["parents"][parent] = row["parents"].get(parent, 0) + 1
        return table

    def root_seconds(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)


class GcWatch:
    """Counts and times the interpreter's cyclic collections while active.

    A full (generation 2) collection walks every container object the
    process holds; with 10k views registered one takes about a second,
    and it lands inside whichever span happened to allocate.
    """

    def __init__(self) -> None:
        self.full_collections = 0
        self.pause_seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_seconds += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.full_collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


def layer_self_seconds(summary: dict) -> dict[str, float]:
    """Self time per layer, from a :meth:`Recorder.summary` table."""
    layers: dict[str, float] = {}
    for name, row in summary.items():
        layer = SPAN_LAYER[name]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    return layers


def instrument(recorder: Recorder, server, pipeline=None) -> None:
    """Install the wrappers on one server (and its CDC pipeline).

    Each epoch builds a fresh matcher / optimizer / filter tree, so the
    per-snapshot wrappers are re-installed from a snapshot listener.
    """
    recorder.wrap(server.catalog, "bind_sql", "sql.bind")
    recorder.wrap(server, "serve", "service.server.serve")
    recorder.wrap(server, "rewrite", "service.server.rewrite")
    recorder.wrap(server, "register_views", "service.snapshot.register_views")
    recorder.wrap(server, "unregister_view", "service.snapshot.unregister_view")
    if server.cache is not None:
        recorder.wrap(server.cache, "get", "service.cache.get")

    def on_snapshot(snapshot) -> None:
        matcher = snapshot.matcher
        recorder.wrap(matcher, "describe_query", "core.describe")
        recorder.wrap(matcher, "match", "core.matcher.match")
        recorder.wrap(matcher, "candidates", "core.filtertree.candidates")
        tree = matcher.filter_tree
        if hasattr(tree, "preverify_screen"):
            recorder.wrap(tree, "preverify_screen", "core.preverify.screen")
        recorder.wrap(snapshot.optimizer, "optimize", "optimizer.optimize")

    on_snapshot(server.snapshots.current)
    server.snapshots.add_listener(on_snapshot)
    if pipeline is not None:
        recorder.wrap(pipeline, "insert", "cdc.insert")
        recorder.wrap(pipeline, "drain", "cdc.drain")
        recorder.wrap(pipeline, "register_view", "cdc.register_view")
