"""Telemetry plumbing: trace context, the hub and its exposition.

The tracer in :mod:`repro.obs.trace` is contextvar-scoped: spans land on
a ``RewriteTracer`` installed for one request. Work that runs outside a
tracer -- the CDC applier's scans and merges, the matcher's per-
invocation counters -- reports here instead, through two pieces:

``TraceContext``
    A compact, picklable identity for one request: trace id, sampling
    decision, optional deadline.  It rides a contextvar, so a span the
    CDC applier records while a traced request drives it names the same
    trace id as the request's tracer and the two stitch together
    afterwards.

``TelemetryHub``
    The thread-safe registry of counters, sketches and spans.  Sketches
    are :class:`~repro.obs.sketch.DDSketch`, so percentiles stay within
    a fixed relative error at bounded memory.

``render_prometheus`` is the one Prometheus text renderer: a table of
families over a ``ViewServer.stats()`` dict, or any part of one such as
``{"telemetry": hub.snapshot()}``.

A process-global hub (``telemetry_hub()``) is the default sink so
instrumented code stays always-on without plumbing; the ``ViewServer``
installs its own hub instance for isolation, and that hub is its only
metrics registry: the serving counters (``requests``, ``cache_hits``,
...) and stage latencies (sketches named ``{stage}_seconds``) live
beside the matcher's, the pool's and the CDC applier's.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from .sketch import DDSketch

__all__ = [
    "TraceContext",
    "current_trace_context",
    "trace_context",
    "TelemetryHub",
    "render_prometheus",
    "telemetry_hub",
    "set_telemetry_hub",
]

# Default relative accuracy for every latency sketch in the pipeline.
# 1% keeps p99 estimates within a microsecond at millisecond scale
# while a sketch stays under ~2 KB.
DEFAULT_ACCURACY = 0.01

_SPAN_RING_CAPACITY = 512


# ---------------------------------------------------------------------------
# Trace context


@dataclass(frozen=True)
class TraceContext:
    """Identity of one request, carried across threads and forks.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp in the
    *originating* process.  Forked children share the parent's
    monotonic clock on Linux, so the deadline stays meaningful across
    the fork boundary this codebase parallelizes over.
    """

    trace_id: str
    sampled: bool = True
    deadline: Optional[float] = None

    @classmethod
    def new(
        cls, *, sampled: bool = True, deadline: Optional[float] = None
    ) -> "TraceContext":
        # 64 random bits, hex -- the W3C traceparent convention scaled
        # down; uniqueness per process lifetime is all stitching needs.
        trace_id = os.urandom(8).hex()
        return cls(trace_id=trace_id, sampled=sampled, deadline=deadline)

    def remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def to_wire(self) -> Tuple[str, bool, Optional[float]]:
        return (self.trace_id, self.sampled, self.deadline)

    @classmethod
    def from_wire(
        cls, wire: Tuple[str, bool, Optional[float]]
    ) -> "TraceContext":
        trace_id, sampled, deadline = wire
        return cls(trace_id=trace_id, sampled=sampled, deadline=deadline)


_CURRENT_CONTEXT: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_trace_context() -> Optional[TraceContext]:
    """The trace context active on this thread, or ``None``."""

    return _CURRENT_CONTEXT.get()


@contextlib.contextmanager
def trace_context(context: TraceContext) -> Iterator[TraceContext]:
    """Install ``context`` as the current trace context for the block."""

    token = _CURRENT_CONTEXT.set(context)
    try:
        yield context
    finally:
        _CURRENT_CONTEXT.reset(token)


# ---------------------------------------------------------------------------
# The hub


class TelemetryHub:
    """Thread-safe telemetry registry.

    Instrumentation calls :meth:`increment` / :meth:`record` /
    :meth:`record_span`; reads (:meth:`snapshot`) take the same lock as
    writes, so counts are exact under concurrency and a scrape never
    observes a half-updated sketch.
    """

    def __init__(self, *, relative_accuracy: float = DEFAULT_ACCURACY) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._sketches: Dict[str, DDSketch] = {}
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=_SPAN_RING_CAPACITY)
        self._accuracy = relative_accuracy

    def increment(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record(self, name: str, value: float) -> None:
        with self._lock:
            sketch = self._sketches.get(name)
            if sketch is None:
                sketch = DDSketch(self._accuracy)
                self._sketches[name] = sketch
            sketch.record(value)

    def record_span(
        self,
        name: str,
        duration: float,
        *,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> None:
        span: Dict[str, Any] = {"name": name, "duration": duration}
        if trace_id is not None:
            span["trace_id"] = trace_id
        if attributes:
            span["attributes"] = attributes
        with self._lock:
            self._spans.append(span)

    # -- reads --------------------------------------------------------

    def sketch(self, name: str) -> Optional[DDSketch]:
        """A copy of the named sketch (safe to read without racing
        concurrent records), or ``None``."""

        with self._lock:
            sketch = self._sketches.get(name)
            if sketch is None:
                return None
            return DDSketch.from_dict(sketch.to_dict())

    def spans(self) -> Tuple[Dict[str, Any], ...]:
        with self._lock:
            return tuple(self._spans)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "sketches": {
                    name: sketch.snapshot()
                    for name, sketch in self._sketches.items()
                },
                "spans_buffered": len(self._spans),
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._sketches.clear()
            self._spans.clear()


# ---------------------------------------------------------------------------
# Prometheus text exposition of ``ViewServer.stats()``

# Families with one sample at a fixed place in the stats dict: (family,
# path to a section, key). A section the dict lacks -- no cache, no
# pool, no CDC, no SLO -- renders nothing. A family ending in ``_total``
# is a counter, any other a gauge.
_SCALAR_FAMILIES = (
    ("epoch", (), "epoch"),
    ("views_registered", (), "views"),
    # rewrite_cache_*: the hub's cache_hits / cache_misses count requests.
    *(
        (f"rewrite_cache_{key}_total", ("cache",), key)
        for key in (
            "hits", "misses", "evictions", "epoch_invalidations",
            "view_invalidations",
        )
    ),
    *(
        (f"pool_{key}", ("pool",), key)
        for key in (
            "depth", "busy", "workers", "generation", "epoch", "utilization",
        )
    ),
    *(
        (f"pool_{key}_total", ("pool",), key)
        for key in (
            "submitted", "completed", "crashes", "respawns", "swaps",
            "redelivered", "saturated",
        )
    ),
    ("slo_requests_total", ("slo",), "requests"),
    ("slo_bad_total", ("slo",), "bad"),
    ("cdc_head_lsn", ("cdc",), "head_lsn"),
    ("cdc_records_scanned_total", ("cdc", "applier"), "records_scanned"),
    ("cdc_rows_applied_total", ("cdc", "applier"), "base_rows_scanned"),
    ("cdc_apply_rows_per_second", ("cdc", "applier"), "rows_per_second"),
    ("cdc_delta_evaluations_total", ("cdc", "applier"), "delta_evaluations"),
    ("cdc_join_index_builds_total", ("cdc", "applier"), "join_index_builds"),
)

# Families with one labelled sample per entry of a section: (family,
# path, label name, the label value's spelling, key in each entry or
# None when the entry is the value).
_LABELLED_FAMILIES = (
    ("memo_entries", ("memos",), "memo", str, "size"),
    ("memo_evictions_total", ("memos",), "memo", str, "evictions"),
    ("match_rejects_total", ("rejects",), "reason", str.lower, None),
    ("cdc_view_applied_lsn", ("cdc", "views"), "view", str, "applied_lsn"),
    ("cdc_view_lag_records", ("cdc", "views"), "view", str, "lag_records"),
    ("cdc_view_lag_seconds", ("cdc", "views"), "view", str, "lag_seconds"),
    ("slo_burn_rate", ("slo", "burn_rates"), "window_seconds", str, None),
)

# Hub sketches named ``{base}.{value}`` render as one summary family
# labelled with the value: a view name is data, never part of a name.
_LABELLED_SKETCHES = {
    "cdc_view_lag_seconds": ("cdc_view_merge_lag_seconds", "view"),
}

_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def render_prometheus(stats: Dict[str, Any], prefix: str = "repro") -> str:
    """Prometheus text exposition of a ``ViewServer.stats()`` dict.

    Hub counters render as ``_total`` counters and hub sketches as
    summaries with ``quantile`` labels; the tables above name the rest.
    Every family is declared once, whatever order its samples come in.
    """

    families: Dict[str, Tuple[str, List[Tuple[str, tuple, float]]]] = {}

    def add(family, value, labels=(), suffix="", kind=None):
        if kind is None:
            kind = "counter" if family.endswith("_total") else "gauge"
        families.setdefault(family, (kind, []))[1].append(
            (suffix, labels, value)
        )

    telemetry = stats.get("telemetry") or {}
    for name, value in sorted(telemetry.get("counters", {}).items()):
        add(f"{_sanitize(name)}_total", value)
    for name, summary in sorted(telemetry.get("sketches", {}).items()):
        base, _, value = name.partition(".")
        family, labels = _sanitize(name), ()
        if value and base in _LABELLED_SKETCHES:
            family, label = _LABELLED_SKETCHES[base]
            labels = ((label, value),)
        for quantile, key in _QUANTILES:
            quantile_labels = labels + (("quantile", quantile),)
            add(family, summary[key], quantile_labels, kind="summary")
        add(family, summary["sum"], labels, "_sum", "summary")
        add(family, summary["count"], labels, "_count", "summary")
    for family, path, key in _SCALAR_FAMILIES:
        section = _section(stats, path)
        if section is not None and key in section:
            add(family, section[key])
    for family, path, label, spell, key in _LABELLED_FAMILIES:
        for name, entry in (_section(stats, path) or {}).items():
            value = entry if key is None else entry[key]
            add(family, value, ((label, spell(name)),))

    lines: List[str] = []
    for family, (kind, samples) in families.items():
        metric = f"{prefix}_{family}"
        lines.append(f"# TYPE {metric} {kind}")
        for suffix, labels, value in samples:
            if labels:
                text = ",".join(
                    f'{name}="{escape_label_value(label)}"'
                    for name, label in labels
                )
                suffix = f"{suffix}{{{text}}}"
            lines.append(f"{metric}{suffix} {_format(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _section(stats: Dict[str, Any], path: Tuple[str, ...]) -> Any:
    for key in path:
        stats = (stats or {}).get(key)
    return stats


def _sanitize(name: str) -> str:
    return "".join(
        ch if ch.isascii() and (ch.isalnum() or ch == "_") else "_"
        for ch in name
    )


def escape_label_value(value: str) -> str:
    """``value`` as a Prometheus label value: backslash, double quote
    and newline escaped, as the text exposition format requires."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".9g")


# ---------------------------------------------------------------------------
# Process-global default hub

_GLOBAL_HUB = TelemetryHub()
_GLOBAL_LOCK = threading.Lock()


def telemetry_hub() -> TelemetryHub:
    """The process-global hub instrumented code falls back to when no
    explicit sink was injected."""

    return _GLOBAL_HUB


def set_telemetry_hub(hub: TelemetryHub) -> TelemetryHub:
    """Swap the process-global hub; returns the previous one (tests
    use this to isolate)."""

    global _GLOBAL_HUB
    with _GLOBAL_LOCK:
        previous = _GLOBAL_HUB
        _GLOBAL_HUB = hub
    return previous
