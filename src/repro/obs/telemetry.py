"""Telemetry plumbing: trace context and the hub.

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
    a fixed relative error at bounded memory.  The hub renders to the
    Prometheus text format (counters as ``_total``, sketches as
    summaries with quantile labels) and feeds the ``repro-top``
    dashboard.

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
    :meth:`record_span`; reads (:meth:`snapshot`, :meth:`to_prometheus`)
    take the same lock as writes, so counts are exact under concurrency
    and a scrape never observes a half-updated sketch.
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

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def sketch_snapshots(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                name: sketch.snapshot()
                for name, sketch in self._sketches.items()
            }

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

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition: counters as ``_total``,
        sketches as summaries with ``quantile`` labels."""

        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                metric = f"{prefix}_{_sanitize(name)}_total"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {self._counters[name]}")
            for name in sorted(self._sketches):
                sketch = self._sketches[name]
                metric = f"{prefix}_{_sanitize(name)}"
                lines.append(f"# TYPE {metric} summary")
                for q in (0.5, 0.9, 0.99):
                    value = sketch.percentile(q)
                    lines.append(
                        f'{metric}{{quantile="{q}"}} {_format(value)}'
                    )
                lines.append(f"{metric}_sum {_format(sketch.total)}")
                lines.append(f"{metric}_count {sketch.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._sketches.clear()
            self._spans.clear()


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    return "".join(out)


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
