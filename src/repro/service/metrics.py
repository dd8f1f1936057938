"""Serving metrics: counters and log-bucketed latency histograms.

Instruments the stages of one rewrite request -- parse, fingerprint,
match, plan -- plus end-to-end latency for cache hits and misses. All
updates are single GIL-coherent operations (an integer add, a list-slot
increment), so recording on the hot path takes no locks; under heavy
contention a histogram may undercount by a few events, which is the usual
and acceptable metrics trade (the alternative, a lock per observation,
is exactly what the serving layer promises not to take).

Histograms use fixed logarithmic buckets from 1 microsecond to 100
seconds (10 buckets per decade), giving percentile estimates within ~12 %
relative error -- plenty for the "is the cache 5x faster" question the
benchmark asks.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable

from ..obs.sketch import DDSketch

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    """Join parts into a legal Prometheus metric name."""
    return "_".join(_METRIC_NAME_RE.sub("_", part) for part in parts if part)


def _format_value(value: float) -> str:
    """Compact exposition-format float (integers render without a dot)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".9g")

_BUCKETS_PER_DECADE = 10
_MIN_EXPONENT = -6  # 1 microsecond
_MAX_EXPONENT = 2  # 100 seconds
_BUCKET_COUNT = (_MAX_EXPONENT - _MIN_EXPONENT) * _BUCKETS_PER_DECADE + 2

_BOUNDS = tuple(
    10.0 ** (_MIN_EXPONENT + i / _BUCKETS_PER_DECADE)
    for i in range((_MAX_EXPONENT - _MIN_EXPONENT) * _BUCKETS_PER_DECADE + 1)
)


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class LatencyHistogram:
    """Fixed-bucket log-scale histogram of durations in seconds."""

    __slots__ = ("name", "buckets", "count", "total", "minimum", "maximum")

    def __init__(self, name: str):
        self.name = name
        self.buckets = [0] * _BUCKET_COUNT
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def record(self, seconds: float) -> None:
        """Record one observation (negative durations clamp to zero)."""
        seconds = max(seconds, 0.0)
        self.buckets[self._bucket_of(seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    @staticmethod
    def _bucket_of(seconds: float) -> int:
        if seconds < _BOUNDS[0]:
            return 0
        if seconds >= _BOUNDS[-1]:
            return _BUCKET_COUNT - 1
        exponent = math.log10(seconds)
        index = int((exponent - _MIN_EXPONENT) * _BUCKETS_PER_DECADE) + 1
        return min(max(index, 1), _BUCKET_COUNT - 2)

    def percentile(self, fraction: float) -> float:
        """Approximate percentile (0 < fraction <= 1) from bucket bounds.

        Interpolates linearly within the winning bucket by the target's
        rank among that bucket's observations -- returning the bucket's
        lower bound outright would bias every percentile low by up to one
        bucket width (~26 % at 10 buckets/decade). The result is clamped
        to the observed min/max, which keeps single-observation
        histograms exact.
        """
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * fraction))
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= target:
                lower = 0.0 if index == 0 else _BOUNDS[index - 1]
                upper = (
                    self.maximum
                    if index >= _BUCKET_COUNT - 1
                    else _BOUNDS[index]
                )
                # Rank of the target within this bucket, in (0, 1].
                position = (target - (seen - bucket_count)) / bucket_count
                value = lower + position * max(upper - lower, 0.0)
                return min(max(value, self.minimum), self.maximum)
        return self.maximum

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Summary statistics as a plain dict (times in seconds)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": 0.0 if self.count == 0 else self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Named counters, histograms, and sketches for one :class:`ViewServer`.

    Metric *creation* is serialized by a lock (two pool threads racing
    ``counter("requests")`` must converge on one object); *recording*
    stays lock-free as documented in the module docstring.  Reads take
    no lock either -- a scrape concurrent with creation sees either
    the metric or its absence, never a torn dict (GIL-coherent insert).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._sketches: dict[str, DDSketch] = {}
        self._create_lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter with the given name."""
        counter = self._counters.get(name)
        if counter is None:
            with self._create_lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def histogram(self, name: str) -> LatencyHistogram:
        """Get or create the latency histogram with the given name."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._create_lock:
                histogram = self._histograms.setdefault(
                    name, LatencyHistogram(name)
                )
        return histogram

    def sketch(self, name: str) -> DDSketch:
        """Get or create a percentile sketch.

        Sketches complement the fixed-bucket histograms where ~1%
        relative error matters: they hold it at any scale, which the
        10-buckets-per-decade histogram cannot.
        """
        sketch = self._sketches.get(name)
        if sketch is None:
            with self._create_lock:
                sketch = self._sketches.setdefault(name, DDSketch())
        return sketch

    def counters(self) -> dict[str, int]:
        """All counter values, by name."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def histograms(self) -> dict[str, dict]:
        """All histogram snapshots, by name."""
        return {
            name: h.snapshot() for name, h in sorted(self._histograms.items())
        }

    def sketches(self) -> dict[str, dict]:
        """All sketch snapshots, by name."""
        return {
            name: s.snapshot() for name, s in sorted(self._sketches.items())
        }

    def snapshot(self) -> dict:
        """Counters, histogram, and sketch summaries in one dict."""
        snapshot = {"counters": self.counters(), "latency": self.histograms()}
        if self._sketches:
            snapshot["sketches"] = self.sketches()
        return snapshot

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text-exposition rendering of every metric.

        Counters become ``{prefix}_{name}_total``; histograms become
        ``{prefix}_{name}_seconds`` with *properly cumulative* ``le``
        buckets -- every fixed log-bucket bound is emitted, each
        carrying the count of observations at or below it, closed by
        the mandatory ``+Inf`` bucket, ``_sum``, and ``_count``.  The
        earlier compact form (skip buckets whose cumulative count did
        not change) broke the convention scrapers rely on: the bucket
        set must be identical across scrapes or ``rate()`` over
        ``_bucket`` series sees counter resets.  Sketches render as
        summaries with ``quantile`` labels.
        """
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = _metric_name(prefix, name, "total")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, histogram in sorted(self._histograms.items()):
            metric = _metric_name(prefix, name, "seconds")
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index, bound in enumerate(_BOUNDS):
                # Bucket ``index`` holds observations below ``bound``;
                # cumulative over it is exactly "count <= bound" since
                # bucket boundaries are half-open below the bound.
                cumulative += histogram.buckets[index]
                lines.append(
                    f'{metric}_bucket{{le="{format(bound, ".6g")}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{metric}_bucket{{le="+Inf"}} {histogram.count}'
            )
            lines.append(f"{metric}_sum {_format_value(histogram.total)}")
            lines.append(f"{metric}_count {histogram.count}")
        for name, sketch in sorted(self._sketches.items()):
            metric = _metric_name(prefix, name, "seconds")
            lines.append(f"# TYPE {metric} summary")
            for q in (0.5, 0.9, 0.99):
                lines.append(
                    f'{metric}{{quantile="{q}"}} '
                    f"{_format_value(sketch.percentile(q))}"
                )
            lines.append(f"{metric}_sum {_format_value(sketch.total)}")
            lines.append(f"{metric}_count {sketch.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def report(self, histogram_order: Iterable[str] = ()) -> str:
        """A human-readable table of every metric.

        ``histogram_order`` optionally lists histogram names to print
        first (the serving stages in pipeline order); the rest follow
        alphabetically.
        """
        lines = []
        counters = self.counters()
        if counters:
            width = max(len(name) for name in counters)
            for name, value in counters.items():
                lines.append(f"{name:{width}s} {value:10d}")
        ordered = [name for name in histogram_order if name in self._histograms]
        ordered += [
            name for name in sorted(self._histograms) if name not in ordered
        ]
        if ordered:
            stage_width = max(len("stage"), *(len(name) for name in ordered))
            lines.append(
                f"{'stage':{stage_width}s} {'count':>8s} {'mean':>9s} "
                f"{'p50':>9s} {'p90':>9s} {'p99':>9s} {'max':>9s}"
            )
            for name in ordered:
                s = self._histograms[name].snapshot()
                lines.append(
                    f"{name:{stage_width}s} {s['count']:8d} "
                    f"{s['mean'] * 1e3:8.3f}ms {s['p50'] * 1e3:8.3f}ms "
                    f"{s['p90'] * 1e3:8.3f}ms {s['p99'] * 1e3:8.3f}ms "
                    f"{s['max'] * 1e3:8.3f}ms"
                )
        return "\n".join(lines)


__all__ = ["Counter", "DDSketch", "LatencyHistogram", "MetricsRegistry"]
