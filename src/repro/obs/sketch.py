"""Mergeable constant-memory percentile sketch (DDSketch-style).

Every latency a ``ViewServer`` reports -- its stage times, the
matcher's per-invocation times, CDC scans and merges -- is a
``DDSketch`` held by its :class:`~repro.obs.telemetry.TelemetryHub`.
A fixed log-spaced bucket table would lose accuracy with the bucket
width and could not merge with a table built elsewhere; the sketch
does neither:

* **Relative-error guarantee.**  Values are mapped to geometric
  buckets ``(gamma**(i-1), gamma**i]`` with
  ``gamma = (1 + alpha) / (1 - alpha)``; reporting the bucket's
  geometric midpoint keeps every quantile estimate within a relative
  error of ``alpha`` of the true sample quantile (Masson, Rim & Lee,
  VLDB 2019).
* **Lossless merge.**  Two sketches with the same ``alpha`` share a
  bucket universe, so merging is bucket-wise count addition -- the
  merged sketch is byte-identical to one built from the concatenated
  samples.  A sketch crosses a process boundary as :meth:`to_dict`
  and comes back with :meth:`from_dict`.
* **Constant memory.**  The bucket map is bounded by ``max_buckets``;
  on overflow the lowest buckets collapse together, trading accuracy
  at the far-left tail (the quantiles nobody alerts on) for a hard
  memory ceiling.

The sketch is deliberately dependency-free and holds plain ints and
floats only, so instances pickle cheaply across the fork boundary and
serialize to JSON for the workload journal.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping

__all__ = ["DDSketch"]

_SERIAL_VERSION = 1

# Values below this are indistinguishable from zero for latency
# purposes (one nanosecond); they land in the dedicated zero bucket
# rather than in a deeply negative log index.
_MIN_TRACKABLE = 1e-9


class DDSketch:
    """Quantile sketch with bounded relative error and lossless merge."""

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_max_buckets",
        "_buckets",
        "_zero_count",
        "count",
        "total",
        "minimum",
        "maximum",
    )

    def __init__(
        self,
        relative_accuracy: float = 0.01,
        *,
        max_buckets: int = 2048,
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError("relative_accuracy must be in (0, 1)")
        if max_buckets < 2:
            raise ValueError("max_buckets must be at least 2")
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._max_buckets = max_buckets
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- recording ----------------------------------------------------

    def record(self, value: float, weight: int = 1) -> None:
        """Fold ``value`` into the sketch.

        Negative values are clamped to zero: the sketch tracks
        durations and sizes, where a negative reading is clock skew,
        not signal.
        """

        if weight <= 0:
            return
        if value < 0.0:
            value = 0.0
        self.count += weight
        self.total += value * weight
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value < _MIN_TRACKABLE:
            self._zero_count += weight
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + weight
        if len(buckets) > self._max_buckets:
            self._collapse_lowest()

    def _collapse_lowest(self) -> None:
        """Fold the smallest bucket into its neighbour above.

        Collapsing only ever the lowest index preserves accuracy at
        the high quantiles (p90/p99), which are the ones SLOs gate on.
        """

        ordered = sorted(self._buckets)
        lowest, second = ordered[0], ordered[1]
        self._buckets[second] += self._buckets.pop(lowest)

    # -- queries ------------------------------------------------------

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q``, a fraction in ``[0, 1]``."""

        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(0, math.ceil(q * self.count) - 1)
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                estimate = (
                    2.0 * self._gamma**index / (self._gamma + 1.0)
                )
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_count(self) -> int:
        return len(self._buckets) + (1 if self._zero_count else 0)

    # -- merge / serialization ---------------------------------------

    def merge(self, other: "DDSketch") -> None:
        """Add ``other``'s counts into this sketch (lossless when the
        accuracies match)."""

        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracy: "
                f"{self.relative_accuracy} vs {other.relative_accuracy}"
            )
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self._zero_count += other._zero_count
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        buckets = self._buckets
        for index, weight in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + weight
        while len(buckets) > self._max_buckets:
            self._collapse_lowest()

    def merged(self, others: Iterable["DDSketch"]) -> "DDSketch":
        for other in others:
            self.merge(other)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """JSON- and pickle-safe wire form (bucket keys are strings so
        the dict round-trips through ``json.dumps``)."""

        return {
            "v": _SERIAL_VERSION,
            "relative_accuracy": self.relative_accuracy,
            "max_buckets": self._max_buckets,
            "zero_count": self._zero_count,
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": {str(index): n for index, n in self._buckets.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DDSketch":
        sketch = cls(
            float(data["relative_accuracy"]),
            max_buckets=int(data.get("max_buckets", 2048)),
        )
        sketch._zero_count = int(data.get("zero_count", 0))
        sketch.count = int(data.get("count", 0))
        sketch.total = float(data.get("sum", 0.0))
        minimum = data.get("min")
        maximum = data.get("max")
        sketch.minimum = math.inf if minimum is None else float(minimum)
        sketch.maximum = -math.inf if maximum is None else float(maximum)
        sketch._buckets = {
            int(index): int(n) for index, n in data.get("buckets", {}).items()
        }
        return sketch

    def snapshot(self) -> Dict[str, float]:
        """Summary as ``count / sum / mean / min / max / p50 / p90 /
        p99`` (the shape of every latency in ``ViewServer.stats()``)."""

        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.5),
            "p90": self.percentile(0.9),
            "p99": self.percentile(0.99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DDSketch(alpha={self.relative_accuracy}, count={self.count}, "
            f"buckets={len(self._buckets)})"
        )
