"""SLO objectives and multi-window burn-rate tracking.

The serving tier's ROADMAP item ("SLO-gated serving") needs a way to
say "p99 rewrite latency under 5 ms, error rate under 0.1%" and know
*how fast the error budget is burning* -- a single error-rate gauge
cannot distinguish a slow leak from an outage.  The standard answer
(Google SRE workbook) is multi-window burn rates: the ratio of the
observed bad-event fraction to the budgeted fraction over several
sliding windows (fast windows catch fires, slow windows catch leaks).

``SloTracker`` keeps a ring of fixed-width time buckets (good/bad/
latency-violation counts) and computes, per configured window::

    burn_rate = bad_fraction(window) / budget_fraction

``burn_rate == 1.0`` means the budget is being spent exactly at the
sustainable rate; ``14.4`` with a 0.1% budget means the whole month's
budget disappears in ~2 hours.  A request is *bad* when it errored or
exceeded the latency target -- both count against the same budget, so
the tracker answers the only question the gate asks: "is this tier
serving acceptably right now?"

The clock is injected so tests drive time explicitly; production uses
``time.monotonic``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SloObjectives", "SloTracker"]

# Bucket width for the time ring. All windows are multiples of this.
_BUCKET_SECONDS = 5.0


@dataclass(frozen=True)
class SloObjectives:
    """Service-level objectives for the rewrite-serving tier.

    ``target_p99_seconds``
        A request slower than this counts against the budget even if
        it succeeded.
    ``target_error_budget``
        Budgeted bad-event fraction (0.001 = 99.9% of requests good).
    ``windows_seconds``
        Sliding windows to compute burn rates over, shortest first.
    """

    target_p99_seconds: float = 0.005
    target_error_budget: float = 0.001
    windows_seconds: Tuple[float, ...] = (60.0, 300.0, 3600.0)

    def __post_init__(self) -> None:
        if self.target_p99_seconds <= 0:
            raise ValueError("target_p99_seconds must be positive")
        if not 0.0 < self.target_error_budget < 1.0:
            raise ValueError("target_error_budget must be in (0, 1)")
        if not self.windows_seconds:
            raise ValueError("at least one window is required")


@dataclass
class _Bucket:
    start: float
    good: int = 0
    errors: int = 0
    slow: int = 0

    @property
    def bad(self) -> int:
        return self.errors + self.slow

    @property
    def total(self) -> int:
        return self.good + self.errors + self.slow


class SloTracker:
    """Sliding-window burn-rate computation over a time-bucket ring."""

    def __init__(
        self,
        objectives: SloObjectives,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.objectives = objectives
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: List[_Bucket] = []
        # Ring depth: enough buckets to cover the longest window.
        self._max_buckets = (
            int(max(objectives.windows_seconds) / _BUCKET_SECONDS) + 2
        )
        self._total_good = 0
        self._total_errors = 0
        self._total_slow = 0

    # -- recording ----------------------------------------------------

    def record(self, latency_seconds: float, *, error: bool = False) -> None:
        """Classify one request against the objectives."""

        now = self._clock()
        slow = (not error) and latency_seconds > self.objectives.target_p99_seconds
        with self._lock:
            bucket = self._current_bucket(now)
            if error:
                bucket.errors += 1
                self._total_errors += 1
            elif slow:
                bucket.slow += 1
                self._total_slow += 1
            else:
                bucket.good += 1
                self._total_good += 1

    def _current_bucket(self, now: float) -> _Bucket:
        start = now - (now % _BUCKET_SECONDS)
        if self._buckets and self._buckets[-1].start == start:
            return self._buckets[-1]
        bucket = _Bucket(start=start)
        self._buckets.append(bucket)
        if len(self._buckets) > self._max_buckets:
            del self._buckets[: len(self._buckets) - self._max_buckets]
        return bucket

    # -- queries ------------------------------------------------------

    def _window_counts(self, window: float, now: float) -> Tuple[int, int]:
        cutoff = now - window
        bad = 0
        total = 0
        for bucket in self._buckets:
            if bucket.start + _BUCKET_SECONDS <= cutoff:
                continue
            bad += bucket.bad
            total += bucket.total
        return bad, total

    def burn_rates(self) -> Dict[float, float]:
        """``{window_seconds: burn_rate}`` for every configured
        window.  Windows with no traffic report 0.0."""

        now = self._clock()
        budget = self.objectives.target_error_budget
        with self._lock:
            rates: Dict[float, float] = {}
            for window in self.objectives.windows_seconds:
                bad, total = self._window_counts(window, now)
                if total == 0:
                    rates[window] = 0.0
                else:
                    rates[window] = (bad / total) / budget
            return rates

    def snapshot(self) -> Dict[str, Any]:
        rates = self.burn_rates()
        with self._lock:
            bad = self._total_errors + self._total_slow
            total = self._total_good + bad
            return {
                "objectives": {
                    "target_p99_seconds": self.objectives.target_p99_seconds,
                    "target_error_budget": self.objectives.target_error_budget,
                    "windows_seconds": list(self.objectives.windows_seconds),
                },
                "requests": total,
                "good": self._total_good,
                "errors": self._total_errors,
                "slow": self._total_slow,
                "bad": bad,
                "bad_fraction": bad / total if total else 0.0,
                "burn_rates": {
                    str(int(window)): rate for window, rate in rates.items()
                },
            }
