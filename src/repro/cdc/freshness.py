"""Per-view freshness: applied-LSN watermarks and wall-clock lag.

Every maintained view has a watermark -- the last LSN whose effects are
folded into its stored rows. Freshness is the distance between that
watermark and the log head, reported two ways: ``lag_records`` (how many
log records the view has not absorbed) and ``lag_seconds`` (how long ago
the first unabsorbed record was written -- the standard "replication
lag" estimate, which is what callers bound with ``max_staleness``).

:meth:`FreshnessTracker.bound` freezes the verdicts for one request into
a :class:`StalenessBound`: a plain callable-over-a-dict that the core
matcher invokes per candidate. Freezing at creation keeps the serving
hot path lock-free and makes the policy safe to hand to any thread
(it is pure data).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from .log import ChangeLog


@dataclass(frozen=True)
class ViewFreshness:
    """One view's freshness relative to the change-log head."""

    view: str
    applied_lsn: int
    head_lsn: int
    lag_seconds: float

    @property
    def lag_records(self) -> int:
        """How many log records the view has not yet absorbed."""
        return max(self.head_lsn - self.applied_lsn, 0)

    @property
    def is_fresh(self) -> bool:
        """True when the view has absorbed every logged change."""
        return self.lag_records == 0


class StalenessBound:
    """Frozen staleness verdicts for one request.

    Calling the bound with a view name returns ``None`` when the view is
    usable under the request's ``max_staleness``, or a human-readable
    detail string when it must be skipped (recorded as the ``STALE``
    reject reason in the match funnel). Views the tracker has never heard
    of -- unmanaged views -- are treated as fresh.
    """

    __slots__ = ("max_seconds", "head_lsn", "_stale")

    def __init__(
        self, max_seconds: float, head_lsn: int, stale: dict[str, str]
    ):
        self.max_seconds = max_seconds
        self.head_lsn = head_lsn
        self._stale = stale

    def __call__(self, view_name: str) -> str | None:
        return self._stale.get(view_name)

    @property
    def stale_views(self) -> frozenset[str]:
        """Names of every view this bound excludes."""
        return frozenset(self._stale)

    def __repr__(self) -> str:
        return (
            f"StalenessBound(max_seconds={self.max_seconds!r}, "
            f"head_lsn={self.head_lsn}, stale={sorted(self._stale)})"
        )


class FreshnessTracker:
    """Maps each maintained view to its applied-LSN watermark.

    Watermarks advance under the applier's control; reads take the
    tracker's lock briefly and copy, so freshness snapshots never observe
    a torn update. The tracker is deliberately ignorant of *how* views
    are maintained -- it only records watermarks against the log head.
    """

    def __init__(
        self, log: ChangeLog, clock: Callable[[], float] = time.time
    ):
        self._log = log
        self._clock = clock
        self._lock = threading.Lock()
        self._applied: dict[str, int] = {}

    # -- watermark maintenance ----------------------------------------------

    def track(self, view: str, applied_lsn: int) -> None:
        """Record that ``view`` has absorbed every record up to the LSN."""
        with self._lock:
            self._applied[view] = applied_lsn

    def forget(self, view: str) -> None:
        """Drop a view's watermark (no-op when untracked)."""
        with self._lock:
            self._applied.pop(view, None)

    def applied_lsn(self, view: str) -> int | None:
        """The view's watermark, or ``None`` when untracked."""
        with self._lock:
            return self._applied.get(view)

    def tracked_views(self) -> tuple[str, ...]:
        """Names of every tracked view, sorted."""
        with self._lock:
            return tuple(sorted(self._applied))

    # -- freshness reads -----------------------------------------------------

    def freshness(self, view: str) -> ViewFreshness | None:
        """The view's current freshness, or ``None`` when untracked."""
        with self._lock:
            applied = self._applied.get(view)
        if applied is None:
            return None
        return self._freshness_of(view, applied, self._log.head_lsn)

    def all_freshness(self) -> tuple[ViewFreshness, ...]:
        """Freshness of every tracked view, sorted by name."""
        with self._lock:
            applied = dict(self._applied)
        head = self._log.head_lsn
        return tuple(
            self._freshness_of(view, lsn, head)
            for view, lsn in sorted(applied.items())
        )

    def _freshness_of(
        self, view: str, applied: int, head: int
    ) -> ViewFreshness:
        lag_seconds = 0.0
        if applied < head:
            first = self._log.first_after(applied)
            if first is not None:
                lag_seconds = max(self._clock() - first.timestamp, 0.0)
        return ViewFreshness(
            view=view,
            applied_lsn=applied,
            head_lsn=head,
            lag_seconds=lag_seconds,
        )

    # -- staleness policy ----------------------------------------------------

    def bound(self, max_seconds: float) -> StalenessBound:
        """Freeze the staleness verdicts for one ``max_staleness`` request.

        ``max_seconds=0`` demands perfect freshness: any view whose
        watermark trails the log head is excluded. A positive bound
        excludes a view only when its first unabsorbed record is older
        than the bound -- stale-but-recent views stay eligible, which is
        the whole point of bounded-staleness serving.
        """
        head = self._log.head_lsn
        stale: dict[str, str] = {}
        for freshness in self.all_freshness():
            lag = freshness.lag_records
            if lag == 0:
                continue
            if max_seconds <= 0:
                stale[freshness.view] = (
                    f"applied lsn {freshness.applied_lsn} trails head "
                    f"{head} by {lag} record(s); max_staleness=0 requires "
                    "a fully applied view"
                )
            elif freshness.lag_seconds > max_seconds:
                stale[freshness.view] = (
                    f"lag {freshness.lag_seconds:.3f}s exceeds "
                    f"max_staleness {max_seconds:g}s (applied lsn "
                    f"{freshness.applied_lsn}, head {head})"
                )
        return StalenessBound(max_seconds, head, stale)


__all__ = ["FreshnessTracker", "StalenessBound", "ViewFreshness"]
