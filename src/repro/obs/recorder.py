"""Workload recorder: sampled, schema-versioned JSONL request journal.

The ROADMAP's closed-loop advisor wants a *recorded workload* as
input -- which query shapes arrive, how often, which reject reasons
kept them from rewriting (Mistry et al. assume exactly this).  The
recorder makes that signal durable: the serving layer hands it each
:class:`~repro.service.server.ServedResult` and it appends one JSON
line per sampled request to a size-bounded rotating journal.

Event schema (version 1)::

    {"v": 1, "kind": "rewrite", "ts": <unix seconds>,
     "fingerprint": str | null, "sql": str (truncated),
     "cache_hit": bool, "uses_view": bool, "views": [str, ...],
     "latency_seconds": float, "error": str | null,
     "timed_out": bool, "rejected": bool,
     "max_staleness": float | null,
     "reject_tallies": {reason: count, ...},
     "candidates_skipped": int, "preaggregations_dropped": int}

The last two fields (candidates never verified because the cost bound
closed the search, and pre-aggregation alternatives dropped before
their matcher invocation because no inner plan could fit their budget)
are additive within version 1: readers fold them with
``.get(..., 0)``, so journals written before them keep aggregating.
Journals written while the columnar pre-verifier existed also carry a
``preverified_rejects`` count; readers ignore it.

Unknown versions are skipped on read, so a newer writer never breaks
an older ``workload-report``.  Rotation is copy-free rename chaining
(``journal -> journal.1 -> journal.2 ...``), bounded by ``max_files``.

:func:`aggregate_events` folds a journal into a
:class:`WorkloadAggregate`: per-fingerprint frequencies with sample
SQL, the ranked reject-reason funnel, cache hit rate, and a latency
:class:`~repro.obs.sketch.DDSketch` -- the advisor-consumable shape
(:meth:`WorkloadAggregate.to_advisor_input`) and what ``repro-top``
renders in journal mode.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from .sketch import DDSketch

__all__ = [
    "EVENT_VERSION",
    "WorkloadRecorder",
    "WorkloadAggregate",
    "iter_events",
    "aggregate_events",
    "load_journal",
]

EVENT_VERSION = 1

_SQL_SAMPLE_LIMIT = 500

# Journal writes are flushed every this-many events (and on rotation and
# close). Per-event flushing costs a syscall per request on the serving
# hot path -- measurably outside the telemetry overhead budget -- while
# the reader side already tolerates a torn tail line, so batched
# flushing only risks losing the final few events of a crashed process.
_FLUSH_EVERY = 32


class WorkloadRecorder:
    """Thread-safe rotating JSONL journal of served requests.

    ``sample_every=N`` keeps every Nth event (deterministic, counted
    across threads) so a high-QPS tier can journal at a fixed fraction
    of its traffic; 1 records everything.  ``max_bytes`` bounds the
    active file; on overflow it rotates into numbered suffixes and at
    most ``max_files`` files (active + rotated) ever exist.
    """

    def __init__(
        self,
        path: str,
        *,
        max_bytes: int = 4 * 1024 * 1024,
        max_files: int = 4,
        sample_every: int = 1,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_bytes < 1024:
            raise ValueError("max_bytes must be at least 1024")
        if max_files < 1:
            raise ValueError("max_files must be at least 1")
        if sample_every < 1:
            raise ValueError("sample_every must be at least 1")
        self.path = path
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.sample_every = sample_every
        self._clock = clock
        self._lock = threading.Lock()
        self._seen = 0
        self._written = 0
        self._rotations = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")
        # Rotation bookkeeping counts bytes as they are written: text-mode
        # ``tell()`` recomputes an opaque cookie per call, which is far
        # too slow for once-per-request use.
        self._bytes = os.path.getsize(path) if os.path.exists(path) else 0

    # -- recording ----------------------------------------------------

    def record_event(self, event: Dict[str, Any]) -> bool:
        """Append one event (stamped with ``v`` and ``ts``); returns
        whether it survived sampling."""

        with self._lock:
            self._seen += 1
            if (self._seen - 1) % self.sample_every != 0:
                return False
            payload = {"v": EVENT_VERSION, "ts": self._clock()}
            payload.update(event)
            line = json.dumps(payload, separators=(",", ":")) + "\n"
            self._handle.write(line)
            self._written += 1
            self._bytes += len(line.encode("utf-8"))
            if self._written % _FLUSH_EVERY == 0:
                self._handle.flush()
            if self._bytes >= self.max_bytes:
                self._rotate()
            return True

    def record_result(self, result: Any) -> bool:
        """Journal one served request.

        Duck-typed over :class:`~repro.service.server.ServedResult` so
        ``repro.obs`` keeps no import edge back into ``repro.service``.
        """

        tallies: Dict[str, int] = {}
        skipped = 0
        dropped = 0
        inner = getattr(result, "result", None)
        if inner is not None:
            tallies = dict(getattr(inner, "reject_tallies", ()) or ())
            skipped = int(getattr(inner, "candidates_skipped", 0) or 0)
            dropped = int(getattr(inner, "preaggregations_dropped", 0) or 0)
        sql = result.sql or ""
        return self.record_event(
            {
                "kind": "rewrite",
                "fingerprint": result.fingerprint,
                "sql": sql[:_SQL_SAMPLE_LIMIT],
                "cache_hit": bool(result.cache_hit),
                "uses_view": bool(result.uses_view),
                "views": list(result.view_names),
                "latency_seconds": float(result.latency_seconds),
                "error": result.error,
                "timed_out": bool(result.timed_out),
                "rejected": bool(result.rejected),
                "max_staleness": result.max_staleness,
                "reject_tallies": tallies,
                "candidates_skipped": skipped,
                "preaggregations_dropped": dropped,
            }
        )

    def _rotate(self) -> None:
        self._handle.close()
        # Shift journal.N -> journal.N+1 from the oldest down, dropping
        # the one past max_files.
        oldest = self.max_files - 1
        overflow = f"{self.path}.{oldest + 1}"
        if os.path.exists(overflow):  # from an earlier, larger max_files
            os.remove(overflow)
        for index in range(oldest, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                target = f"{self.path}.{index + 1}"
                if index + 1 > oldest:
                    os.remove(source)
                else:
                    os.replace(source, target)
        if oldest >= 1:
            os.replace(self.path, f"{self.path}.1")
        else:
            os.remove(self.path)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = 0
        self._rotations += 1

    # -- introspection / lifecycle ------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "seen": self._seen,
                "written": self._written,
                "rotations": self._rotations,
                "sample_every": self.sample_every,
            }

    def flush(self) -> None:
        """Push buffered events to disk (readers see them immediately)."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "WorkloadRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Reading and aggregation


def iter_events(path: str) -> Iterator[Dict[str, Any]]:
    """Yield journal events oldest-first across rotated files.

    Rotated files carry higher suffixes the older they are, so the
    scan order is ``journal.N .. journal.1, journal``.  Lines that are
    not valid JSON objects and events with an unknown ``v`` are
    skipped -- a torn final line from a crashed writer or a newer
    schema must not kill aggregation.
    """

    candidates: List[str] = []
    suffix = 1
    while os.path.exists(f"{path}.{suffix}"):
        candidates.append(f"{path}.{suffix}")
        suffix += 1
    candidates.reverse()
    if os.path.exists(path):
        candidates.append(path)
    for filename in candidates:
        with open(filename, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(event, dict):
                    continue
                if event.get("v") != EVENT_VERSION:
                    continue
                yield event


class WorkloadAggregate:
    """A journal folded into advisor- and dashboard-consumable form."""

    def __init__(self) -> None:
        self.events = 0
        self.errors = 0
        self.timed_out = 0
        self.rejected = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.uses_view = 0
        self.bounded = 0
        self.stale_rejects = 0
        self.candidates_skipped = 0
        self.preaggregations_dropped = 0
        self.reject_funnel: Dict[str, int] = {}
        self.fingerprints: Dict[str, Dict[str, Any]] = {}
        self.latency = DDSketch()
        self.first_ts: Optional[float] = None
        self.last_ts: Optional[float] = None

    # -- folding ------------------------------------------------------

    def add(self, event: Dict[str, Any]) -> None:
        self.events += 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if self.first_ts is None or ts < self.first_ts:
                self.first_ts = ts
            if self.last_ts is None or ts > self.last_ts:
                self.last_ts = ts
        if event.get("error"):
            self.errors += 1
        if event.get("timed_out"):
            self.timed_out += 1
        if event.get("rejected"):
            self.rejected += 1
        if event.get("max_staleness") is not None:
            self.bounded += 1
        skipped = event.get("candidates_skipped")
        if isinstance(skipped, int):
            self.candidates_skipped += skipped
        dropped = event.get("preaggregations_dropped")
        if isinstance(dropped, int):
            self.preaggregations_dropped += dropped
        latency = event.get("latency_seconds")
        if isinstance(latency, (int, float)) and latency > 0:
            self.latency.record(float(latency))
        fingerprint = event.get("fingerprint")
        if fingerprint is None:
            return
        hit = bool(event.get("cache_hit"))
        if hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if event.get("uses_view"):
            self.uses_view += 1
        tallies = event.get("reject_tallies") or {}
        if isinstance(tallies, dict):
            funnel = self.reject_funnel
            for reason, count in tallies.items():
                if isinstance(count, int):
                    funnel[reason] = funnel.get(reason, 0) + count
                    if reason == "STALE":
                        self.stale_rejects += count
        entry = self.fingerprints.get(fingerprint)
        if entry is None:
            entry = {
                "count": 0,
                "sample_sql": event.get("sql", ""),
                "cache_hits": 0,
                "uses_view": 0,
                "views": {},
            }
            self.fingerprints[fingerprint] = entry
        entry["count"] += 1
        if hit:
            entry["cache_hits"] += 1
        if event.get("uses_view"):
            entry["uses_view"] += 1
        for view in event.get("views") or ():
            entry["views"][view] = entry["views"].get(view, 0) + 1

    # -- queries ------------------------------------------------------

    def ranked_rejects(self) -> List[tuple]:
        """Reject reasons, most frequent first (ties break on name so
        the ranking is deterministic)."""

        return sorted(
            self.reject_funnel.items(), key=lambda item: (-item[1], item[0])
        )

    @property
    def hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0

    def top_fingerprints(self, limit: int = 20) -> List[tuple]:
        return sorted(
            self.fingerprints.items(),
            key=lambda item: (-item[1]["count"], item[0]),
        )[:limit]

    def to_advisor_input(self, *, top: int = 100) -> Dict[str, Any]:
        """The aggregate as a view advisor's input (``workload-report
        --json``): one entry per distinct query shape with frequency and
        sample SQL, plus the funnel explaining what blocked rewrites."""

        return {
            "schema_version": EVENT_VERSION,
            "source_events": self.events,
            "window_seconds": (
                (self.last_ts - self.first_ts)
                if self.first_ts is not None and self.last_ts is not None
                else 0.0
            ),
            "queries": [
                {
                    "fingerprint": fingerprint,
                    "count": entry["count"],
                    "sample_sql": entry["sample_sql"],
                    "cache_hits": entry["cache_hits"],
                    "uses_view": entry["uses_view"],
                }
                for fingerprint, entry in self.top_fingerprints(top)
            ],
            "reject_funnel": dict(self.ranked_rejects()),
            "candidates_skipped": self.candidates_skipped,
            "preaggregations_dropped": self.preaggregations_dropped,
            "latency": self.latency.snapshot(),
            "cache_hit_rate": self.hit_rate,
        }

    def render(self, *, top: int = 10) -> str:
        """Human-readable workload report."""

        lines = [
            f"{self.events} events "
            f"({self.errors} errors, {self.timed_out} timed out, "
            f"{self.rejected} rejected, {self.bounded} bounded)",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"(hit rate {self.hit_rate:.1%}); "
            f"{self.uses_view} served from views",
        ]
        latency = self.latency.snapshot()
        if latency["count"]:
            lines.append(
                "latency: "
                f"p50 {latency['p50'] * 1e3:.3f} ms, "
                f"p90 {latency['p90'] * 1e3:.3f} ms, "
                f"p99 {latency['p99'] * 1e3:.3f} ms "
                f"over {latency['count']} samples"
            )
        ranked = self.ranked_rejects()
        if ranked:
            total = sum(count for _, count in ranked)
            lines.append(f"reject funnel ({total} rejects):")
            for reason, count in ranked:
                lines.append(f"  {reason:<18} {count:>8}  {count / total:6.1%}")
        if self.candidates_skipped or self.preaggregations_dropped:
            lines.append(
                f"verification: {self.candidates_skipped} cost-bound skips, "
                f"{self.preaggregations_dropped} pre-aggregation "
                "alternatives dropped over budget"
            )
        tops = self.top_fingerprints(top)
        if tops:
            lines.append(f"top {len(tops)} query shapes:")
            for fingerprint, entry in tops:
                sql = entry["sample_sql"].replace("\n", " ")
                if len(sql) > 60:
                    sql = sql[:57] + "..."
                lines.append(
                    f"  {entry['count']:>6}x  hits={entry['cache_hits']:<6} "
                    f"views={entry['uses_view']:<6} {sql}"
                )
        return "\n".join(lines)


def aggregate_events(events: Iterable[Dict[str, Any]]) -> WorkloadAggregate:
    aggregate = WorkloadAggregate()
    for event in events:
        aggregate.add(event)
    return aggregate


def load_journal(path: str) -> WorkloadAggregate:
    """Read and aggregate a journal (including rotated files)."""

    return aggregate_events(iter_events(path))
