"""The ordered change log: monotone LSNs over base-table deltas.

The log is the durability point of the transactional-outbox pattern: a
writer appends the concrete rows of each base-table insert or delete in
the same critical section that mutates the live table, and every record
gets the next log sequence number (LSN). Consumers -- the deferred
applier in :mod:`repro.cdc.applier` -- read strictly in LSN order, so
replaying the records in order reconstructs exactly the sequence of
states the writer went through, and a drained view equals recomputing
its query over the live tables.

Durability is optional: pass ``journal_path`` and every append is also
written as one JSON line (fsync-free append, in the spirit of an outbox
table); :meth:`ChangeLog.replay` rebuilds a log from such a journal.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

_KINDS = ("insert", "delete")
_JOURNAL_FIELDS = frozenset(("lsn", "kind", "table", "rows", "ts"))


@dataclass(frozen=True)
class ChangeRecord:
    """One logged base-table change.

    ``lsn`` is the record's log sequence number (monotonically increasing,
    starting at 1); ``kind`` is ``"insert"`` or ``"delete"``; ``rows``
    holds the concrete changed rows -- predicate deletes are resolved to
    their victim rows *before* logging, so the log is always replayable
    without re-evaluating predicates against lost states. ``timestamp``
    is the wall-clock append time, which is what freshness lag estimates
    are measured against.
    """

    lsn: int
    kind: str
    table: str
    rows: tuple[tuple[object, ...], ...]
    timestamp: float


class ChangeLog:
    """An append-only, thread-safe change log with monotone LSNs.

    Appends and reads serialize on one internal lock; records themselves
    are immutable, so consumers may hold returned tuples across later
    appends. :meth:`truncate_through` discards absorbed prefixes without
    disturbing LSN assignment (LSNs never restart).
    """

    def __init__(
        self,
        journal_path: str | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self._lock = threading.Lock()
        self._records: list[ChangeRecord] = []
        # LSN of the last record *before* the retained window; the next
        # appended record gets ``_head_lsn + 1``.
        self._base_lsn = 0
        self._head_lsn = 0
        self._clock = clock
        self._journal = open(journal_path, "a") if journal_path else None

    # -- writer side ---------------------------------------------------------

    def append(
        self, kind: str, table: str, rows: Sequence[Sequence[object]]
    ) -> ChangeRecord:
        """Append one change record; returns it with its assigned LSN."""
        if kind not in _KINDS:
            raise ValueError(f"unknown change kind {kind!r}")
        frozen = tuple(tuple(row) for row in rows)
        with self._lock:
            record = ChangeRecord(
                lsn=self._head_lsn + 1,
                kind=kind,
                table=table,
                rows=frozen,
                timestamp=self._clock(),
            )
            self._records.append(record)
            self._head_lsn = record.lsn
            if self._journal is not None:
                self._journal.write(
                    json.dumps(
                        {
                            "lsn": record.lsn,
                            "kind": record.kind,
                            "table": record.table,
                            "rows": [list(row) for row in record.rows],
                            "ts": record.timestamp,
                        }
                    )
                    + "\n"
                )
                self._journal.flush()
            return record

    def truncate_through(self, lsn: int) -> int:
        """Discard retained records with LSN <= ``lsn``; returns the count.

        Only affects retention -- the head LSN and future assignments are
        unchanged, and the journal (if any) is not rewritten.
        """
        with self._lock:
            keep_from = min(max(lsn, self._base_lsn), self._head_lsn)
            dropped = keep_from - self._base_lsn
            if dropped > 0:
                # A new list, not a cut: a :meth:`window` handed out
                # earlier keeps the records it covers.
                self._records = self._records[dropped:]
                self._base_lsn = keep_from
            return dropped

    def close(self) -> None:
        """Close the journal file, if one is attached."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    # -- reader side ---------------------------------------------------------

    @property
    def head_lsn(self) -> int:
        """LSN of the most recently appended record (0 when none yet)."""
        return self._head_lsn

    @property
    def base_lsn(self) -> int:
        """LSN of the last *discarded* record (0 when nothing truncated)."""
        return self._base_lsn

    def records_after(
        self, lsn: int, limit: int | None = None
    ) -> tuple[ChangeRecord, ...]:
        """Retained records with LSN > ``lsn``, in order, up to ``limit``.

        Raises :class:`ValueError` when ``lsn`` precedes the retained
        window -- the caller asked for records already truncated away.
        """
        with self._lock:
            if lsn < self._base_lsn:
                raise ValueError(
                    f"records after lsn {lsn} already truncated "
                    f"(retained window starts after {self._base_lsn})"
                )
            start = lsn - self._base_lsn
            if limit is None:
                return tuple(self._records[start:])
            return tuple(self._records[start : start + limit])

    def window(self) -> tuple[int, int, list[ChangeRecord]]:
        """``(base lsn, head lsn, records)`` as of now, in O(1).

        ``records[i]`` is the record with LSN ``base + 1 + i`` for every
        LSN up to ``head``, for good: later appends land past ``head`` and
        :meth:`truncate_through` replaces the list instead of cutting it.
        The caller must not mutate it.
        """
        with self._lock:
            return self._base_lsn, self._head_lsn, self._records

    def first_after(self, lsn: int) -> ChangeRecord | None:
        """The first retained record with LSN > ``lsn``, or ``None``."""
        records = self.records_after(lsn, limit=1)
        return records[0] if records else None

    def __len__(self) -> int:
        return len(self._records)

    # -- durability ----------------------------------------------------------

    @classmethod
    def replay(
        cls,
        path: str,
        journal_path: str | None = None,
        clock: Callable[[], float] = time.time,
    ) -> "ChangeLog":
        """Rebuild a log from a journal written by a previous instance.

        Records are restored with their original LSNs and timestamps; the
        next append continues the sequence. The journal is outside input:
        raises :class:`ValueError` on a gap or regression in the LSNs, and
        one naming the line on a missing field or a kind other than
        ``"insert"`` / ``"delete"``.
        """
        log = cls(journal_path=journal_path, clock=clock)
        with open(path) as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                fields = entry.keys() if isinstance(entry, dict) else ()
                missing = sorted(_JOURNAL_FIELDS.difference(fields))
                if missing:
                    raise ValueError(
                        f"journal corrupt: line {number} lacks "
                        f"{', '.join(missing)}"
                    )
                lsn = entry["lsn"]
                if lsn != log._head_lsn + 1:
                    raise ValueError(
                        f"journal corrupt: lsn {lsn} follows {log._head_lsn}"
                    )
                if entry["kind"] not in _KINDS:
                    raise ValueError(
                        f"journal corrupt: line {number} has unknown change "
                        f"kind {entry['kind']!r}"
                    )
                log._records.append(
                    ChangeRecord(
                        lsn=lsn,
                        kind=entry["kind"],
                        table=entry["table"],
                        rows=tuple(
                            tuple(row) for row in entry["rows"]
                        ),
                        timestamp=entry["ts"],
                    )
                )
                log._head_lsn = lsn
        return log


__all__ = ["ChangeLog", "ChangeRecord"]
