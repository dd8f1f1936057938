"""ChangeLog invariants: LSN assignment, retention, journal replay."""

import json

import pytest

from repro.cdc import ChangeLog


def test_lsns_are_monotone_from_one():
    log = ChangeLog()
    first = log.append("insert", "orders", [(1, "a")])
    second = log.append("delete", "orders", [(1, "a")])
    third = log.append("insert", "lineitem", [(2,), (3,)])
    assert (first.lsn, second.lsn, third.lsn) == (1, 2, 3)
    assert log.head_lsn == 3
    assert len(log) == 3


def test_rows_are_frozen_and_kind_validated():
    log = ChangeLog()
    record = log.append("insert", "orders", [[1, "a"]])
    assert record.rows == ((1, "a"),)
    assert isinstance(record.rows[0], tuple)
    with pytest.raises(ValueError):
        log.append("update", "orders", [(1,)])


def test_records_after_and_first_after():
    log = ChangeLog()
    for i in range(5):
        log.append("insert", "orders", [(i,)])
    tail = log.records_after(2)
    assert [r.lsn for r in tail] == [3, 4, 5]
    assert [r.lsn for r in log.records_after(2, limit=2)] == [3, 4]
    assert log.first_after(4).lsn == 5
    assert log.first_after(5) is None


def test_truncate_through_drops_prefix_and_guards_reads():
    log = ChangeLog()
    for i in range(6):
        log.append("insert", "orders", [(i,)])
    dropped = log.truncate_through(4)
    assert dropped == 4
    assert log.base_lsn == 4
    assert log.head_lsn == 6
    assert [r.lsn for r in log.records_after(4)] == [5, 6]
    # A reader whose watermark predates the retained window must fail
    # loudly rather than silently skip records.
    with pytest.raises(ValueError):
        log.records_after(3)


def test_journal_round_trips_through_replay(tmp_path):
    path = tmp_path / "journal.jsonl"
    log = ChangeLog(journal_path=str(path))
    log.append("insert", "orders", [(1, "x")])
    log.append("delete", "orders", [(1, "x")])
    log.close()

    replayed = ChangeLog.replay(str(path))
    assert replayed.head_lsn == 2
    records = replayed.records_after(0)
    assert [(r.lsn, r.kind, r.table, r.rows) for r in records] == [
        (1, "insert", "orders", ((1, "x"),)),
        (2, "delete", "orders", ((1, "x"),)),
    ]


def write_journal(path, *entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def test_replay_rejects_lsn_gaps(tmp_path):
    path = tmp_path / "journal.jsonl"
    write_journal(
        path,
        {"lsn": 1, "kind": "insert", "table": "t", "rows": [[1]], "ts": 0.0},
        {"lsn": 3, "kind": "insert", "table": "t", "rows": [[2]], "ts": 0.0},
    )
    with pytest.raises(ValueError):
        ChangeLog.replay(str(path))


def test_replay_rejects_an_unknown_kind(tmp_path):
    # An "update" record would otherwise reach the applier, whose scan
    # treats every non-insert as a delete.
    path = tmp_path / "journal.jsonl"
    write_journal(
        path,
        {"lsn": 1, "kind": "insert", "table": "t", "rows": [[1]], "ts": 0.0},
        {"lsn": 2, "kind": "update", "table": "t", "rows": [[1]], "ts": 0.0},
    )
    with pytest.raises(ValueError, match="line 2.*'update'"):
        ChangeLog.replay(str(path))


def test_replay_names_the_line_missing_a_field(tmp_path):
    path = tmp_path / "journal.jsonl"
    write_journal(
        path,
        {"lsn": 1, "kind": "insert", "table": "t", "rows": [[1]], "ts": 0.0},
        {"lsn": 2, "table": "t", "rows": [[1]], "ts": 0.0},
    )
    with pytest.raises(ValueError, match="line 2 lacks kind"):
        ChangeLog.replay(str(path))
