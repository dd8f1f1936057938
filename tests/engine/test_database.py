"""Database/Relation storage tests."""

import pytest

from repro.engine import Database
from repro.errors import ExecutionError


class TestDatabase:
    def test_store_and_lookup(self):
        db = Database()
        db.store("t", ("a", "b"), [(1, 2), (3, 4)])
        assert db.has("t")
        assert db.row_count("t") == 2
        assert db.names() == ("t",)

    def test_store_replaces(self):
        db = Database()
        db.store("t", ("a",), [(1,)])
        db.store("t", ("a",), [(1,), (2,)])
        assert db.row_count("t") == 2

    def test_create_empty_then_append_rows(self):
        db = Database()
        relation = db.create("t", ("a",))
        relation.rows.append((5,))
        assert db.row_count("t") == 1

    def test_create_duplicate_rejected(self):
        db = Database()
        db.create("t", ("a",))
        with pytest.raises(ExecutionError, match="already exists"):
            db.create("t", ("a",))

    def test_drop(self):
        db = Database()
        db.store("t", ("a",), [])
        db.drop("t")
        assert not db.has("t")
        with pytest.raises(ExecutionError):
            db.drop("t")

    def test_missing_relation_raises(self):
        with pytest.raises(ExecutionError, match="no relation"):
            Database().relation("zz")


class TestRelation:
    def test_column_position_and_values(self):
        db = Database()
        relation = db.store("t", ("a", "b"), [(1, "x"), (2, "y")])
        assert relation.column_position("b") == 1
        assert relation.column_values("b") == ["x", "y"]

    def test_unknown_column_raises(self):
        db = Database()
        relation = db.store("t", ("a",), [])
        with pytest.raises(ExecutionError, match="no column"):
            relation.column_position("zz")

    def test_extend_and_remove_move_the_version(self):
        relation = Database().store("t", ("a",), [(1,), (2,), (2,)])
        version = relation.version
        relation.extend([(3,)])
        assert relation.rows == [(1,), (2,), (2,), (3,)]
        assert relation.version > version
        version = relation.version
        relation.remove([(2,), (3,)])  # one occurrence per given row
        assert relation.rows == [(1,), (2,)]
        assert relation.version > version

    def test_remove_of_a_missing_row_raises_and_still_moves_the_version(self):
        relation = Database().store("t", ("a",), [(1,), (2,)])
        version = relation.version
        with pytest.raises(ExecutionError, match="not present"):
            relation.remove([(1,), (9,)])
        assert relation.rows == [(2,)]
        assert relation.version > version

    def test_remove_drops_the_earliest_occurrences_of_interleaved_duplicates(
        self,
    ):
        rows = [(1, "a"), (2, "b"), (1, "a"), (3, "c"), (1, "a"), (2, "b")]
        relation = Database().store("t", ("k", "v"), rows)
        relation.remove([(1, "a"), (2, "b"), (1, "a")])
        assert relation.rows == [(3, "c"), (1, "a"), (2, "b")]

    def test_remove_keeps_what_follows_the_first_row_not_stored(self):
        relation = Database().store("t", ("a",), [(1,), (2,), (1,), (3,)])
        version = relation.version
        # The second (2,) is not stored: the (1,) and (2,) before it go,
        # the (3,) after it stays.
        with pytest.raises(ExecutionError, match=r"row \(2,\) not present"):
            relation.remove([(1,), (2,), (2,), (3,)])
        assert relation.rows == [(1,), (3,)]
        assert relation.version > version
