"""White-box tests for the executor's join machinery."""

from collections import Counter

from repro.engine import Database
from repro.engine.executor import _JoinPipeline, _split_equijoin
from repro.sql import parse_predicate


def bound(text):
    return parse_predicate(text)


class TestSplitEquijoin:
    def test_cross_table_equality(self):
        sides = _split_equijoin(bound("t.a = u.b"))
        assert sides is not None
        assert sides[0].key == ("t", "a")
        assert sides[1].key == ("u", "b")

    def test_constant_equality_is_not_an_equijoin(self):
        assert _split_equijoin(bound("t.a = 5")) is None

    def test_inequality_is_not_an_equijoin(self):
        assert _split_equijoin(bound("t.a <> u.b")) is None

    def test_expression_equality_is_not_an_equijoin(self):
        assert _split_equijoin(bound("t.a + 1 = u.b")) is None


def join_order(sizes, *conjuncts, delta_table=None):
    """Run the join over tables ``name -> rows`` (columns x, y, z); the order.

    Row ``i`` of every table is ``(i, i, i)``, so each equijoin is 1:1
    and no intermediate is empty unless a table is.
    """
    database = Database()
    for name, rows in sizes.items():
        rows = rows if isinstance(rows, list) else [(i, i, i) for i in range(rows)]
        database.store(name, ("x", "y", "z"), rows)
    pipeline = _JoinPipeline(
        database, tuple(sizes), [bound(text) for text in conjuncts]
    )
    pipeline.run(delta_table)
    return pipeline.order


class TestJoinOrder:
    def test_two_tables_keep_given_order(self):
        assert join_order({"a": 2, "b": 2}) == ["a", "b"]

    def test_connected_table_preferred(self):
        # c connects to a; b is isolated -- c should be joined before b to
        # avoid an intermediate cross product.
        order = join_order({"a": 2, "b": 2, "c": 2}, "a.x = c.y")
        assert order.index("c") < order.index("b")

    def test_chain_order(self):
        order = join_order(
            {"a": 2, "b": 2, "c": 2, "d": 2},
            "a.x = b.x",
            "b.y = c.y",
            "c.z = d.z",
        )
        assert order == ["a", "b", "c", "d"]

    def test_disconnected_tables_still_all_present(self):
        assert sorted(join_order({"a": 2, "b": 2, "c": 2})) == ["a", "b", "c"]

    def test_smallest_input_drives(self):
        assert join_order({"a": 5, "b": 2, "c": 3}, "a.x = b.x", "b.y = c.y") == [
            "b",
            "c",
            "a",
        ]

    def test_inputs_are_sized_after_their_local_conjuncts(self):
        order = join_order({"a": 5, "b": 2}, "a.x = b.x", "a.y = 3")
        assert order == ["a", "b"]

    def test_named_delta_table_drives_whatever_its_size(self):
        order = join_order(
            {"a": 5, "b": 2, "c": 3}, "a.x = b.x", "b.y = c.y", delta_table="a"
        )
        assert order == ["a", "b", "c"]

    def test_smallest_fan_out_joins_first(self):
        # From a, b fans out 3x (three rows per key), c is 1:1.
        wide = [(i % 2, i, i) for i in range(6)]
        order = join_order(
            {"a": 2, "b": wide, "c": 4}, "a.x = b.x", "a.x = c.x"
        )
        assert order == ["a", "c", "b"]

    def test_fan_out_tie_prefers_a_table_with_a_local_conjunct(self):
        order = join_order(
            {"a": 2, "b": 4, "c": 4}, "a.x = b.x", "a.x = c.x", "c.y >= 0"
        )
        assert order == ["a", "c", "b"]

    def test_fan_out_tie_then_prefers_the_smaller_relation(self):
        order = join_order({"a": 2, "b": 5, "c": 4}, "a.x = b.x", "a.x = c.x")
        assert order == ["a", "c", "b"]

    def test_empty_intermediate_ends_the_join(self):
        order = join_order(
            {"a": 2, "b": 3, "c": 4}, "a.x = b.x", "b.y = c.y", "a.y < 0"
        )
        assert order == ["a"]


class TestLocalConjunctsRunOncePerStoredRow:
    """``big`` fans out: every ``small`` row probes the one bucket of
    ``big``, whose rows carry a local conjunct."""

    def pipeline(self, monkeypatch):
        database = Database()
        database.store("small", ("x", "y", "z"), [(0, i, i) for i in range(4)])
        database.store("big", ("x", "y", "z"), [(0, i, i) for i in range(10)])
        tested: Counter = Counter()
        compiled = _JoinPipeline._accepts

        def counting(self, table):
            accepts = compiled(self, table)

            def counted(stored):
                tested[table, id(stored)] += 1
                return accepts(stored)

            return counted

        monkeypatch.setattr(_JoinPipeline, "_accepts", counting)
        pipeline = _JoinPipeline(
            database,
            ("small", "big"),
            [bound("small.x = big.x"), bound("big.y >= 5"), bound("big.y <> 7")],
        )
        return pipeline, tested, database.relation("big")

    def test_a_full_evaluation_reuses_the_scan_that_sized_the_table(
        self, monkeypatch
    ):
        pipeline, tested, big = self.pipeline(monkeypatch)
        rows = pipeline.run()
        assert pipeline.order == ["small", "big"]
        assert len(rows) == 4 * 4 and all(row[4] in (5, 6, 8, 9) for row in rows)
        # Sizing tested every stored row once; the join tested none again.
        assert tested == {("big", id(stored)): 1 for stored in big.rows}
        assert big.hash_index_builds == 1

    def test_a_delta_evaluation_filters_only_the_rows_it_matches(self, monkeypatch):
        pipeline, tested, big = self.pipeline(monkeypatch)
        big.extend([(1, 9, 9)] * 3)  # a bucket no delta row probes
        rows = pipeline.run(delta_table="small")
        assert len(rows) == 4 * 4
        assert tested == {("big", id(stored)): 1 for stored in big.rows[:10]}
        assert big.hash_index_builds == 1
