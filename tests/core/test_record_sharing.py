"""Registered views share the equal parts of their records, exactly.

A view record (:class:`~repro.core.matching.ViewRecord`) takes what the
schema bounds -- join pairs, grouping-column keys, foreign-key edges,
check constraints, shallow forms -- from its catalog's one
:class:`~repro.core.parts.SharedParts`, and shares its other repeated
parts with the records of its registration batch. These tests pin the
three things that sharing must not cost:

* exactness: an equality-keyed table conflates ``1 == 1.0 == True``, so
  views whose records differ only in such a constant, or in an alias,
  must each keep their own values, of their own types;
* boundedness: register/unregister churn grows no catalog-scoped table
  past what the first round built;
* the slotted value classes a record keeps pickle, alone and inside a
  result frame.
"""

import dataclasses
import pickle
import re

from repro import ViewServer, WorkloadGenerator, tpch_catalog
from repro.core.describe import describe
from repro.core.filtertree import packed_row
from repro.core.fkgraph import FkEdge
from repro.core.intervalsets import IntervalSet, OrRangePredicate, as_or_range
from repro.core.matching import ViewRecord
from repro.core.parts import shared_parts
from repro.core.ranges import Bound, Interval, RangePredicate
from repro.core.residual import ShallowForm
from repro.optimizer.optimizer import Optimizer, OptimizationResult
from repro.optimizer.plans import DirectNode
from repro.sql import parse_expression, parse_predicate, statement_to_sql

SLOTTED = (
    Bound,
    Interval,
    RangePredicate,
    IntervalSet,
    OrRangePredicate,
    ShallowForm,
    FkEdge,
)

# The constant spelled three ways: equal as Python values, distinct SQL.
CONSTANTS = ("1", "1.0", "true")
VIEW = (
    "select o_custkey, o_shippriority + {c} as p, "
    "sum(o_totalprice * {c}) as {alias}, count_big(*) as cnt from orders, customer "
    "where o_custkey = c_custkey and o_orderkey >= {c} and o_shippriority <> {c} "
    "group by o_custkey, o_shippriority + {c}"
)
_UNSHARED_SLOTS = ("catalog", "domain", "estimate", "estimate_stats")


def _exact(value):
    """``value`` as nested tuples that tag every leaf with its type: two
    values map to equal results only when they are equal *and* of the
    same types all the way down (``1``, ``1.0`` and ``True`` do not)."""
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, tuple(map(_exact, value)))
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, frozenset(map(_exact, value)))
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(_exact(getattr(value, f.name)) for f in dataclasses.fields(value)),
        )
    return (type(value).__name__, value)


def _record_parts(record: ViewRecord) -> dict:
    return {
        slot: _exact(getattr(record, slot))
        for slot in ViewRecord.__slots__
        if slot not in _UNSHARED_SLOTS
    }


def test_views_differing_in_a_constant_or_an_alias_keep_their_own(
    catalog, paper_stats
):
    """One batch: the same view with its constant spelled ``1``, ``1.0``
    and ``True``, and twice more under another alias. Each registered
    record and packed row equals, type for type, the one its view
    compiles to alone."""
    definitions = [
        (f"v{index}", VIEW.format(c=constant, alias="s"))
        for index, constant in enumerate(CONSTANTS)
    ] + [
        (f"a{index}", VIEW.format(c=constant, alias="total"))
        for index, constant in enumerate(CONSTANTS[:2])
    ]
    server = ViewServer(catalog, paper_stats, cache_enabled=False)
    try:
        server.register_views(definitions)
        interner = server.snapshots._interner
        kept = {
            view.name: view
            for view in server.snapshots.current.matcher.filter_tree.views()
        }
        assert sorted(kept) == sorted(name for name, _ in definitions)
        for name, sql in definitions:
            view = kept[name]
            alone = describe(catalog.bind_sql(sql), catalog, name=name)
            assert _record_parts(view.record) == _record_parts(
                ViewRecord.of(alone)
            ), name
            assert _exact(view.row[:4]) == _exact(packed_row(alone, interner)[:4])
        types = [type(kept[f"v{index}"].record.conjuncts[0][2]) for index in range(3)]
        assert types == [int, float, bool]
        assert kept["v0"].record.aggregates != kept["a0"].record.aggregates
        assert kept["v0"].record.groups is kept["a0"].record.groups
    finally:
        server.close()


def _catalog_tables(catalog) -> dict[str, int]:
    """The size of every catalog-scoped table."""
    parts = shared_parts(catalog)
    sizes = {name: len(getattr(parts, name)) for name in type(parts).__slots__}
    sizes["shallow_forms"] = len(catalog.shallow_forms)
    sizes["column_refs"] = len(catalog._column_refs)
    sizes["table_refs"] = len(catalog._table_refs)
    domains = getattr(catalog, "_column_domains", {})
    sizes["column_domains"] = len(domains)
    sizes["domain_singletons"] = sum(
        len(domain._singletons) for domain in domains.values()
    )
    sizes["table_sets"] = len(getattr(catalog, "_table_sets", {}))
    return sizes


def _respelled(sql: str, round_number: int) -> str:
    """``sql`` with every alias renamed and every number shifted: the
    same schema shape under new names and constants."""
    sql = re.sub(r" AS (\w+)", rf" AS \1_r{round_number}", sql)
    return re.sub(
        r"([<>=]) (\d+)\)",
        lambda match: f"{match[1]} {int(match[2]) + round_number})",
        sql,
    )


def test_churn_grows_no_catalog_table_past_its_first_round(paper_stats):
    """50 rounds each register twenty views -- the same shapes under new
    aliases and constants -- and drop them again: every catalog-scoped
    table is as large after the 50th round as after the first."""
    catalog = tpch_catalog()
    generator = WorkloadGenerator(catalog, paper_stats, seed=42)
    texts = [
        statement_to_sql(view.statement) for _, view in generator.generate_views(20)
    ]
    assert _respelled(texts[1], 2) != texts[1]
    server = ViewServer(catalog, paper_stats, cache_enabled=False)
    try:

        def churn(round_number: int) -> dict[str, int]:
            batch = [
                (f"r{round_number}v{index}", _respelled(text, round_number))
                for index, text in enumerate(texts)
            ]
            server.register_views(batch)
            for name, _ in batch:
                server.unregister_view(name)
            return _catalog_tables(catalog)

        first = churn(1)
        assert first["_pairs"] and first["_edges"] and first["_group_keys"]
        for round_number in range(2, 51):
            assert churn(round_number) == first, round_number
        assert not server.snapshots.current.view_names
    finally:
        server.close()


def _instances():
    bound = Bound(5, inclusive=True)
    interval = Interval(lower=bound, upper=Bound(9.5, inclusive=False))
    or_range = as_or_range(parse_predicate("orders.o_orderkey in (1, 2, 3)"))
    form = ShallowForm.of(parse_expression("orders.o_totalprice * 2"))
    edge = FkEdge(
        source="orders",
        target="customer",
        column_pairs=((("orders", "o_custkey"), ("customer", "c_custkey")),),
    )
    return [
        bound,
        interval,
        RangePredicate(("orders", "o_orderkey"), ">=", 1.0),
        IntervalSet.of([interval, Interval(lower=Bound(20, True))]),
        or_range,
        form,
        edge,
    ]


def test_slotted_value_classes_pickle_round_trip():
    instances = _instances()
    assert sorted(type(found).__name__ for found in instances) == sorted(
        kind.__name__ for kind in SLOTTED
    )
    for found in instances:
        assert not hasattr(found, "__dict__"), type(found).__name__
        copy = pickle.loads(pickle.dumps(found, protocol=pickle.HIGHEST_PROTOCOL))
        assert _exact(copy) == _exact(found)


def test_a_result_frame_carries_a_plan_holding_them(catalog, paper_stats):
    """A plan node holding the slotted values (as a search-time node holds
    its match) survives the frame a rewrite-cache entry is kept as."""
    statement = catalog.bind_sql("select o_custkey from orders where o_orderkey >= 5")
    result = Optimizer(catalog, paper_stats).optimize(statement)
    held = tuple(_instances())
    plan = DirectNode(statement=statement, match=held)
    decoded = OptimizationResult.from_frame(
        dataclasses.replace(result, plan=plan).to_frame()
    )
    assert decoded.cost == result.cost
    assert decoded.plan == plan
    assert _exact(decoded.plan.match) == _exact(held)
