"""What a registered view keeps resident.

The paper keeps a description of every materialized view in memory
(Section 4), so the bytes a registration leaves behind bound how many views
fit. Measured with ``tracemalloc``: the allocations still live after 500
generator views are registered into a :class:`ViewServer`, per view, once
the schema-bounded shared state (column domains, shared leaves and shallow
forms, interned names) has been built by a first batch. The dense
union-find the sparse classes replaced kept 15.5 KB per view here; with
the columnar pre-verifier's rows gone a view kept about 9.0 KB (budget
10.3 KB). Since a registered view is its record -- no description,
parsed statement or output list, only the record, hub, packed-row keys
and its SQL text -- it keeps about 3.35 KB, and the budget is that plus
15 %.
"""

import gc
import tracemalloc
import types

import pytest

from repro import ViewServer, WorkloadGenerator, tpch_catalog
from repro.core.describe import SpjgDescription, describe
from repro.core.filtertree import RegisteredView
from repro.core.matching import ViewRecord
from repro.memsize import deep_sizeof
from repro.sql import statement_to_sql
from repro.sql.statements import SelectStatement

WARM_UP = 50
MEASURED = 500
BUDGET_BYTES_PER_VIEW = 3_850
DERIVED_SLOTS = (
    "outputs",
    "group_forms",
    "simple_output_map",
    "expression_outputs",
)


def test_measuring_a_description_derives_nothing():
    """``deep_sizeof`` reads slots past ``__getattr__``: the output
    metadata a description derives on first read stays unset."""
    catalog = tpch_catalog()
    description = describe(
        catalog.bind_sql(
            "select o_custkey, sum(o_totalprice) as total from orders "
            "group by o_custkey"
        ),
        catalog,
    )
    assert deep_sizeof(description, exclude=(catalog,)) > 0
    for name in DERIVED_SLOTS:
        with pytest.raises(AttributeError):
            object.__getattribute__(description, name)
    assert description.group_forms  # still derived on an ordinary read


def test_registered_view_keeps_at_most_the_budget(paper_stats):
    catalog = tpch_catalog()
    generator = WorkloadGenerator(catalog, paper_stats, seed=42)
    texts = [
        (f"mv{index:05d}", statement_to_sql(view.statement))
        for index, (_, view) in enumerate(
            generator.generate_views(WARM_UP + MEASURED), start=1
        )
    ]
    server = ViewServer(catalog, paper_stats, cache_enabled=False)
    try:
        server.register_views(texts[:WARM_UP])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            server.register_views(texts[WARM_UP:])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(server.snapshots.current.matcher.filter_tree.views()) == len(
            texts
        )
        per_view = retained / MEASURED
        assert per_view <= BUDGET_BYTES_PER_VIEW, (
            f"a registered view keeps {per_view:.0f} B "
            f"(budget {BUDGET_BYTES_PER_VIEW} B)"
        )
    finally:
        server.close()


def _reachable(root, exclude):
    """Every object reachable from ``root`` through containers, instance
    dicts and slots, not counting what ``exclude`` reaches."""
    seen = set()
    found = []
    stack = list(exclude)
    marking = True
    while True:
        while stack:
            current = stack.pop()
            if isinstance(current, (type, types.ModuleType, types.FunctionType)):
                continue
            if id(current) in seen:
                continue
            seen.add(id(current))
            if not marking:
                found.append(current)
            if isinstance(current, (str, bytes, int, float)):
                continue
            if isinstance(current, dict):
                stack.extend(current.keys())
                stack.extend(current.values())
                continue
            if isinstance(current, (list, tuple, set, frozenset)):
                stack.extend(current)
                continue
            instance_dict = getattr(current, "__dict__", None)
            if instance_dict is not None:
                stack.append(instance_dict)
            for klass in type(current).__mro__:
                slots = klass.__dict__.get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    try:
                        stack.append(object.__getattribute__(current, name))
                    except AttributeError:
                        pass
        if not marking:
            return found
        marking = False
        stack = [root]


def test_a_published_snapshot_keeps_no_view_description(paper_stats, monkeypatch):
    """After registration a view is its record: nothing a published
    snapshot reaches (the catalog aside) is a description or a parsed
    statement, and serving never re-derives a view."""
    catalog = tpch_catalog()
    generator = WorkloadGenerator(catalog, paper_stats, seed=42)
    views = [
        (name, statement_to_sql(view.statement))
        for name, view in generator.generate_views(300)
    ]
    queries = [
        statement_to_sql(query.statement)
        for query in generator.generate_queries(50)
    ]
    server = ViewServer(catalog, paper_stats, cache_enabled=False)
    try:
        server.register_views(views[:150])
        for name, sql in views[150:160]:  # one epoch per view, too
            server.register_view(name, sql)
        server.register_views(views[160:])
        snapshot = server.snapshots.current
        kept = _reachable(snapshot, (catalog, paper_stats, server.snapshots.options))
        assert len(snapshot.view_names) == len(views)
        assert not [
            o for o in kept if isinstance(o, (SpjgDescription, SelectStatement))
        ]

        def rederived(view):
            raise AssertionError(f"serving re-derived view {view.name}")

        monkeypatch.setattr(RegisteredView, "description", property(rederived))
        compiled = []
        original = ViewRecord.of.__func__

        def counted(cls, *args, **kwargs):
            compiled.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(ViewRecord, "of", classmethod(counted))
        served = [server.serve(sql) for sql in queries]
        assert all(result.ok for result in served)
        assert sum(bool(result.result.view_names) for result in served) > 0
        assert compiled == []
    finally:
        server.close()
