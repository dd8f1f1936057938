"""What a registered view keeps resident.

The paper keeps a description of every materialized view in memory
(Section 4), so the bytes a registration leaves behind bound how many views
fit. Measured with ``tracemalloc``: the allocations still live after 500
generator views are registered into a :class:`ViewServer`, per view, once
the schema-bounded shared state (column domains, shared leaves and shallow
forms, interned names) has been built by a first batch. The dense
union-find the sparse classes replaced kept 15.5 KB per view here.
"""

import gc
import tracemalloc

import pytest

from repro import ViewServer, WorkloadGenerator, tpch_catalog
from repro.core.describe import describe
from repro.memsize import deep_sizeof
from repro.sql import statement_to_sql

WARM_UP = 50
MEASURED = 500
BUDGET_BYTES_PER_VIEW = 13 * 1024
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
