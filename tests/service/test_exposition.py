"""The whole Prometheus exposition of one served state.

One server carries every section ``prometheus_metrics`` renders: the
rewrite cache on, a started worker pool, a CDC pipeline on a fake clock
and an SLO tracker. ``exposition_pinned.prom`` is that state's
exposition as the hand-written renderer produced it before
``ViewServer.stats()`` became the one read. The table-driven renderer
must declare the same families with the same types and label names, and
give every counter and gauge the same value. The one renamed family is
the per-view merge-lag summary: it was one family per view
(``repro_cdc_view_lag_seconds_<view>``) and is now
``repro_cdc_view_merge_lag_seconds{view=...}``. A deliberate change of
the exposition re-records the fixture with::

    PYTHONPATH=src python -m tests.service.test_exposition
"""

import re
from pathlib import Path

import pytest

from repro.catalog import tpch_catalog
from repro.cdc import CdcPipeline
from repro.core.parallel import fork_available
from repro.datagen import generate_tpch
from repro.obs.slo import SloObjectives
from repro.service import ViewServer
from repro.stats import synthetic_tpch_stats

from .test_staleness import _SAMPLE_LINE, FakeClock, fresh_order_row

PINNED = Path(__file__).parent / "exposition_pinned.prom"

ROLLUP = (
    "select o_custkey as c, sum(o_totalprice) as total, "
    "count_big(*) as cnt from orders group by o_custkey"
)
ROLLUP_QUERY = (
    "select o_custkey, sum(o_totalprice) from orders group by o_custkey"
)
PARTS = "select l_partkey, l_quantity from lineitem where l_quantity >= 10"
# The view cannot cover this range: full matching rejects it (RANGE).
PARTS_QUERY = "select l_partkey from lineitem where l_quantity >= 5"

# Values that depend on wall-clock time, compared by presence only: the
# applier times its work with the real clock, and burn-rate windows
# move with time.monotonic.
_TIMED_GAUGES = {
    "repro_cdc_view_lag_seconds",
    "repro_cdc_apply_rows_per_second",
    "repro_slo_burn_rate",
}
_OLD_LAG_PREFIX = "repro_cdc_view_lag_seconds_"
_LAG_SUMMARY = "repro_cdc_view_merge_lag_seconds"


def served_exposition(catalog, stats):
    """Drive the fixed request sequence; return the exposition."""
    clock = FakeClock()
    pipeline = CdcPipeline(
        catalog, generate_tpch(scale=0.0005, seed=3), clock=clock
    )
    pipeline.register_view("mv_rev", catalog.bind_sql(ROLLUP))
    pipeline.register_view("mv_parts", catalog.bind_sql(PARTS))
    # A p99 target no request misses: the SLO counts only errors.
    slo = SloObjectives(target_p99_seconds=60.0)
    with ViewServer(catalog, stats, slo=slo) as server:
        server.register_views({"mv_rev": ROLLUP, "mv_parts": PARTS})
        server.attach_cdc(pipeline)
        server.start_pool(workers=1)
        assert server.rewrite(ROLLUP_QUERY).uses_view  # a worker answers
        assert server.rewrite(ROLLUP_QUERY).cache_hit  # the parent does
        assert server.rewrite("select nope from nowhere").error
        server.serve(PARTS_QUERY)
        pipeline.insert("orders", [fresh_order_row(pipeline)])
        assert not server.serve(ROLLUP_QUERY, max_staleness=0).uses_view
        clock.advance(2.0)
        pipeline.drain()
        pipeline.insert("orders", [fresh_order_row(pipeline)])
        clock.advance(3.0)
        return server.prometheus_metrics()


@pytest.fixture(scope="module")
def exposition(catalog, paper_stats):
    if not fork_available():
        pytest.skip("the worker pool needs os.fork")
    return served_exposition(catalog, paper_stats)


def parse(text):
    """``(types, labels, samples)``: each family's TYPE, each family's
    label-name sets, and each sample's value by (name, labels)."""
    types, labels, samples = {}, {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split()
            types[family] = kind
            continue
        name, _, value = line.rpartition(" ")
        metric, _, rest = name.partition("{")
        pairs = tuple(re.findall(r'([a-zA-Z_]+)="((?:[^"\\]|\\.)*)"', rest))
        family = next(
            f for f in (metric, re.sub("_(sum|count)$", "", metric))
            if f in types
        )
        labels.setdefault(family, set()).add(
            frozenset(key for key, _ in pairs)
        )
        samples[metric, pairs] = value
    return types, labels, samples


def _comparable(types, labels, samples):
    """Families and exact values minus the time-dependent ones, with
    the per-view lag summaries keyed by view."""
    lag_counts = {}
    families = {}
    for family, kind in types.items():
        if family == _LAG_SUMMARY or (
            family.startswith(_OLD_LAG_PREFIX) and kind == "summary"
        ):
            continue
        families[family] = (kind, frozenset(labels.get(family, ())))
    values = {}
    for (metric, pairs), value in samples.items():
        if metric == f"{_LAG_SUMMARY}_count":
            lag_counts[dict(pairs)["view"]] = value
        elif metric.startswith(_OLD_LAG_PREFIX) and metric.endswith("_count"):
            view = metric[len(_OLD_LAG_PREFIX):-len("_count")]
            lag_counts[view] = value
        elif metric.startswith((_OLD_LAG_PREFIX, _LAG_SUMMARY)):
            continue
        elif metric in _TIMED_GAUGES or metric.endswith("_sum") or any(
            key == "quantile" for key, _ in pairs
        ):
            values[metric, pairs] = None  # presence only
        else:
            values[metric, pairs] = value
    return families, values, lag_counts


def test_exposition_matches_the_pinned_state(exposition):
    pinned = _comparable(*parse(PINNED.read_text()))
    current = _comparable(*parse(exposition))
    assert current[0] == pinned[0]  # family, TYPE, label names
    assert current[1] == pinned[1]  # every counter and gauge value
    assert current[2] == pinned[2] == {"mv_rev": "1", "mv_parts": "1"}
    types = parse(exposition)[0]
    assert types[_LAG_SUMMARY] == "summary"


def test_every_family_is_declared_once(exposition):
    families = [
        line.split()[2]
        for line in exposition.splitlines()
        if line.startswith("# TYPE ")
    ]
    assert len(families) == len(set(families))
    for section in ("rewrite_cache", "pool", "slo", "cdc", "memo", "match"):
        assert any(f.startswith(f"repro_{section}_") for f in families)


def test_every_sample_line_parses(exposition):
    for line in exposition.splitlines():
        if not line.startswith("#"):
            assert _SAMPLE_LINE.fullmatch(line), line


def test_view_names_never_become_family_names(catalog, paper_stats):
    """Views whose names sanitize alike, hold non-ASCII letters or need
    escaping: one lag summary family, each view a label value."""
    names = ("mv.a", "mv_a", "mvé", 'mv"rev\\x\nz')
    pipeline = CdcPipeline(
        catalog, generate_tpch(scale=0.0005, seed=3), clock=FakeClock()
    )
    for name in names:
        pipeline.register_view(name, catalog.bind_sql(ROLLUP))
    with ViewServer(catalog, paper_stats) as server:
        server.attach_cdc(pipeline)
        pipeline.insert("orders", [fresh_order_row(pipeline)])
        pipeline.drain()
        exposition = server.prometheus_metrics()
    families = [
        line.split()[2]
        for line in exposition.splitlines()
        if line.startswith("# TYPE ")
    ]
    assert len(families) == len(set(families))
    assert all(re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", f) for f in families)
    for line in exposition.splitlines():
        if not line.startswith("#"):
            assert _SAMPLE_LINE.fullmatch(line), line
    # One drain folds its batches in one merge, which samples every
    # view's lag; the drain's last, no-op merge samples none.
    for label in ("mv.a", "mv_a", "mvé", 'mv\\"rev\\\\x\\nz'):
        assert f'{_LAG_SUMMARY}_count{{view="{label}"}} 1' in exposition


if __name__ == "__main__":
    PINNED.write_text(
        served_exposition(tpch_catalog(), synthetic_tpch_stats(scale=0.5))
    )
