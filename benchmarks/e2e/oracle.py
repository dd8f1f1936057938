"""Output checks, run after the timed phase.

(a) every request produced a plan (the runner checks this first);
(b) on workloads of at most 1k views, a fixed sample of requests is
    re-served on the final epoch and must agree, in ``(cost, view_names)``,
    with a brute-force optimizer over ``ViewMatcher(use_filter_tree=False)``
    -- the paper's NoFilter configuration -- built from the SQL of exactly
    the views registered at that epoch;
(c) on the CDC workload, every sampled plan that reads a view returns the
    same bag as the original query on the generated database, and after
    the last drain a seeded sample of the stored views equals its
    recompute.
"""

from __future__ import annotations

import random

from repro import Optimizer, ViewMatcher
from repro.difftest import compare_results
from repro.engine import QueryResult, execute
from repro.optimizer import plan_result


# Recomputing all 100 stored views costs as much as materializing them
# (~10 s); each run recomputes a seeded quarter, successive seeds rotate.
RECOMPUTE_SAMPLE = 25


class CheckFailed(Exception):
    """An output was wrong; the run reports no metrics."""


def _final_views(workload) -> list:
    """The ``(name, sql)`` pairs registered once the schedule has run."""
    views = dict(workload.views)
    for op in workload.ops:
        if op[0] == "publish":
            for name in op[2]:
                del views[name]
            views.update((name, sql) for name, sql in op[1])
    return list(views.items())


def _sample(workload, size: int) -> list[str]:
    """The first ``size`` distinct request texts of the schedule."""
    return list(dict.fromkeys(workload.requests()))[:size]


def check_plans(workload, program) -> dict:
    """(b): served plans equal the brute-force optimizer's."""
    catalog = program.catalog
    brute = ViewMatcher(catalog, use_filter_tree=False)
    for name, sql in _final_views(workload):
        brute.register_view(name, catalog.bind_sql(sql))
    optimizer = Optimizer(catalog, program.stats, matcher=brute)
    compared = 0
    for sql in _sample(workload, workload.spec.oracle_sample):
        served = program.server.serve(sql)
        expected = optimizer.optimize(catalog.bind_sql(sql))
        got = (served.result.cost, served.view_names) if served.ok else None
        if got != (expected.cost, expected.view_names):
            raise CheckFailed(
                f"served plan differs from the NoFilter oracle for {sql!r}: "
                f"{got} != {(expected.cost, expected.view_names)}"
            )
        compared += 1
    return {"plans_compared": compared}


def _stored(database, name: str) -> QueryResult:
    relation = database.relation(name)
    return QueryResult(
        columns=tuple(relation.columns), rows=list(relation.rows)
    )


def check_cdc(workload, program, client) -> dict:
    """(c): rewrites and stored views are bag-equal to recomputation."""
    database = program.pipeline.database
    registered = program.server.snapshots.current.view_names
    executed = 0
    last_cycle = client.records[-workload.spec.churn_every :]
    for _, _, served in last_cycle:
        names = served.view_names
        if not names or not registered.issuperset(names):
            continue
        original = execute(program.catalog.bind_sql(served.sql), database)
        rewritten = plan_result(served.result.plan, database)
        diff = compare_results(original, rewritten)
        if not diff.equal:
            raise CheckFailed(
                f"rewrite over {names} is not bag-equal for {served.sql!r}: "
                f"{diff.summary()}"
            )
        executed += 1
        if executed >= workload.spec.oracle_sample:
            break
    maintained = sorted(program.pipeline.applier.views(), key=lambda v: v.name)
    views = random.Random(workload.seed).sample(
        maintained, min(RECOMPUTE_SAMPLE, len(maintained))
    )
    for view in views:
        diff = compare_results(
            execute(view.statement, database), _stored(database, view.name)
        )
        if not diff.equal:
            raise CheckFailed(
                f"stored view {view.name} differs from its recompute: "
                f"{diff.summary()}"
            )
    return {"rewrites_executed": executed, "views_recomputed": len(views)}


def check(workload, program, client) -> dict:
    report: dict = {"requests_ok": len(client.records)}
    if workload.spec.oracle_sample:
        report.update(check_plans(workload, program))
    if workload.spec.cdc_rows_per_cycle:
        report.update(check_cdc(workload, program, client))
    return report
