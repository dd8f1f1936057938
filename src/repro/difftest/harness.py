"""The randomized differential-correctness harness.

Every rewrite the matcher produces is a claim that two SQL statements
are equivalent; this module tests the claim the only way that settles
it -- by executing both against real data. Per case it:

1. generates a seeded random query plus correlated covering views
   (:class:`~repro.workload.covering.CoveringCaseGenerator`);
2. registers the views with a fresh :class:`ViewMatcher` and matches;
3. materializes every view the matcher used, executes the original and
   each substitute through the bag-semantics executor, and compares the
   results as NULL-aware multisets;
4. on divergence, shrinks the case to a minimal (query, view, data)
   triple (:mod:`repro.difftest.shrink`).

The base data is one small :func:`repro.datagen.generate_tpch` load
(~4k rows at the default scale); statistics are collected from the
actual rows so generated range predicates land inside real domains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..catalog.catalog import Catalog
from ..catalog.tpch import tpch_catalog
from ..core.matcher import ViewMatcher
from ..datagen.tpch_gen import generate_tpch
from ..engine.database import Database
from ..engine.executor import execute, materialize_view
from ..errors import ReproError
from ..sql.printer import statement_to_sql
from ..sql.statements import SelectStatement
from ..stats.statistics import DatabaseStats
from ..workload.covering import CoveringCaseGenerator, CoveringParameters
from .compare import ResultDiff, compare_results
from .shrink import ShrunkCase, Shrinker, TableData


@dataclass(frozen=True)
class DifftestConfig:
    """Knobs of one harness run (all deterministic given the seeds)."""

    seed: int = 0
    cases: int = 200
    views_per_case: int = 3
    scale: float = 0.0005
    data_seed: int = 11
    float_digits: int = 9
    shrink_budget: int = 400
    max_divergences: int = 5
    parameters: CoveringParameters | None = None

    def case_seed(self, index: int) -> int:
        """The per-case RNG seed (stable under changes to ``cases``)."""
        return self.seed * 1_000_003 + index


@dataclass
class Divergence:
    """One rewrite whose execution contradicted the original query."""

    case_seed: int
    view_name: str
    query: SelectStatement
    view: SelectStatement
    substitute: SelectStatement
    diff: ResultDiff | None
    error: str | None = None
    shrunk: ShrunkCase | None = None

    def describe(self) -> str:
        lines = [
            f"case seed {self.case_seed}, view {self.view_name}:",
            f"  query:      {statement_to_sql(self.query)}",
            f"  view:       {statement_to_sql(self.view)}",
            f"  substitute: {statement_to_sql(self.substitute)}",
        ]
        if self.error is not None:
            lines.append(f"  substitute execution failed: {self.error}")
        elif self.diff is not None:
            lines.append("  " + self.diff.summary().replace("\n", "\n  "))
        if self.shrunk is not None and self.shrunk.substitute is not None:
            shrunk = self.shrunk
            lines.append(
                f"  shrunk to {shrunk.total_rows} rows over "
                f"{len(shrunk.tables)} tables "
                f"({shrunk.evaluations} oracle calls):"
            )
            lines.append(f"    query: {statement_to_sql(shrunk.query)}")
            lines.append(f"    view:  {statement_to_sql(shrunk.view)}")
        return "\n".join(lines)


@dataclass
class DifftestReport:
    """Aggregated outcome of a harness run."""

    config: DifftestConfig
    cases_run: int = 0
    cases_with_matches: int = 0
    views_registered: int = 0
    rewrites_executed: int = 0
    reject_tallies: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    match_errors: int = 0
    execution_errors: int = 0
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.match_errors

    def summary(self) -> str:
        lines = [
            f"difftest: {self.cases_run} cases (seed {self.config.seed}), "
            f"{self.cases_with_matches} produced rewrites, "
            f"{self.rewrites_executed} substitutes executed, "
            f"{len(self.divergences)} divergences "
            f"[{self.elapsed_seconds:.1f}s]",
        ]
        if self.reject_tallies:
            tallies = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(
                    self.reject_tallies.items(), key=lambda kv: -kv[1]
                )
            )
            lines.append(f"  rejects: {tallies}")
        if self.match_errors or self.execution_errors:
            lines.append(
                f"  errors: {self.match_errors} match, "
                f"{self.execution_errors} execution"
            )
        for divergence in self.divergences:
            lines.append(divergence.describe())
        return "\n".join(lines)


def _table_data(database: Database, tables: set[str]) -> TableData:
    """Copy the referenced base tables out of the shared database."""
    data: TableData = {}
    for name in sorted(tables):
        relation = database.relation(name)
        data[name] = (relation.columns, list(relation.rows))
    return data


def run_difftest(
    config: DifftestConfig,
    catalog: Catalog | None = None,
    progress=None,
) -> DifftestReport:
    """Run the harness; deterministic for a given config and catalog."""
    started = time.perf_counter()
    catalog = catalog or tpch_catalog()
    database = generate_tpch(scale=config.scale, seed=config.data_seed)
    stats = DatabaseStats.collect(database, catalog)
    generator = CoveringCaseGenerator(catalog, stats, config.parameters)
    report = DifftestReport(config=config)
    for index in range(config.cases):
        if len(report.divergences) >= config.max_divergences:
            break
        case_seed = config.case_seed(index)
        case = generator.case(case_seed, views=config.views_per_case)
        matcher = ViewMatcher(catalog)
        views: dict[str, SelectStatement] = {}
        for name, view in case.views.items():
            try:
                matcher.register_view(name, view)
                views[name] = view
            except (ReproError, ValueError):
                continue
        report.cases_run += 1
        report.views_registered += len(views)
        if not views:
            continue
        try:
            results = matcher.match(case.query)
        except (ReproError, ValueError):
            report.match_errors += 1
            continue
        for result in results:
            if result.reject_reason is not None:
                reason = result.reject_reason.name
                report.reject_tallies[reason] = (
                    report.reject_tallies.get(reason, 0) + 1
                )
        matches = [m for m in results if m.matched]
        if not matches:
            continue
        report.cases_with_matches += 1
        needed = {m.view.name for m in matches}
        try:
            for name in needed:
                materialize_view(name, views[name], database)
            try:
                original = execute(case.query, database)
            except (ReproError, ValueError):
                report.execution_errors += 1
                continue
            for match in matches:
                report.rewrites_executed += 1
                error: str | None = None
                diff: ResultDiff | None = None
                try:
                    rewritten = execute(match.substitute, database)
                except (ReproError, ValueError) as exc:
                    error = str(exc)
                else:
                    diff = compare_results(
                        original, rewritten, config.float_digits
                    )
                    if diff.equal:
                        continue
                divergence = Divergence(
                    case_seed=case_seed,
                    view_name=match.view.name,
                    query=case.query,
                    view=views[match.view.name],
                    substitute=match.substitute,
                    diff=diff,
                    error=error,
                )
                if config.shrink_budget > 0:
                    tables = _table_data(
                        database,
                        set(case.query.table_names())
                        | set(views[match.view.name].table_names()),
                    )
                    shrinker = Shrinker(
                        catalog,
                        float_digits=config.float_digits,
                        budget=config.shrink_budget,
                    )
                    divergence.shrunk = shrinker.shrink(
                        case.query,
                        match.view.name,
                        views[match.view.name],
                        tables,
                    )
                report.divergences.append(divergence)
                if len(report.divergences) >= config.max_divergences:
                    break
        finally:
            for name in needed:
                database.drop(name)
        if progress is not None:
            progress(report)
    report.elapsed_seconds = time.perf_counter() - started
    return report
