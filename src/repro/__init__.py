"""repro: a reproduction of Goldstein & Larson (SIGMOD 2001),
"Optimizing Queries Using Materialized Views: A Practical, Scalable
Solution".

The package implements the paper's view-matching algorithm for SPJG views
(equijoin / range / residual subsumption over column equivalence classes,
cardinality-preserving join elimination, aggregation rollup), the filter
tree over view descriptions (its levels fused into one packed sweep), and
everything around them needed to actually run the paper's experiments: a
SQL frontend for the SPJG subset, a catalog with the four constraint kinds, a bag-semantics
execution engine, a TPC-H data generator and synthetic statistics, a
cost-based optimizer with an integrated view-matching rule, the Section 5
random workload generator, and the experiment harness regenerating
Figures 2-4.

Quickstart::

    from repro import tpch_catalog, ViewMatcher

    catalog = tpch_catalog()
    matcher = ViewMatcher(catalog)
    matcher.register_view("v1", catalog.bind_sql(
        "select l_orderkey, l_partkey, l_quantity from lineitem, orders "
        "where l_orderkey = o_orderkey and l_partkey >= 100"))
    for match in matcher.match_sql(
        "select l_orderkey, l_quantity from lineitem, orders "
        "where l_orderkey = o_orderkey and l_partkey >= 150 "
        "and l_partkey <= 300"):
        print(match.view.name, "->", match.substitute)
"""

from .cdc import (
    CdcPipeline,
    ChangeApplier,
    ChangeLog,
    ChangeRecord,
    FreshnessTracker,
    MaintainedView,
    StalenessBound,
    ViewFreshness,
)
from .catalog import (
    Catalog,
    CheckConstraint,
    Column,
    ColumnType,
    ForeignKey,
    Table,
    ViewDefinition,
    tpch_catalog,
)
from .core import (
    DEFAULT_OPTIONS,
    FilterTree,
    MatchOptions,
    MatchResult,
    RejectReason,
    SpjgDescription,
    ViewMatcher,
    describe,
    match_view,
)
from .datagen import generate_tpch
from .difftest import (
    CdcDifftestConfig,
    CdcDifftestReport,
    DifftestConfig,
    DifftestReport,
    run_cdc_difftest,
    run_corpus_case,
    run_difftest,
)
from .engine import Database, QueryResult, execute, materialize_view, run_sql
from .errors import (
    BindError,
    CatalogError,
    ExecutionError,
    MatchError,
    ReproError,
    SqlSyntaxError,
    UnsupportedSqlError,
)
from .experiments import ExperimentConfig, ExperimentHarness
from .optimizer import Optimizer, OptimizerConfig, describe_plan, plan_result
from .service import (
    CatalogSnapshot,
    RewriteCache,
    ServedResult,
    SnapshotManager,
    ViewServer,
    statement_fingerprint,
)
from .sql import parse_select, parse_view, statement_to_sql
from .stats import CardinalityEstimator, DatabaseStats, synthetic_tpch_stats
from .workload import WorkloadGenerator, WorkloadParameters

__version__ = "1.0.0"

__all__ = [
    "BindError",
    "CdcDifftestConfig",
    "CdcDifftestReport",
    "CdcPipeline",
    "ChangeApplier",
    "ChangeLog",
    "ChangeRecord",
    "FreshnessTracker",
    "StalenessBound",
    "ViewFreshness",
    "Catalog",
    "CatalogError",
    "CardinalityEstimator",
    "CatalogSnapshot",
    "CheckConstraint",
    "Column",
    "ColumnType",
    "DEFAULT_OPTIONS",
    "Database",
    "DatabaseStats",
    "DifftestConfig",
    "DifftestReport",
    "ExecutionError",
    "ExperimentConfig",
    "ExperimentHarness",
    "FilterTree",
    "ForeignKey",
    "MatchError",
    "MatchOptions",
    "MatchResult",
    "MaintainedView",
    "Optimizer",
    "OptimizerConfig",
    "QueryResult",
    "RejectReason",
    "ReproError",
    "RewriteCache",
    "ServedResult",
    "SnapshotManager",
    "SpjgDescription",
    "SqlSyntaxError",
    "Table",
    "UnsupportedSqlError",
    "ViewDefinition",
    "ViewMatcher",
    "ViewServer",
    "WorkloadGenerator",
    "WorkloadParameters",
    "describe",
    "describe_plan",
    "execute",
    "generate_tpch",
    "match_view",
    "materialize_view",
    "parse_select",
    "parse_view",
    "plan_result",
    "run_cdc_difftest",
    "run_corpus_case",
    "run_difftest",
    "run_sql",
    "statement_fingerprint",
    "statement_to_sql",
    "synthetic_tpch_stats",
    "tpch_catalog",
]
