"""Cardinality and selectivity estimation (System-R style).

The estimator assumes predicate independence and uniform value
distributions, using the classic formulas:

* equijoin ``A = B``: selectivity ``1 / max(distinct(A), distinct(B))``,
* equality with a constant: ``1 / distinct``,
* range with a constant: the covered fraction of the column's domain,
* LIKE and other residuals: fixed default selectivities,
* group-by: output is ``min(input, product of per-class distinct counts)``.

This is deliberately simple -- it is the substrate under the paper's
workload generator ("range predicates were added ... until the estimated
cardinality ... was within 25-75% of the largest table") and under the
cost-based choice among substitutes.
"""

from __future__ import annotations

from ..core.describe import SpjgDescription
from ..core.equivalence import ColumnKey
from ..core.ranges import Interval
from ..sql.expressions import (
    BinaryOp,
    Expression,
    InList,
    IsNull,
    LikePredicate,
    Not,
    Or,
)
from .statistics import ColumnStats, DatabaseStats

DEFAULT_RESIDUAL_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.1
DEFAULT_NOT_EQUAL_SELECTIVITY = 0.9
MIN_SELECTIVITY = 1e-9


def equijoin_selectivity(left: ColumnStats, right: ColumnStats) -> float:
    """Classic System-R equijoin selectivity: 1 / max(distinct counts)."""
    return 1.0 / max(left.distinct, right.distinct, 1)


def range_selectivity(stats: ColumnStats, interval: Interval) -> float:
    """Fraction of the column domain covered by the interval."""
    if interval.is_empty:
        return MIN_SELECTIVITY
    if interval.is_point:
        return 1.0 / max(stats.distinct, 1)
    width = stats.width
    if width is None or width <= 0:
        # Non-numeric or single-valued domain: fall back to a guess per bound.
        bounds = (interval.lower is not None) + (interval.upper is not None)
        return max(MIN_SELECTIVITY, 0.3 ** bounds)
    low = float(stats.minimum) if interval.lower is None else float(interval.lower.value)  # type: ignore[arg-type]
    high = float(stats.maximum) if interval.upper is None else float(interval.upper.value)  # type: ignore[arg-type]
    low = max(low, float(stats.minimum))  # type: ignore[arg-type]
    high = min(high, float(stats.maximum))  # type: ignore[arg-type]
    if high <= low:
        return MIN_SELECTIVITY
    return max(MIN_SELECTIVITY, min(1.0, (high - low) / width))


def residual_selectivity(conjunct: Expression) -> float:
    """Default selectivity of a residual conjunct (LIKE, IN, <>, OR, ...)."""
    if isinstance(conjunct, LikePredicate):
        selectivity = DEFAULT_LIKE_SELECTIVITY
        return 1.0 - selectivity if conjunct.negated else selectivity
    if isinstance(conjunct, IsNull):
        return 0.1 if not conjunct.negated else 0.9
    if isinstance(conjunct, InList):
        selectivity = min(1.0, 0.05 * len(conjunct.items))
        return 1.0 - selectivity if conjunct.negated else selectivity
    if isinstance(conjunct, Not):
        return 1.0 - residual_selectivity(conjunct.operand)
    if isinstance(conjunct, Or):
        miss = 1.0
        for part in conjunct.disjuncts:
            miss *= 1.0 - residual_selectivity(part)
        return 1.0 - miss
    if isinstance(conjunct, BinaryOp) and conjunct.op == "<>":
        return DEFAULT_NOT_EQUAL_SELECTIVITY
    return DEFAULT_RESIDUAL_SELECTIVITY


class CardinalityEstimator:
    """Estimates row counts for SPJG descriptions against fixed statistics."""

    def __init__(self, stats: DatabaseStats):
        self.stats = stats

    def column_stats(self, key: ColumnKey) -> ColumnStats:
        return self.stats.column(key[0], key[1])

    def _request_memo(self, description: SpjgDescription) -> tuple[dict, dict]:
        """``(column stats by key, residual selectivity by conjunct id)``.

        Kept on the request's analysis, so the blocks of one request look
        each column and residual up once; a description with no analysis
        (a registered view, estimated once) gets fresh dicts. Conjunct ids
        are stable because the analysis holds every conjunct it numbers.
        """
        analysis = description.analysis
        if analysis is None:
            return {}, {}
        memo = analysis.estimates
        if memo is None or memo[0] is not self.stats:
            memo = analysis.estimates = (self.stats, {}, {})
        return memo[1], memo[2]

    def spj_cardinality(self, description: SpjgDescription) -> float:
        """Estimated cardinality of the SPJ part (before any group-by)."""
        stats = self.stats
        cardinality = 1.0
        for table in description.tables:
            cardinality *= max(1, stats.row_count(table))
        columns, residuals = self._request_memo(description)

        def column(key: ColumnKey) -> ColumnStats:
            found = columns.get(key)
            if found is None:
                found = columns[key] = stats.column(key[0], key[1])
            return found

        merging_equalities, ranges, residual_conjuncts = (
            description.cardinality_terms()
        )
        # Column-equality predicates: each merge of two classes applies one
        # equijoin selectivity, so redundant equalities are free --
        # matching how the equivalence classes themselves are built.
        for a, b in merging_equalities:
            cardinality *= equijoin_selectivity(column(a), column(b))
        for representative, interval in ranges.items():
            cardinality *= range_selectivity(column(representative), interval)
        for conjunct in residual_conjuncts:
            selectivity = residuals.get(id(conjunct))
            if selectivity is None:
                selectivity = residuals[id(conjunct)] = residual_selectivity(
                    conjunct
                )
            cardinality *= selectivity
        return max(cardinality, 0.0)

    def group_count(self, description: SpjgDescription) -> float:
        """Estimated number of groups an aggregation produces."""
        spj = self.spj_cardinality(description)
        if not description.is_aggregate:
            return spj
        return self.group_rows(spj, description.statement.group_by)

    def group_rows(self, rows: float, group_by) -> float:
        """Estimated number of groups ``group_by`` forms over ``rows`` rows."""
        if not group_by:
            return 1.0
        distinct_product = 1.0
        for expr in group_by:
            refs = expr.column_refs()
            if refs:
                distinct_product *= max(
                    1, min(self.column_stats(ref.key).distinct for ref in refs)
                )
        return max(1.0, min(rows, distinct_product))

    def output_cardinality(self, description: SpjgDescription) -> float:
        """Rows the full SPJG expression is estimated to return."""
        if description.is_aggregate:
            return self.group_count(description)
        return self.spj_cardinality(description)

    def extent_rows(self, record) -> float:
        """:meth:`output_cardinality` of a registered view, from the
        inputs its :class:`~repro.core.matching.ViewRecord` compiled at
        registration: the same terms multiplied in the same order, so the
        estimate equals its description's bit for bit."""
        stats = self.stats
        cardinality = 1.0
        for table in record.tables:
            cardinality *= max(1, stats.row_count(table))
        column = self.column_stats
        for a, b in record.joins:
            cardinality *= equijoin_selectivity(column(a), column(b))
        columns = record.domain.columns
        for root, interval, _ in record.ranges:
            if interval is not None:
                cardinality *= range_selectivity(column(columns[root]), interval)
        for conjunct in record.residual_conjuncts:
            cardinality *= residual_selectivity(conjunct)
        cardinality = max(cardinality, 0.0)
        group_keys = record.group_keys
        if group_keys is None:
            return cardinality
        if not group_keys:
            return 1.0
        distinct_product = 1.0
        for keys in group_keys:
            if keys:
                distinct_product *= max(
                    1, min(column(key).distinct for key in keys)
                )
        return max(1.0, min(cardinality, distinct_product))
