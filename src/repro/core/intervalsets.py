"""Interval sets: disjunctions of ranges (the paper's OR extension).

Section 3.1.2: "This range coverage algorithm can be extended to support
disjunctions (OR) of range predicates. ... Our prototype does not support
disjunctions." This module supplies that extension: an
:class:`IntervalSet` is a normalized union of disjoint intervals, and
:func:`as_or_range` recognises the predicate shapes that produce one --
``a < 5 OR a > 10 [OR a = 7]`` and ``a IN (1, 2, 3)`` -- on a single
column.

Containment is tested interval-by-interval: a query interval must lie
inside a *single* view interval. Over dense domains this is exact; over
integer domains a query interval could in principle bridge a gap whose
missing points are unrepresentable (e.g. view ``[1,2] u [3,4]`` vs query
``[1,4]``), which this test conservatively rejects -- in keeping with the
paper's speed-over-completeness trade-offs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sql.expressions import (
    ColumnRef,
    Expression,
    InList,
    Literal,
    Or,
)
from .equivalence import ColumnKey
from .ranges import Bound, Interval, as_range_predicate


@dataclass(frozen=True, slots=True)
class IntervalSet:
    """A normalized union of disjoint, non-empty intervals.

    ``intervals == ()`` means the empty set; use :data:`UNBOUNDED_SET` for
    the full line.
    """

    intervals: tuple[Interval, ...]

    @classmethod
    def of(cls, intervals) -> "IntervalSet":
        """Normalize: drop empties, sort, merge overlapping intervals."""
        candidates = [i for i in intervals if not i.is_empty]
        if len(candidates) < 2:
            return cls(intervals=tuple(candidates))
        candidates.sort(key=_lower_sort_key)
        merged: list[Interval] = []
        for interval in candidates:
            if merged and _overlaps_or_touches(merged[-1], interval):
                merged[-1] = _merge(merged[-1], interval)
            else:
                merged.append(interval)
        return cls(intervals=tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_unbounded(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0].is_unbounded

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # The full line is the identity: intersecting with it would only
        # re-normalize the other (already normalized) operand.
        if self is UNBOUNDED_SET:
            return other
        if other is UNBOUNDED_SET:
            return self
        pieces = [
            mine.intersect(theirs)
            for mine in self.intervals
            for theirs in other.intervals
        ]
        return IntervalSet.of(pieces)

    def contains(self, other: "IntervalSet") -> bool:
        """True when every interval of ``other`` fits in one of ours."""
        return all(
            any(mine.contains(theirs) for mine in self.intervals)
            for theirs in other.intervals
        )

    def contains_value(self, value: object) -> bool:
        return any(interval.contains_value(value) for interval in self.intervals)

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        return " u ".join(str(i) for i in self.intervals)


UNBOUNDED_SET = IntervalSet(intervals=(Interval(),))


def _lower_sort_key(interval: Interval):
    if interval.lower is None:
        return (0, 0, 0)
    return (1, interval.lower.value, not interval.lower.inclusive)


def _overlaps_or_touches(left: Interval, right: Interval) -> bool:
    """After sorting by lower bound: does ``right`` start inside ``left``?"""
    if left.upper is None:
        return True
    if right.lower is None:
        return True
    try:
        if right.lower.value < left.upper.value:
            return True
        if right.lower.value > left.upper.value:
            return False
    except TypeError:
        return False
    # Equal boundary values: they touch when at least one side is closed.
    return left.upper.inclusive or right.lower.inclusive


def _merge(left: Interval, right: Interval) -> Interval:
    upper: Bound | None
    if left.upper is None or right.upper is None:
        upper = None
    else:
        try:
            if left.upper.value > right.upper.value:
                upper = left.upper
            elif right.upper.value > left.upper.value:
                upper = right.upper
            else:
                upper = left.upper if left.upper.inclusive else right.upper
        except TypeError:
            upper = left.upper
    return Interval(lower=left.lower, upper=upper)


@dataclass(frozen=True, slots=True)
class OrRangePredicate:
    """A recognised disjunctive range conjunct on a single column."""

    column: ColumnKey
    interval_set: IntervalSet
    expression: Expression  # the original conjunct, for compensation


def as_or_range(conjunct: Expression) -> OrRangePredicate | None:
    """Recognise ``col op c OR col op c' OR ...`` and ``col IN (...)``.

    All disjuncts must be range predicates over the *same* column; IN lists
    must be non-negated with non-null literal members. Returns None for
    anything else (the conjunct then stays a residual predicate).
    """
    if isinstance(conjunct, InList):
        if conjunct.negated or not isinstance(conjunct.operand, ColumnRef):
            return None
        points = []
        for item in conjunct.items:
            if not isinstance(item, Literal) or item.value is None:
                return None
            bound = Bound(item.value, inclusive=True)
            points.append(Interval(lower=bound, upper=bound))
        return OrRangePredicate(
            column=conjunct.operand.key,
            interval_set=IntervalSet.of(points),
            expression=conjunct,
        )
    if not isinstance(conjunct, Or):
        return None
    column: ColumnKey | None = None
    intervals = []
    for disjunct in conjunct.disjuncts:
        range_predicate = as_range_predicate(disjunct)
        if range_predicate is None:
            return None
        if column is None:
            column = range_predicate.column
        elif column != range_predicate.column:
            return None
        intervals.append(range_predicate.interval())
    assert column is not None
    return OrRangePredicate(
        column=column,
        interval_set=IntervalSet.of(intervals),
        expression=conjunct,
    )
