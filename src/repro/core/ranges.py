"""Interval algebra for the range subsumption test (Section 3.1.2).

Each equivalence class of a query or view gets one interval, derived by
intersecting all range predicates (``col op constant``) whose column falls
in the class. The range subsumption test then checks that every view
interval contains the corresponding query interval, and the differences in
bounds become compensating predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
)
from .equivalence import ColumnKey, EquivalenceClasses


@dataclass(frozen=True, slots=True)
class Bound:
    """One endpoint: a constant value and whether the endpoint is included."""

    value: object
    inclusive: bool

    def __str__(self) -> str:
        return f"{self.value}{'=' if self.inclusive else ''}"


@dataclass(frozen=True, slots=True)
class Interval:
    """A (possibly unbounded, possibly empty) interval over an ordered domain.

    ``lower is None`` / ``upper is None`` mean unbounded on that side. The
    interval is *empty* when the bounds contradict; emptiness is preserved
    rather than normalized away so compensating predicates can still be
    generated from the raw bounds.
    """

    lower: Bound | None = None
    upper: Bound | None = None

    @property
    def is_unbounded(self) -> bool:
        return self.lower is None and self.upper is None

    @property
    def is_point(self) -> bool:
        """True for a single-value interval such as the one ``A = c`` yields."""
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower.inclusive
            and self.upper.inclusive
            and self.lower.value == self.upper.value
        )

    @property
    def is_empty(self) -> bool:
        if self.lower is None or self.upper is None:
            return False
        lo, hi = self.lower, self.upper
        try:
            if lo.value > hi.value:  # type: ignore[operator]
                return True
            if lo.value == hi.value:
                return not (lo.inclusive and hi.inclusive)
        except TypeError:
            # Incomparable constants (mixed types) -- treat as non-empty;
            # the subsumption test below degrades to exact-bound matching.
            return False
        return False

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(
            lower=_tighter_lower(self.lower, other.lower),
            upper=_tighter_upper(self.upper, other.upper),
        )

    def contains(self, other: "Interval") -> bool:
        """True when every value in ``other`` lies in ``self``.

        An empty ``other`` is contained in anything (the query selects no
        rows, so any view supplies them all).
        """
        if other.is_empty:
            return True
        return _lower_covers(self.lower, other.lower) and _upper_covers(
            self.upper, other.upper
        )

    def contains_value(self, value: object) -> bool:
        """Membership test for a constant (used by null-rejection analysis)."""
        if value is None:
            return False
        if self.lower is not None:
            try:
                if value < self.lower.value:  # type: ignore[operator]
                    return False
                if value == self.lower.value and not self.lower.inclusive:
                    return False
            except TypeError:
                return False
        if self.upper is not None:
            try:
                if value > self.upper.value:  # type: ignore[operator]
                    return False
                if value == self.upper.value and not self.upper.inclusive:
                    return False
            except TypeError:
                return False
        return True

    def __str__(self) -> str:
        left = "(-inf" if self.lower is None else (
            f"[{self.lower.value}" if self.lower.inclusive else f"({self.lower.value}"
        )
        right = "+inf)" if self.upper is None else (
            f"{self.upper.value}]" if self.upper.inclusive else f"{self.upper.value})"
        )
        return f"{left}, {right}"


UNBOUNDED = Interval()


def _tighter_lower(a: Bound | None, b: Bound | None) -> Bound | None:
    if a is None:
        return b
    if b is None:
        return a
    try:
        if a.value > b.value:  # type: ignore[operator]
            return a
        if b.value > a.value:  # type: ignore[operator]
            return b
    except TypeError:
        return a  # incomparable: keep first (conservative)
    return a if not a.inclusive else b


def _tighter_upper(a: Bound | None, b: Bound | None) -> Bound | None:
    if a is None:
        return b
    if b is None:
        return a
    try:
        if a.value < b.value:  # type: ignore[operator]
            return a
        if b.value < a.value:  # type: ignore[operator]
            return b
    except TypeError:
        return a
    return a if not a.inclusive else b


def _lower_covers(outer: Bound | None, inner: Bound | None) -> bool:
    """True when the outer lower bound admits everything the inner one does."""
    if outer is None:
        return True
    if inner is None:
        return False
    try:
        if outer.value < inner.value:  # type: ignore[operator]
            return True
        if outer.value > inner.value:  # type: ignore[operator]
            return False
    except TypeError:
        return outer == inner
    return outer.inclusive or not inner.inclusive


def _upper_covers(outer: Bound | None, inner: Bound | None) -> bool:
    if outer is None:
        return True
    if inner is None:
        return False
    try:
        if outer.value > inner.value:  # type: ignore[operator]
            return True
        if outer.value < inner.value:  # type: ignore[operator]
            return False
    except TypeError:
        return outer == inner
    return outer.inclusive or not inner.inclusive


# ---------------------------------------------------------------------------
# Range-predicate recognition and interval derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RangePredicate:
    """A recognised atomic range conjunct: ``column op constant``."""

    column: ColumnKey
    op: str  # one of = < <= > >=
    value: object

    def interval(self) -> Interval:
        if self.op == "=":
            bound = Bound(self.value, inclusive=True)
            return Interval(lower=bound, upper=bound)
        if self.op in ("<", "<="):
            return Interval(upper=Bound(self.value, self.op == "<="))
        if self.op in (">", ">="):
            return Interval(lower=Bound(self.value, self.op == ">="))
        raise ValueError(f"not a range operator: {self.op}")


def as_range_predicate(conjunct: Expression) -> RangePredicate | None:
    """Recognise ``col op const`` / ``const op col`` (op in ``= < <= > >=``).

    Returns None when the conjunct is not a range predicate; ``<>`` is
    deliberately excluded (it is a residual predicate in the paper's
    classification).
    """
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in ("=", "<", "<=", ">", ">="):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        if right.value is None:
            return None  # comparisons with NULL select nothing; keep residual
        return RangePredicate(left.key, conjunct.op, right.value)
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        if left.value is None:
            return None
        mirrored = conjunct.mirrored()
        assert isinstance(mirrored.left, ColumnRef) and isinstance(mirrored.right, Literal)
        return RangePredicate(mirrored.left.key, mirrored.op, mirrored.right.value)
    return None


def derive_ranges(
    predicates: Iterable[RangePredicate], eqclasses: EquivalenceClasses
) -> dict[ColumnKey, Interval]:
    """Intersect range predicates per equivalence class.

    The result maps each class *representative* (``eqclasses.find``) to the
    intersection of the intervals of all range predicates on columns of that
    class. Classes without range predicates are absent (conceptually
    unbounded).
    """
    ranges: dict[ColumnKey, Interval] = {}
    for predicate in predicates:
        representative = eqclasses.find(predicate.column)
        current = ranges.get(representative, UNBOUNDED)
        ranges[representative] = current.intersect(predicate.interval())
    return ranges


def compensating_range_conjuncts(
    view_interval: Interval, query_interval: Interval
) -> list[tuple[str, object]]:
    """The ``(op, constant)`` pairs that reduce the view range to the query's.

    Assumes containment already holds. A point query interval compensates
    with a single equality; otherwise each differing bound contributes one
    predicate. Bounds the view already enforces are skipped.
    """
    if query_interval.is_point:
        assert query_interval.lower is not None
        if view_interval.is_point:
            return []  # identical points (containment guaranteed the match)
        return [("=", query_interval.lower.value)]
    compensations: list[tuple[str, object]] = []
    if query_interval.lower is not None and query_interval.lower != view_interval.lower:
        op = ">=" if query_interval.lower.inclusive else ">"
        compensations.append((op, query_interval.lower.value))
    if query_interval.upper is not None and query_interval.upper != view_interval.upper:
        op = "<=" if query_interval.upper.inclusive else "<"
        compensations.append((op, query_interval.upper.value))
    return compensations
