"""Matching options: the one switch that changes plans."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MatchOptions:
    """The matcher's one configurable behaviour.

    Everything else the paper describes is always on: check constraints
    in the implication antecedent and disjunctive (OR / IN) ranges
    (Section 3.1.2), compensating predicates mapped onto precomputed
    expression columns (Section 3.1.3), nullable foreign keys under a
    null-rejecting query predicate (Section 3.2) and the hub refinement
    (Section 4.2.2). None of them depends on an option, so view
    registration takes none; only a request reads this one.

    ``allow_backjoins``
        When a (non-aggregation) view provides all required rows but lacks
        some required columns, join the view back to the base table that
        owns them on one of its unique keys (Section 7: "base table
        backjoins cover the case when a view contains all tables and rows
        needed but some columns are missing"). Substitutes may then
        reference the view plus base tables, so plans change.
    """

    allow_backjoins: bool = False


DEFAULT_OPTIONS = MatchOptions()
