"""Matching options: paper-prototype defaults plus documented extensions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MatchOptions:
    """Switches for the optional refinements the paper describes.

    The defaults reproduce the behaviour of the paper's prototype; each
    flag enables one extension the paper discusses but did not implement.

    ``use_check_constraints``
        Fold declared check constraints into the implication antecedent
        (Section 3.1.2, "Check constraints can be readily incorporated").

    ``allow_null_rejecting_fk``
        Accept a nullable foreign-key column in a cardinality-preserving
        join when the query carries a null-rejecting predicate on that
        column (end of Section 3.2).

    ``map_complex_expressions``
        When mapping a compensating predicate, accept a view output column
        whose defining expression matches a *sub*-requirement even when the
        raw source columns are not exposed (Section 3.1.3 notes the
        prototype "ignores this possibility").

    ``allow_backjoins``
        When a (non-aggregation) view provides all required rows but lacks
        some required columns, join the view back to the base table that
        owns them on one of its unique keys (Section 7: "base table
        backjoins cover the case when a view contains all tables and rows
        needed but some columns are missing"). Substitutes may then
        reference the view plus base tables.

    ``support_or_ranges``
        Treat disjunctions of range predicates on one column -- including
        IN lists -- as interval sets in the range subsumption test
        (Section 3.1.2: "This range coverage algorithm can be extended to
        support disjunctions (OR)... Our prototype does not support
        disjunctions").

    ``hub_refinement``
        Keep a table in the hub when a trivial-class column of it carries a
        range or residual predicate (Section 4.2.2's improvement). On by
        default -- it is part of the paper's design -- but automatically
        disabled when ``use_check_constraints`` is set, because a check
        constraint can satisfy a view predicate the refinement assumes must
        come from the query.
    """

    use_check_constraints: bool = False
    allow_null_rejecting_fk: bool = False
    map_complex_expressions: bool = False
    support_or_ranges: bool = False
    allow_backjoins: bool = False
    hub_refinement: bool = True

    @property
    def effective_hub_refinement(self) -> bool:
        return self.hub_refinement and not self.use_check_constraints


DEFAULT_OPTIONS = MatchOptions()
