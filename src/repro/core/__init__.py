"""The paper's core contribution: view matching and the filter tree."""

from .describe import SpjgDescription, describe, validate_view_description
from .equivalence import ColumnKey, EquivalenceClasses
from .filtertree import FilterTree, QueryProbe, RegisteredView
from .fkgraph import FkEdge, build_fk_join_graph, compute_hub, eliminate_tables
from .interning import KeyInterner
from .intervalsets import IntervalSet, OrRangePredicate, as_or_range
from .lattice import LatticeIndex, LatticeNode
from .matcher import MatcherStatistics, ViewMatcher, matcher_for_catalog
from .matching import MatchResult, RejectReason, ViewRecord, match_view
from .normalize import ClassifiedPredicate, classify_predicate, to_cnf
from .options import DEFAULT_OPTIONS, MatchOptions
from .ranges import Bound, Interval, RangePredicate, as_range_predicate, derive_ranges
from .residual import ShallowForm, match_residuals
from .unions import UnionSubstitute, find_union_substitutes

__all__ = [
    "Bound",
    "ClassifiedPredicate",
    "ColumnKey",
    "DEFAULT_OPTIONS",
    "EquivalenceClasses",
    "FilterTree",
    "FkEdge",
    "Interval",
    "IntervalSet",
    "KeyInterner",
    "OrRangePredicate",
    "as_or_range",
    "LatticeIndex",
    "LatticeNode",
    "MatchOptions",
    "MatchResult",
    "MatcherStatistics",
    "QueryProbe",
    "RangePredicate",
    "RegisteredView",
    "RejectReason",
    "ShallowForm",
    "SpjgDescription",
    "UnionSubstitute",
    "ViewRecord",
    "ViewMatcher",
    "as_range_predicate",
    "build_fk_join_graph",
    "classify_predicate",
    "compute_hub",
    "derive_ranges",
    "describe",
    "eliminate_tables",
    "find_union_substitutes",
    "match_residuals",
    "match_view",
    "matcher_for_catalog",
    "to_cnf",
    "validate_view_description",
]
