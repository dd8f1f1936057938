"""The random view/query generator of the paper's Section 5.

Views and queries are generated the same way, with different parameters:

* pick a starting table at random, then repeatedly join in an additional
  table through a foreign-key equijoin chosen at random among the FKs
  incident to the tables selected so far;
* add range predicates on randomly selected columns until the *estimated*
  cardinality of the SPJ part falls inside a target band -- 25-75 % of the
  largest selected table for views, 8-12 % for queries;
* select output columns at random;
* make a fraction of the statements (75 % in the paper) aggregation
  statements: a random subset of the output columns becomes the grouping
  list, every remaining numeric output column becomes a SUM argument, and
  views additionally output ``count_big(*)``.

Query table counts follow the paper's distribution: 40 % two tables, 20 %
three, 17 % four, 13 % five, 8 % six, 2 % seven.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..catalog.catalog import Catalog
from ..catalog.schema import ColumnType, ForeignKey
from ..core.describe import describe
from ..sql.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    Literal,
    conjunction,
)
from ..sql.statements import SelectItem, SelectStatement
from ..stats.estimator import CardinalityEstimator
from ..stats.statistics import DatabaseStats

QUERY_TABLE_COUNT_DISTRIBUTION: tuple[tuple[int, float], ...] = (
    (2, 0.40),
    (3, 0.20),
    (4, 0.17),
    (5, 0.13),
    (6, 0.08),
    (7, 0.02),
)


@dataclass(frozen=True)
class WorkloadParameters:
    """The knobs of the paper's parameter file.

    The paper's generator was driven by a parameter file giving "the
    frequency with which a table was chosen as the initial table, the
    frequency with which a foreign key was selected for a join, the
    frequency with which a column received a range predicate, and the
    frequency with which a column was chosen as an output column".
    Per-column weighting matters: range predicates must concentrate on a
    few hot columns (keys and dates, as in the paper's own examples) or
    views and queries essentially never constrain the same columns and no
    query is ever answerable from a view.
    """

    aggregation_fraction: float = 0.75
    output_column_probability: float = 0.7
    string_output_probability: float = 0.05
    grouping_column_probability: float = 0.7
    view_cardinality_band: tuple[float, float] = (0.5, 0.95)
    query_cardinality_band: tuple[float, float] = (0.08, 0.12)
    view_extra_join_probability: float = 0.72
    view_max_tables: int = 7
    max_range_predicates: int = 8
    hot_range_column_weight: int = 40

    @classmethod
    def paper_text(cls) -> "WorkloadParameters":
        """The literal Section 5 numbers, with uniform column choices.

        The defaults above are a *calibration* of the unpublished parameter
        file so that the published endpoints reproduce (Figure 4's
        saturation, substitutes/query growth). This preset instead applies
        the bands exactly as printed -- views within 25-75 % of the largest
        table, uniform range-column choice -- which, without the paper's
        per-column frequencies, produces far fewer view/query coincidences.
        Kept for transparency and for sensitivity experiments.
        """
        return cls(
            output_column_probability=0.25,
            string_output_probability=0.25,
            grouping_column_probability=0.5,
            view_cardinality_band=(0.25, 0.75),
            view_extra_join_probability=0.55,
            view_max_tables=5,
            hot_range_column_weight=1,
        )


@dataclass
class GeneratedStatement:
    """One generated view or query with its description-ready statement."""

    statement: SelectStatement
    tables: tuple[str, ...]
    is_aggregate: bool
    estimated_cardinality: float


class WorkloadGenerator:
    """Seeded generator reproducing the paper's random workload."""

    def __init__(
        self,
        catalog: Catalog,
        stats: DatabaseStats,
        seed: int = 0,
        parameters: WorkloadParameters | None = None,
    ):
        self.catalog = catalog
        self.stats = stats
        self.rng = random.Random(seed)
        self.parameters = parameters or WorkloadParameters()
        self.estimator = CardinalityEstimator(stats)
        self._joinable = self._build_join_edges()
        self._view_counter = 0

    def _column(self, table: str, column: str) -> ColumnRef:
        """The catalog's shared reference to ``table.column``: generated
        statements reuse the leaves the binder hands out, so a generated
        catalog costs its statements' inner nodes only."""
        reference = self.catalog.column_ref(table, column)
        if reference is None:
            raise KeyError(f"no column {table}.{column}")
        return reference

    # -- join topology -----------------------------------------------------

    def _build_join_edges(self) -> dict[str, list[tuple[str, ForeignKey]]]:
        """For every table, the FK joins incident to it (both directions)."""
        edges: dict[str, list[tuple[str, ForeignKey]]] = {
            table.name: [] for table in self.catalog.tables()
        }
        for table in self.catalog.tables():
            for fk in table.foreign_keys:
                # Stored once under each endpoint; the owning (child) table
                # is recoverable from the FK itself via table.name.
                edges[table.name].append((table.name, fk))
                edges[fk.parent_table].append((table.name, fk))
        return edges

    def _pick_tables(self, count: int) -> tuple[list[str], list[Expression]]:
        """Grow a connected table set of ``count`` tables via random FK joins."""
        for _ in range(64):
            start = self.rng.choice(sorted(self._joinable))
            tables = [start]
            predicates: list[Expression] = []
            while len(tables) < count:
                candidates = [
                    (child, fk)
                    for table in tables
                    for child, fk in self._joinable[table]
                    if (child not in tables) != (fk.parent_table not in tables)
                ]
                if not candidates:
                    break
                child, fk = self.rng.choice(candidates)
                new_table = child if child not in tables else fk.parent_table
                tables.append(new_table)
                for fk_column, parent_column in zip(fk.columns, fk.parent_columns):
                    predicates.append(
                        BinaryOp(
                            "=",
                            self._column(child, fk_column),
                            self._column(fk.parent_table, parent_column),
                        )
                    )
            if len(tables) == count:
                return tables, predicates
        raise RuntimeError(f"could not build a connected set of {count} tables")

    def _view_table_count(self) -> int:
        count = 1
        while (
            count < self.parameters.view_max_tables
            and self.rng.random() < self.parameters.view_extra_join_probability
        ):
            count += 1
        return count

    def _query_table_count(self) -> int:
        roll = self.rng.random()
        cumulative = 0.0
        for count, probability in QUERY_TABLE_COUNT_DISTRIBUTION:
            cumulative += probability
            if roll < cumulative:
                return count
        return QUERY_TABLE_COUNT_DISTRIBUTION[-1][0]

    # -- predicates -----------------------------------------------------------

    def _hot_columns(self, table: str) -> frozenset[str]:
        """Key and date columns: where realistic range predicates land."""
        definition = self.catalog.table(table)
        hot = set(definition.primary_key)
        for fk in definition.foreign_keys:
            hot.update(fk.columns)
        for column in definition.columns:
            if column.type is ColumnType.DATE:
                hot.add(column.name)
        return frozenset(hot)

    def _rangeable_columns(self, tables: list[str]) -> list[tuple[str, str]]:
        """Candidate range columns, hot columns repeated per their weight."""
        columns: list[tuple[str, str]] = []
        for table in tables:
            hot = self._hot_columns(table)
            for column in self.catalog.table(table).columns:
                if not column.type.is_numeric:
                    continue
                stats = self.stats.column(table, column.name)
                if not stats.width or stats.width <= 0:
                    continue
                weight = (
                    self.parameters.hot_range_column_weight
                    if column.name in hot
                    else 1
                )
                columns.extend([(table, column.name)] * weight)
        return columns

    def _range_predicate_for(
        self, table: str, column: str, fraction: float
    ) -> list[Expression]:
        """Build range conjuncts covering roughly ``fraction`` of the domain."""
        stats = self.stats.column(table, column)
        low = float(stats.minimum)  # type: ignore[arg-type]
        high = float(stats.maximum)  # type: ignore[arg-type]
        width = high - low
        fraction = min(1.0, max(1.0 / max(stats.distinct, 1), fraction))
        span = width * fraction
        start = self.rng.uniform(low, max(low, high - span))
        is_integer = isinstance(stats.minimum, int)
        lower_value: object = round(start) if is_integer else round(start, 2)
        upper_value: object = (
            round(start + span) if is_integer else round(start + span, 2)
        )
        reference = self._column(table, column)
        conjuncts: list[Expression] = [BinaryOp(">=", reference, Literal(lower_value))]
        # One-sided predicates happen when the span reaches the domain edge.
        if float(upper_value) < high:  # type: ignore[arg-type]
            conjuncts.append(BinaryOp("<=", reference, Literal(upper_value)))
        return conjuncts

    def _add_range_predicates(
        self,
        tables: list[str],
        join_predicates: list[Expression],
        band: tuple[float, float],
    ) -> tuple[list[Expression], float]:
        """Add range predicates until the estimate enters the band."""
        largest = self.stats.largest_table_rows(tables)
        low_target, high_target = band[0] * largest, band[1] * largest
        predicates = list(join_predicates)
        candidates = self._rangeable_columns(tables)
        self.rng.shuffle(candidates)

        def estimate(predicate_list: list[Expression]) -> float:
            statement = SelectStatement(
                select_items=(SelectItem(Literal(1)),),
                from_tables=tuple(map(self.catalog.table_ref, tables)),
                where=conjunction(predicate_list),
            )
            return self.estimator.spj_cardinality(
                describe(statement, self.catalog)
            )

        cardinality = estimate(predicates)
        attempts = 0
        while (
            cardinality > high_target
            and candidates
            and attempts < self.parameters.max_range_predicates
        ):
            attempts += 1
            table, column = candidates.pop()
            target = self.rng.uniform(low_target, high_target)
            fraction = min(1.0, max(1e-6, target / max(cardinality, 1.0)))
            trial = predicates + self._range_predicate_for(table, column, fraction)
            trial_cardinality = estimate(trial)
            if trial_cardinality >= low_target:
                predicates = trial
                cardinality = trial_cardinality
        return predicates, cardinality

    # -- outputs -----------------------------------------------------------------

    def _pick_output_columns(self, tables: list[str]) -> list[tuple[str, str]]:
        chosen: list[tuple[str, str]] = []
        for table in tables:
            for column in self.catalog.table(table).columns:
                probability = (
                    self.parameters.output_column_probability
                    if column.type.is_numeric
                    else self.parameters.string_output_probability
                )
                if self.rng.random() < probability:
                    chosen.append((table, column.name))
        if not chosen:
            table = self.rng.choice(tables)
            hot = sorted(self._hot_columns(table))
            chosen.append((table, self.rng.choice(hot)))
        return chosen

    def _is_numeric(self, table: str, column: str) -> bool:
        return self.catalog.table(table).column(column).type in (
            ColumnType.INTEGER,
            ColumnType.FLOAT,
        )

    # -- statement assembly ---------------------------------------------------------

    def _assemble(
        self,
        tables: list[str],
        predicates: list[Expression],
        aggregate: bool,
        for_view: bool,
        cardinality: float,
    ) -> GeneratedStatement:
        outputs = self._pick_output_columns(tables)
        if not aggregate:
            items = tuple(
                SelectItem(self._column(t, c), alias=c if for_view else None)
                for t, c in outputs
            )
            statement = SelectStatement(
                select_items=items,
                from_tables=tuple(map(self.catalog.table_ref, tables)),
                where=conjunction(predicates),
            )
            return GeneratedStatement(
                statement=statement,
                tables=tuple(tables),
                is_aggregate=False,
                estimated_cardinality=cardinality,
            )
        grouping = [
            (t, c)
            for t, c in outputs
            if self.rng.random() < self.parameters.grouping_column_probability
        ]
        if not grouping:
            grouping = [outputs[0]]
        sum_columns = [
            (t, c)
            for t, c in outputs
            if (t, c) not in grouping and self._is_numeric(t, c)
        ]
        items = [
            SelectItem(self._column(t, c), alias=c if for_view else None)
            for t, c in grouping
        ]
        for t, c in sum_columns:
            items.append(
                SelectItem(
                    FuncCall("sum", (self._column(t, c),)),
                    alias=f"sum_{c}" if for_view else None,
                )
            )
        if for_view:
            items.append(SelectItem(FuncCall("count_big", star=True), alias="cnt"))
        elif self.rng.random() < 0.5:
            items.append(SelectItem(FuncCall("count", star=True)))
        statement = SelectStatement(
            select_items=tuple(items),
            from_tables=tuple(map(self.catalog.table_ref, tables)),
            where=conjunction(predicates),
            group_by=tuple(self._column(t, c) for t, c in grouping),
        )
        return GeneratedStatement(
            statement=statement,
            tables=tuple(tables),
            is_aggregate=True,
            estimated_cardinality=cardinality,
        )

    # -- public API ---------------------------------------------------------------

    def generate_view(self) -> tuple[str, GeneratedStatement]:
        """Generate one named materialized-view definition."""
        tables, joins = self._pick_tables(self._view_table_count())
        predicates, cardinality = self._add_range_predicates(
            tables, joins, self.parameters.view_cardinality_band
        )
        aggregate = self.rng.random() < self.parameters.aggregation_fraction
        generated = self._assemble(
            tables, predicates, aggregate, for_view=True, cardinality=cardinality
        )
        self._view_counter += 1
        return f"mv{self._view_counter:05d}", generated

    def generate_query(self) -> GeneratedStatement:
        """Generate one query following the paper's distribution."""
        tables, joins = self._pick_tables(self._query_table_count())
        predicates, cardinality = self._add_range_predicates(
            tables, joins, self.parameters.query_cardinality_band
        )
        aggregate = self.rng.random() < self.parameters.aggregation_fraction
        return self._assemble(
            tables, predicates, aggregate, for_view=False, cardinality=cardinality
        )

    def generate_views(self, count: int) -> list[tuple[str, GeneratedStatement]]:
        return [self.generate_view() for _ in range(count)]

    def generate_queries(self, count: int) -> list[GeneratedStatement]:
        return [self.generate_query() for _ in range(count)]
