"""The catalog: a registry of base tables, constraints and view definitions.

The catalog plays the role of SQL Server's metadata layer in the paper: the
binder resolves names against it, the matcher reads constraint metadata from
it, and materialized view definitions registered here are what the filter
tree indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..errors import CatalogError
from ..sql.binder import bind_statement
from ..sql.expressions import ColumnRef
from ..sql.parser import parse_select, parse_view
from ..sql.statements import CreateViewStatement, SelectStatement, TableRef
from .schema import ForeignKey, Table


@dataclass(frozen=True)
class ViewDefinition:
    """A registered materialized view: its name and bound SPJG query."""

    name: str
    query: SelectStatement

    @property
    def is_aggregate(self) -> bool:
        return self.query.is_aggregate


class Catalog:
    """Tables, constraints and materialized view definitions."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._views: dict[str, ViewDefinition] = {}
        # The bound leaves every statement bound against this catalog
        # shares: one TableRef per table, one ColumnRef per declared
        # column, made when the table is added -- the schema bounds them.
        # Literals are not shared; their values are unbounded.
        self._table_refs: dict[str, TableRef] = {}
        self._column_refs: dict[tuple[str, str], ColumnRef] = {}
        #: ``ShallowForm``s of expressions over those leaves alone; filled
        #: and bounded by :meth:`repro.core.residual.ShallowForm.shared`.
        self.shallow_forms: dict = {}

    # -- tables --------------------------------------------------------------

    def add_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name} already exists")
        for fk in table.foreign_keys:
            self._validate_foreign_key(table, fk)
        self._tables[table.name] = table
        self._table_refs[table.name] = TableRef(name=table.name)
        for column in table.column_names:
            self._column_refs[table.name, column] = ColumnRef.shared(
                table.name, column
            )

    def _validate_foreign_key(self, table: Table, fk: ForeignKey) -> None:
        parent = self._tables.get(fk.parent_table)
        if parent is None:
            raise CatalogError(
                f"FK on {table.name} references unknown table {fk.parent_table}"
            )
        if not parent.is_unique_key(fk.parent_columns):
            raise CatalogError(
                f"FK on {table.name} must target a unique key of "
                f"{fk.parent_table}; {fk.parent_columns} is not one"
            )

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name}") from None

    def tables(self) -> Iterator[Table]:
        yield from self._tables.values()

    def column_names(self, table: str) -> Sequence[str]:
        return self.table(table).column_names

    def table_ref(self, name: str) -> TableRef:
        """The shared canonical FROM entry of table ``name``."""
        return self._table_refs[name]

    def column_ref(self, table: str, column: str) -> ColumnRef | None:
        """The shared bound reference to ``table.column``, or ``None``
        when the table declares no such column."""
        return self._column_refs.get((table, column))

    # -- views ---------------------------------------------------------------

    def add_view(self, definition: CreateViewStatement | str) -> ViewDefinition:
        """Register a materialized view from a CREATE VIEW statement or text.

        The inner query is bound against this catalog; the definition must
        fall inside the indexable SPJG class (the binder and the matcher's
        validation enforce this).
        """
        if isinstance(definition, str):
            definition = parse_view(definition)
        if definition.name in self._views:
            raise CatalogError(f"view {definition.name} already exists")
        if definition.name in self._tables:
            raise CatalogError(f"{definition.name} clashes with a table name")
        bound = bind_statement(definition.query, self)
        view = ViewDefinition(name=definition.name, query=bound)
        self._views[definition.name] = view
        return view

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"no view named {name}")
        del self._views[name]

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> ViewDefinition:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"no view named {name}") from None

    def views(self) -> Iterator[ViewDefinition]:
        yield from self._views.values()

    @property
    def view_count(self) -> int:
        return len(self._views)

    # -- convenience -----------------------------------------------------------

    def bind_sql(self, sql: str) -> SelectStatement:
        """Parse and bind a SELECT statement against this catalog."""
        return bind_statement(parse_select(sql), self)

    def foreign_keys_between(self, child: str, parent: str) -> tuple[ForeignKey, ...]:
        """All FKs declared on ``child`` that reference ``parent``."""
        return tuple(
            fk for fk in self.table(child).foreign_keys if fk.parent_table == parent
        )
