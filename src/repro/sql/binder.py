"""Name resolution: rewrite every column reference to a canonical form.

After binding, every :class:`ColumnRef` carries the *base table name* of its
defining table (aliases and schema qualifiers are resolved away), so that
structural equality of references means identity of columns. The paper's
algorithm assumes this canonical form throughout — equivalence classes and
all lattice-index keys are sets of (table, column) pairs.

The binder also validates the statement against the supported SPJG class:
each base table may appear at most once in the FROM clause (the class of
indexable views; the random workloads of Section 5 satisfy this too).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Protocol, Sequence

from ..errors import BindError, UnsupportedSqlError
from .expressions import ColumnRef, Expression
from .statements import CreateViewStatement, SelectItem, SelectStatement, TableRef


class SchemaProvider(Protocol):
    """The slice of a catalog the binder needs.

    Bound leaves come from the provider, so a provider with a fixed
    schema can hand every statement the same ``ColumnRef`` / ``TableRef``
    objects (:class:`repro.catalog.Catalog` does).
    """

    def has_table(self, name: str) -> bool: ...

    def column_names(self, table: str) -> Sequence[str]: ...

    def table_ref(self, name: str) -> TableRef:
        """The canonical FROM entry of a table the provider has."""
        ...

    def column_ref(self, table: str, column: str) -> ColumnRef | None:
        """The bound reference to ``table.column``; ``None`` when a table
        the provider has lacks that column."""
        ...


def bind_statement(
    statement: SelectStatement, schema: SchemaProvider
) -> SelectStatement:
    """Return a copy of ``statement`` with all column references bound.

    Raises :class:`BindError` for unknown tables/columns or ambiguous
    unqualified references, and :class:`UnsupportedSqlError` when a base
    table appears more than once (self-joins are outside the view class).
    """
    alias_to_table: dict[str, str] = {}
    seen_tables: set[str] = set()
    bound_tables: list[TableRef] = []
    for ref in statement.from_tables:
        if not schema.has_table(ref.name):
            raise BindError(f"unknown table: {ref.name}")
        if ref.name in seen_tables:
            raise UnsupportedSqlError(
                f"table {ref.name} referenced more than once; "
                "self-joins are outside the supported view class"
            )
        seen_tables.add(ref.name)
        binding = ref.binding_name
        if binding in alias_to_table:
            raise BindError(f"duplicate table alias: {binding}")
        alias_to_table[binding] = ref.name
        # Canonical form drops the schema qualifier and the alias; column
        # references are rewritten to the base table name below.
        bound_tables.append(schema.table_ref(ref.name))

    # Owners of each column name, for unqualified references; built when
    # the first one turns up.
    column_owner: dict[str, list[str]] = {}

    def bind_ref(ref: ColumnRef) -> ColumnRef:
        if ref.table is not None:
            table = alias_to_table.get(ref.table)
            if table is None:
                # Permit direct use of the base table name even when aliased
                # away, mirroring SQL Server's behaviour for schema-qualified
                # references.
                if ref.table in seen_tables:
                    table = ref.table
                else:
                    raise BindError(f"unknown table or alias: {ref.table}")
            bound = schema.column_ref(table, ref.column)
            if bound is None:
                raise BindError(f"unknown column: {table}.{ref.column}")
            return bound
        if not column_owner:
            for table in seen_tables:
                for column in schema.column_names(table):
                    column_owner.setdefault(column, []).append(table)
        owners = column_owner.get(ref.column, [])
        if not owners:
            raise BindError(f"unknown column: {ref.column}")
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {ref.column}: in tables {sorted(owners)}"
            )
        bound = schema.column_ref(owners[0], ref.column)
        assert bound is not None
        return bound

    def bind_node(node: Expression) -> Expression:
        return bind_ref(node) if type(node) is ColumnRef else node

    def bind_expr(expression: Expression) -> Expression:
        if type(expression) is ColumnRef:
            return bind_ref(expression)
        return expression.transform(bind_node)

    return SelectStatement(
        select_items=tuple(
            SelectItem(bind_expr(item.expression), item.alias)
            for item in statement.select_items
        ),
        from_tables=tuple(bound_tables),
        where=bind_expr(statement.where) if statement.where is not None else None,
        group_by=tuple(bind_expr(expr) for expr in statement.group_by),
        distinct=statement.distinct,
    )


def bind_view(
    statement: CreateViewStatement, schema: SchemaProvider
) -> CreateViewStatement:
    """Bind a CREATE VIEW's inner query."""
    return replace(statement, query=bind_statement(statement.query, schema))
