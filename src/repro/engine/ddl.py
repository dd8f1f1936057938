"""DDL execution: apply CREATE VIEW / CREATE INDEX statements.

Ties the SQL frontend to the engine so the paper's Example 1 runs
verbatim: ``create view ... with schemabinding``, then ``create unique
clustered index`` (which materializes the view), then secondary indexes.
"""

from __future__ import annotations

from ..catalog.catalog import Catalog
from ..errors import ExecutionError
from ..sql.binder import bind_statement
from ..sql.expressions import ColumnRef
from ..sql.parser import parse
from ..sql.statements import (
    CreateIndexStatement,
    CreateViewStatement,
    SelectStatement,
    TableRef,
)
from .database import Database
from .executor import QueryResult, execute, materialize_view


class _CatalogWithViews:
    """Schema provider resolving both base tables and materialized views.

    Lets ``run_sql`` execute ``SELECT ... FROM v1`` directly over a
    materialized view (SQL Server's NOEXPAND-style access).
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog

    def has_table(self, name: str) -> bool:
        return self._catalog.has_table(name) or self._catalog.has_view(name)

    def column_names(self, table: str):
        if self._catalog.has_table(table):
            return self._catalog.column_names(table)
        view = self._catalog.view(table)
        return [item.name for item in view.query.select_items]

    def table_ref(self, name: str) -> TableRef:
        if self._catalog.has_table(name):
            return self._catalog.table_ref(name)
        return TableRef(name=name)

    def column_ref(self, table: str, column: str) -> ColumnRef | None:
        if self._catalog.has_table(table):
            return self._catalog.column_ref(table, column)
        # A view's outputs are not schema: nothing shares their references.
        if column in self.column_names(table):
            return ColumnRef(table, column)
        return None


def run_sql(text: str, catalog: Catalog, database: Database):
    """Execute one statement of any supported kind.

    * ``SELECT`` -- bound and executed, returns a :class:`QueryResult`;
    * ``CREATE VIEW`` -- registered in the catalog (definition only;
      SQL Server semantics: the view is materialized by its clustered
      index, not by CREATE VIEW), returns the view definition;
    * ``CREATE INDEX`` -- creates the stored index; a *clustered* index on
      a view whose data is not stored yet materializes the view first,
      exactly like SQL Server 2000. Returns the index.
    """
    statement = parse(text)
    if isinstance(statement, SelectStatement):
        return execute(bind_statement(statement, _CatalogWithViews(catalog)), database)
    if isinstance(statement, CreateViewStatement):
        return catalog.add_view(statement)
    assert isinstance(statement, CreateIndexStatement)
    relation = statement.relation
    if not database.has(relation):
        if catalog.has_view(relation):
            if not statement.clustered:
                raise ExecutionError(
                    f"view {relation} must be materialized by a clustered "
                    "index before secondary indexes can be created"
                )
            materialize_view(relation, catalog.view(relation).query, database)
        else:
            raise ExecutionError(f"no relation named {relation}")
    return database.indexes.create(
        statement.name,
        relation,
        statement.columns,
        unique=statement.unique,
    )
