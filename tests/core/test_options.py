"""Tests for the paper's cheap extensions, which are always on."""

import pytest

from repro.catalog import (
    Catalog,
    CheckConstraint,
    Column,
    ColumnType,
    Table,
)
from repro.core import RejectReason, describe, match_view
from repro.sql import parse_predicate, statement_to_sql


@pytest.fixture()
def checked_catalog():
    """A catalog whose table declares check constraints."""
    cat = Catalog()
    cat.add_table(
        Table(
            name="sales",
            columns=(
                Column("id"),
                Column("amount", ColumnType.FLOAT),
                Column("region", ColumnType.STRING),
            ),
            primary_key=("id",),
            check_constraints=(
                CheckConstraint(
                    "amount_positive",
                    parse_predicate("sales.amount >= 0"),
                ),
                CheckConstraint(
                    "region_known",
                    parse_predicate("sales.region in ('na', 'eu', 'ap')"),
                ),
            ),
        )
    )
    return cat


def match(catalog, view_sql, query_sql):
    view = describe(catalog.bind_sql(view_sql), catalog, name="v")
    query = describe(catalog.bind_sql(query_sql), catalog)
    return match_view(query, view)


class TestCheckConstraints:
    VIEW = "select id as i, amount as a from sales where amount >= 0"

    def test_accepted_with_extension(self, checked_catalog):
        result = match(checked_catalog, self.VIEW, "select id from sales")
        assert result.matched

    def test_check_range_does_not_over_accept(self, checked_catalog):
        # The view demands amount >= 10; the check only guarantees >= 0.
        result = match(
            checked_catalog,
            "select id as i from sales where amount >= 10",
            "select id from sales",
        )
        assert result.reject_reason is RejectReason.RANGE

    def test_check_residual_satisfies_view_residual(self, checked_catalog):
        result = match(
            checked_catalog,
            "select id as i from sales where region in ('na', 'eu', 'ap')",
            "select id from sales",
        )
        assert result.matched
        # No compensation is applied for check-implied predicates.
        assert result.substitute.where is None

    def test_check_constraints_not_compensated(self, checked_catalog):
        result = match(
            checked_catalog,
            self.VIEW,
            "select id from sales where id > 5",
        )
        assert result.matched
        text = statement_to_sql(result.substitute)
        assert "amount" not in text  # only the id predicate is compensated
        assert "(v.i > 5)" in text


class TestComplexExpressionMapping:
    def test_predicate_over_precomputed_expression(self, catalog):
        view_sql = (
            "select l_orderkey as k, l_quantity * l_extendedprice as rev "
            "from lineitem"
        )
        query_sql = (
            "select l_orderkey from lineitem "
            "where l_quantity * l_extendedprice > 100"
        )
        accepted = match(catalog, view_sql, query_sql)
        assert accepted.matched
        assert "(v.rev > 100)" in statement_to_sql(accepted.substitute)

    def test_subexpression_inside_output(self, catalog):
        view_sql = (
            "select l_orderkey as k, l_quantity * l_extendedprice as rev "
            "from lineitem"
        )
        query_sql = (
            "select (l_quantity * l_extendedprice) + 1 from lineitem"
        )
        accepted = match(catalog, view_sql, query_sql)
        assert accepted.matched
        assert "(v.rev + 1)" in statement_to_sql(accepted.substitute)
