"""The shallow residual-predicate matcher (Section 3.1.2, residual test).

An expression is represented by a text template with column references
omitted plus the ordered list of those references. Two expressions match
when the templates are string-equal and each pair of corresponding column
references lies in the same (query) equivalence class.

The same representation doubles for output-expression and grouping-
expression matching (Sections 3.1.4 and 3.3) and supplies the textual keys
of the filter tree's residual/output/grouping-expression levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sql.expressions import (
    QUERY_AGGREGATES,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    Literal,
)
from ..sql.printer import shallow_template
from .equivalence import EquivalenceClasses

if TYPE_CHECKING:
    from ..catalog.catalog import Catalog

#: Binary operators whose operands may be reordered without changing the
#: predicate's meaning. ``=`` and ``<>`` are symmetric comparisons; ``<``
#: and friends are handled upstream by mirroring, not here.
_COMMUTATIVE_OPS = frozenset({"+", "*", "=", "<>"})


def _operand_key(operand: Expression) -> tuple[int, str, tuple]:
    """Deterministic sort key for one commutative operand.

    Literals order last so ``a <> 5`` keeps its column-first orientation
    (matching the literal-right canonicalization of ``normalize``); ties
    between equal templates break on the referenced column keys.
    """
    template, refs = shallow_template(operand)
    return (
        1 if isinstance(operand, Literal) else 0,
        template,
        tuple(ref.key for ref in refs),
    )


def canonical_operand_order(expression: Expression) -> Expression:
    """Reorder commutative operands (``+ * = <>``) deterministically.

    ``a = b`` and ``b = a`` — and commutative arithmetic like ``a + b``
    vs. ``b + a`` — must produce identical shallow templates, or
    residual/output matching rejects views that differ only in operand
    order. The rewrite is bottom-up and purely syntactic; it never
    changes evaluation semantics.
    """

    def reorder(node: Expression) -> Expression:
        if (
            isinstance(node, BinaryOp)
            and node.op in _COMMUTATIVE_OPS
            and _operand_key(node.right) < _operand_key(node.left)
        ):
            return BinaryOp(node.op, node.right, node.left)
        return node

    return expression.transform(reorder)


def _schema_bounded(expression: Expression, catalog: "Catalog") -> bool:
    """Whether ``expression`` is a column of ``catalog`` or one aggregate
    over such a column or over ``*``."""
    if type(expression) is FuncCall and expression.name in QUERY_AGGREGATES:
        if expression.star:
            return True
        if len(expression.args) != 1:
            return False
        expression = expression.args[0]
    return (
        type(expression) is ColumnRef
        and catalog.column_ref(expression.table, expression.column) is not None
    )


@dataclass(frozen=True, slots=True)
class ShallowForm:
    """An expression's shallow-match representation."""

    template: str
    refs: tuple[ColumnRef, ...]
    expression: Expression

    @classmethod
    def of(cls, expression: Expression) -> "ShallowForm":
        template, refs = shallow_template(canonical_operand_order(expression))
        return cls(template=template, refs=refs, expression=expression)

    @classmethod
    def shared(cls, expression: Expression, catalog: "Catalog") -> "ShallowForm":
        """``of(expression)``, one per catalog where the schema bounds it.

        A bare column of ``catalog`` and a single aggregate over one (or
        over ``*``) are most of what views output, and there are at most
        (columns + 1) x (aggregate names + 1) of them: those forms are
        kept in ``catalog.shallow_forms`` and shared by every
        description. Anything else -- above all anything holding a
        literal, whose values are unbounded -- is derived afresh.
        """
        if not _schema_bounded(expression, catalog):
            return cls.of(expression)
        forms = catalog.shallow_forms
        form = forms.get(expression)
        if form is None:
            form = forms[expression] = cls.of(expression)
        return form

    def matches(self, other: "ShallowForm", eqclasses: EquivalenceClasses) -> bool:
        """Shallow equivalence under the given equivalence classes."""
        if self.template != other.template:
            return False
        if len(self.refs) != len(other.refs):
            return False
        for mine, theirs in zip(self.refs, other.refs):
            if mine.key == theirs.key:
                continue
            if mine.key not in eqclasses or theirs.key not in eqclasses:
                return False
            if not eqclasses.same_class(mine.key, theirs.key):
                return False
        return True


def match_residuals(
    view_residuals: tuple[ShallowForm, ...],
    query_residuals: tuple[ShallowForm, ...],
    eqclasses: EquivalenceClasses,
) -> tuple[bool, tuple[ShallowForm, ...]]:
    """Run the residual subsumption test.

    Returns ``(passed, missing)``: ``passed`` is False when some view
    residual matches no query residual (the view filters rows the query
    needs); ``missing`` lists the query residuals that matched no view
    residual and must therefore be enforced on top of the view.
    """
    matched_query: set[int] = set()
    for view_form in view_residuals:
        found = False
        for i, query_form in enumerate(query_residuals):
            if view_form.matches(query_form, eqclasses):
                matched_query.add(i)
                found = True
        if not found:
            return False, ()
    missing = tuple(
        form for i, form in enumerate(query_residuals) if i not in matched_query
    )
    return True, missing
