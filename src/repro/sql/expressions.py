"""Scalar-expression AST for the SPJG SQL subset.

Expressions are immutable (frozen dataclasses) with structural equality and
hashing, which the view-matching core relies on: equivalence classes,
residual-predicate templates and output-expression lookup tables all key on
expression values.

The node set intentionally covers exactly what Goldstein & Larson's view
class needs: column references, literals, arithmetic, comparisons, boolean
connectives, LIKE / BETWEEN / IN / IS NULL predicates, and the aggregate
functions permitted in indexed views (SUM, COUNT, COUNT_BIG, AVG -- AVG only
in queries, where it is rewritten to SUM / COUNT_BIG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Sequence

# Comparison operators recognised as *range* predicate builders when one side
# is a constant, per Section 3.1.2 of the paper.
RANGE_OPERATORS = ("=", "<", "<=", ">", ">=")
COMPARISON_OPERATORS = RANGE_OPERATORS + ("<>",)
ARITHMETIC_OPERATORS = ("+", "-", "*", "/", "%")

# Aggregates allowed in materialized view definitions (count_big doubles as
# the required row counter) and in queries.
VIEW_AGGREGATES = ("sum", "count_big")
QUERY_AGGREGATES = ("sum", "count", "count_big", "avg")

_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Expression:
    """Base class for all scalar expressions."""

    def children(self) -> tuple["Expression", ...]:
        """Child expressions in deterministic (source) order."""
        return ()

    def with_children(self, children: Sequence["Expression"]) -> "Expression":
        """Rebuild this node with ``children`` substituted, preserving type."""
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def column_refs(self) -> tuple["ColumnRef", ...]:
        """All column references in the expression, in source order."""
        return tuple(node for node in self.walk() if isinstance(node, ColumnRef))

    def transform(self, fn: Callable[["Expression"], "Expression"]) -> "Expression":
        """Bottom-up rewrite: apply ``fn`` to every node, children first.

        A node none of whose children changed is passed to ``fn`` as it
        is, so a rewrite that touches nothing returns ``self`` and one
        that touches a leaf rebuilds only that leaf's ancestors.
        """
        children = self.children()
        rebuilt = [child.transform(fn) for child in children]
        for old, new in zip(children, rebuilt):
            if new is not old:
                return fn(self.with_children(rebuilt))
        return fn(self)

    def is_constant(self) -> bool:
        """True when the expression references no columns."""
        return not self.column_refs()

    def contains_aggregate(self) -> bool:
        """True when any descendant is an aggregate function call."""
        return any(isinstance(node, FuncCall) and node.is_aggregate() for node in self.walk())


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference.

    After binding, ``table`` always holds the *defining table's* name (the
    range variable), so two references to the same column compare equal
    regardless of how they were spelled in the source text.
    """

    table: str | None
    column: str
    # The ``key`` tuple of a reference made by :meth:`shared`; ``None``
    # (this class default, no per-instance storage) for every other one.
    _key: ClassVar[tuple[str, str] | None] = None

    @classmethod
    def shared(cls, table: str, column: str) -> "ColumnRef":
        """A bound reference whose ``key`` is built once, for the leaves a
        catalog owns and hands to every statement bound against it."""
        ref = cls(table, column)
        object.__setattr__(ref, "_key", (table, column))
        return ref

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column

    @property
    def key(self) -> tuple[str, str]:
        """Hashable (table, column) identity; requires a bound reference."""
        key = self._key
        if key is None:
            if self.table is None:
                raise ValueError(f"unbound column reference: {self.column}")
            return (self.table, self.column)
        return key

    def contains_aggregate(self) -> bool:
        return False  # a leaf: skips the generic walk on the hot path

    def column_refs(self) -> tuple["ColumnRef", ...]:
        return (self,)  # a leaf, as above


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: int, float, string, bool or NULL (``value is None``)."""

    value: object

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic (``+ - * / %``) or comparison (``= <> < <= > >=``)."""

    op: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expression]) -> "BinaryOp":
        left, right = children
        return BinaryOp(self.op, left, right)

    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPERATORS

    def mirrored(self) -> "BinaryOp":
        """Swap operands, flipping the operator: ``a < b`` -> ``b > a``."""
        if not self.is_comparison():
            raise ValueError(f"cannot mirror arithmetic operator {self.op!r}")
        return BinaryOp(_MIRROR[self.op], self.right, self.left)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryMinus(Expression):
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> "UnaryMinus":
        (operand,) = children
        return UnaryMinus(operand)

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction. Kept flat; ``conjuncts`` never contains ``And``."""

    conjuncts: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.conjuncts

    def with_children(self, children: Sequence[Expression]) -> "And":
        return And(tuple(children))

    def __str__(self) -> str:
        return "(" + " AND ".join(str(c) for c in self.conjuncts) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction. Kept flat; ``disjuncts`` never contains ``Or``."""

    disjuncts: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.disjuncts

    def with_children(self, children: Sequence[Expression]) -> "Or":
        return Or(tuple(children))

    def __str__(self) -> str:
        return "(" + " OR ".join(str(d) for d in self.disjuncts) + ")"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> "Not":
        (operand,) = children
        return Not(operand)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class FuncCall(Expression):
    """A function call; covers aggregates and scalar functions alike.

    ``star`` marks ``count(*)`` / ``count_big(*)``, which take no argument
    expressions.
    """

    name: str
    args: tuple[Expression, ...] = ()
    star: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def with_children(self, children: Sequence[Expression]) -> "FuncCall":
        return FuncCall(self.name, tuple(children), self.star)

    def is_aggregate(self) -> bool:
        return self.name in QUERY_AGGREGATES

    def __str__(self) -> str:
        inner = "*" if self.star else ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class LikePredicate(Expression):
    """``expr [NOT] LIKE 'pattern'`` with SQL ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> "LikePredicate":
        (operand,) = children
        return LikePredicate(operand, self.pattern, self.negated)

    def __str__(self) -> str:
        middle = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand} {middle} '{escaped}')"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expression]) -> "IsNull":
        (operand,) = children
        return IsNull(operand, self.negated)

    def __str__(self) -> str:
        middle = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {middle})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)`` with literal list members."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)

    def with_children(self, children: Sequence[Expression]) -> "InList":
        operand, *items = children
        return InList(operand, tuple(items), self.negated)

    def __str__(self) -> str:
        middle = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(i) for i in self.items)
        return f"({self.operand} {middle} ({inner}))"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def col(table: str | None, column: str | None = None) -> ColumnRef:
    """Shorthand constructor: ``col('t', 'c')`` or ``col('c')`` (unqualified)."""
    if column is None:
        return ColumnRef(None, table)  # type: ignore[arg-type]
    return ColumnRef(table, column)


def lit(value: object) -> Literal:
    """Shorthand constructor for a literal constant."""
    return Literal(value)


def conjunction(parts: Sequence[Expression]) -> Expression | None:
    """Combine conjuncts into a flat ``And`` (or the single part, or None)."""
    flat: list[Expression] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.conjuncts)
        else:
            flat.append(part)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjunction(parts: Sequence[Expression]) -> Expression | None:
    """Combine disjuncts into a flat ``Or`` (or the single part, or None)."""
    flat: list[Expression] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.disjuncts)
        else:
            flat.append(part)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def conjuncts_of(predicate: Expression | None) -> tuple[Expression, ...]:
    """The top-level conjuncts of a predicate (a non-And is one conjunct)."""
    if predicate is None:
        return ()
    if isinstance(predicate, And):
        return predicate.conjuncts
    return (predicate,)


def between(operand: Expression, low: Expression, high: Expression) -> Expression:
    """Desugar ``x BETWEEN lo AND hi`` into two range conjuncts."""
    return And((BinaryOp(">=", operand, low), BinaryOp("<=", operand, high)))


def substitute_columns(
    expression: Expression, mapping: dict[tuple[str, str], Expression]
) -> Expression:
    """Replace bound column references per ``mapping``; others unchanged."""

    def rewrite(node: Expression) -> Expression:
        if isinstance(node, ColumnRef) and node.table is not None:
            return mapping.get(node.key, node)
        return node

    return expression.transform(rewrite)
