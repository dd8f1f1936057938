"""The description-walk probe compiler, kept as the masked probe's oracle.

Before the packed probe was derived from the request's analysis masks,
``_PackedProbe`` was compiled per block by walking the block
description's select list and grouping: every column through the
description's equivalence classes (``class_of``), every expression
through its shallow form, each key straight to its interned bitmask.
:func:`reference_probe` is that compiler, unchanged but for the
per-request class-mask memo (a fresh dict here); the parity tests in
``test_query_analysis.py`` pin the masked probe to it field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.analyze import normalized_aggregate_template
from repro.core.describe import SpjgDescription
from repro.core.equivalence import ColumnKey
from repro.core.filtertree import (
    _COLUMN,
    _TEMPLATE,
    _catalog_check_keys,
    _split_requirements,
)
from repro.core.interning import KeyInterner
from repro.core.options import MatchOptions
from repro.sql.expressions import ColumnRef, FuncCall, Literal


@dataclass
class ReferenceProbe:
    tables: frozenset
    residual_templates: frozenset
    constrained_columns: frozenset
    aggregate_templates: frozenset
    grouping_templates: frozenset
    output_requirements: tuple
    output_check: tuple
    grouping_requirements: tuple


def _encoding(interner: KeyInterner):
    """``(columns_mask, templates_mask)`` against ``interner``: atoms it
    has never seen are dropped, which is exact."""
    known_bit = interner.known_bit
    masks: dict = {}

    def columns_mask(columns: frozenset[ColumnKey]) -> int:
        mask = masks.get(columns)
        if mask is None:
            mask = 0
            for column in columns:
                mask |= known_bit((_COLUMN, *column))
            masks[columns] = mask
        return mask

    def templates_mask(templates: Iterable[str]) -> int:
        mask = 0
        for template in templates:
            mask |= known_bit((_TEMPLATE, template))
        return mask

    return columns_mask, templates_mask


def _output_requirements(query: SpjgDescription, interner: KeyInterner) -> tuple:
    columns_mask, templates_mask = _encoding(interner)
    class_of = query.eqclasses.class_of
    backjoins = query.options.allow_backjoins
    catalog = query.catalog
    group_cache: dict = {}

    def column_group(key: ColumnKey) -> int:
        group = group_cache.get(key)
        if group is None:
            group = columns_mask(class_of(key))
            if backjoins:
                table = catalog.table(key[0])
                for unique_key in table.all_unique_keys():
                    if any(table.is_nullable(column) for column in unique_key):
                        continue
                    for column in unique_key:
                        group |= columns_mask(class_of((key[0], column)))
            group_cache[key] = group
        return group

    requirements: list = []
    pending = [item.expression for item in query.statement.select_items]
    pending.extend(query.statement.group_by)
    pending.reverse()
    while pending:
        expression = pending.pop()
        if isinstance(expression, ColumnRef):
            requirements.append((0, (column_group(expression.key),)))
        elif isinstance(expression, FuncCall) and expression.is_aggregate():
            if expression.star:
                continue
            argument = expression.args[0]
            argument_form = query.shallow_form(argument)
            templates = set(
                normalized_aggregate_template(expression, argument_form)
            )
            templates.add(argument_form.template)
            requirements.append(
                (
                    templates_mask(templates),
                    tuple(
                        column_group(ref.key) for ref in argument.column_refs()
                    ),
                )
            )
        elif expression.contains_aggregate():
            pending.extend(reversed(expression.children()))
        elif not isinstance(expression, Literal):
            requirements.append(
                (
                    templates_mask((query.shallow_form(expression).template,)),
                    tuple(
                        column_group(ref.key) for ref in expression.column_refs()
                    ),
                )
            )
    return tuple(requirements)


def _grouping_requirements(
    query: SpjgDescription, interner: KeyInterner
) -> tuple:
    columns_mask, templates_mask = _encoding(interner)
    class_of = query.eqclasses.class_of
    requirements: list = []
    for form, expr in zip(query.group_forms, query.statement.group_by):
        if isinstance(expr, ColumnRef):
            requirements.append((0, (columns_mask(class_of(expr.key)),)))
        else:
            requirements.append((templates_mask((form.template,)), ()))
    return tuple(requirements)


def aggregate_templates(query: SpjgDescription) -> frozenset[str]:
    """Normalized templates of every aggregate call in the output list:
    the query-side counterpart of ``output_templates``, what the
    aggregation subtree's output-expression level probes with."""
    templates: set[str] = set()
    for call in query.statement.aggregate_outputs():
        templates.update(normalized_aggregate_template(call))
    return frozenset(templates)


def extended_range_constrained_columns(
    query: SpjgDescription,
) -> frozenset[ColumnKey]:
    """All columns equivalent to some range-constrained column."""
    members: set[ColumnKey] = set()
    for cls in query.range_constrained_classes():
        members.update(cls)
    return frozenset(members)


def reference_probe(
    query: SpjgDescription, options: MatchOptions, interner: KeyInterner
) -> ReferenceProbe:
    """The packed probe of ``query`` by a walk over its description."""
    residual_templates = query.residual_templates()
    constrained = extended_range_constrained_columns(query)
    if options.use_check_constraints:
        check_columns, check_templates = _catalog_check_keys(
            query.catalog, query.options.support_or_ranges
        )
        residual_templates = residual_templates | check_templates
        constrained = constrained | check_columns
    output_requirements = _output_requirements(query, interner)
    if query.is_aggregate:
        aggregates = aggregate_templates(query)
        grouping_templates = query.grouping_templates()
        grouping_requirements = _grouping_requirements(query, interner)
    else:
        aggregates = grouping_templates = frozenset()
        grouping_requirements = ()
    return ReferenceProbe(
        tables=query.tables,
        residual_templates=residual_templates,
        constrained_columns=constrained,
        aggregate_templates=aggregates,
        grouping_templates=grouping_templates,
        output_requirements=output_requirements,
        output_check=_split_requirements(output_requirements),
        grouping_requirements=grouping_requirements,
    )
