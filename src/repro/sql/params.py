"""Parameter binding for prepared statements.

A statement parsed with ``?`` placeholders carries :class:`~repro.sql.ast.Parameter`
nodes, numbered left to right.  Plans built from such a statement are
*templates*: parse + rewrite + optimize happen once, and each execution
substitutes that call's values with :func:`bind_plan` (or
:func:`bind_statement` for the subquery slow path) into a fresh copy, so
the prepared plan itself stays immutable and reusable.

Parameterized comparisons deliberately do **not** become source-level
pushdown predicates (those carry concrete values the optimizers feed to
zone maps and selectivity estimation); they travel as site filters
instead, which any binding-local conjunct may.  The prepared plan is
therefore a *generic* plan -- sound for every binding, priced without
value-specific pruning -- exactly the classic prepared-statement
trade-off.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.errors import QueryError
from repro.sql.ast import (
    Between,
    BinaryOp,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    JoinClause,
    Like,
    Literal,
    OrderItem,
    Parameter,
    SelectItem,
    SelectStatement,
    UnaryOp,
)
from repro.sql.planner import (
    AggregateNode,
    AggregateSplit,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanGovernance,
    ScanNode,
    SortNode,
)


def count_parameters(statement: SelectStatement) -> int:
    """How many distinct ``?`` placeholders ``statement`` carries."""
    indices: set[int] = set()
    _collect_statement(statement, indices)
    return len(indices)


def statement_has_subqueries(statement: SelectStatement) -> bool:
    """True if any ``IN (SELECT ...)`` appears anywhere in the statement.

    Subquery statements take the prepared slow path: the inner select
    materializes a data-dependent IN list, so the outer plan cannot be
    optimized once and reused -- each execution re-plans from a bound copy
    of the statement.
    """
    if _has_subquery(statement.where) or _has_subquery(statement.having):
        return True
    if any(_has_subquery(item.expr) for item in statement.items):
        return True
    if any(_has_subquery(join.condition) for join in statement.joins):
        return True
    if any(_has_subquery(group) for group in statement.group_by):
        return True
    return any(_has_subquery(order.expr) for order in statement.order_by)


def _has_subquery(expr: Expr | None) -> bool:
    # Module-level recursion, not a closure: a nested function that calls
    # itself is a reference cycle left behind for the cyclic GC.
    if expr is None:
        return False
    if isinstance(expr, InSubquery):
        return True
    for attr in ("left", "right", "operand", "low", "high"):
        child = getattr(expr, attr, None)
        if child is not None and not isinstance(child, str) and _has_subquery(child):
            return True
    for item in getattr(expr, "args", ()) or ():
        if _has_subquery(item):
            return True
    for item in getattr(expr, "items", ()) or ():
        if _has_subquery(item):
            return True
    return False


def _collect_statement(statement: SelectStatement, indices: set[int]) -> None:
    """Collect parameter indices from every expression position."""

    def walk(expr: Expr | None) -> None:
        for parameter in _parameters_in(expr):
            indices.add(parameter.index)

    for item in statement.items:
        walk(item.expr)
    for join in statement.joins:
        walk(join.condition)
    walk(statement.where)
    for group in statement.group_by:
        walk(group)
    walk(statement.having)
    for order in statement.order_by:
        walk(order.expr)


def _parameters_in(expr: Expr | None) -> list[Parameter]:
    found: list[Parameter] = []
    _collect_parameters(expr, found)
    return found


def _collect_parameters(node: Expr | None, found: list[Parameter]) -> None:
    if node is None:
        return
    if isinstance(node, Parameter):
        found.append(node)
        return
    for attr in ("left", "right", "operand", "low", "high"):
        child = getattr(node, attr, None)
        if child is not None and not isinstance(child, str):
            _collect_parameters(child, found)
    for item in getattr(node, "args", ()) or ():
        _collect_parameters(item, found)
    for item in getattr(node, "items", ()) or ():
        _collect_parameters(item, found)
    subquery = getattr(node, "subquery", None)
    if subquery is not None:
        sub_indices: set[int] = set()
        _collect_statement(subquery, sub_indices)
        found.extend(Parameter(i) for i in sub_indices)


def bind_expr(expr: Expr | None, values: Sequence[Any]) -> Expr | None:
    """A copy of ``expr`` with every Parameter replaced by its Literal."""
    if expr is None:
        return None
    if isinstance(expr, Parameter):
        return Literal(values[expr.index])
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, bind_expr(expr.left, values), bind_expr(expr.right, values)
        )
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, bind_expr(expr.operand, values))
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name,
            tuple(bind_expr(a, values) for a in expr.args),
            expr.star,
        )
    if isinstance(expr, InList):
        return InList(
            bind_expr(expr.operand, values),
            tuple(bind_expr(i, values) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, InSubquery):
        return InSubquery(
            bind_expr(expr.operand, values),
            bind_statement(expr.subquery, values),
            expr.negated,
        )
    if isinstance(expr, Between):
        return Between(
            bind_expr(expr.operand, values),
            bind_expr(expr.low, values),
            bind_expr(expr.high, values),
            expr.negated,
        )
    if isinstance(expr, Like):
        # The pattern itself is a plain string (the grammar requires it).
        return Like(bind_expr(expr.operand, values), expr.pattern, expr.negated)
    # Literal, Column, Star are leaves.
    return expr


def bind_statement(
    statement: SelectStatement, values: Sequence[Any]
) -> SelectStatement:
    """A deep copy of ``statement`` with parameters bound to ``values``.

    Used by the prepared-statement slow path (statements with subqueries,
    which must re-plan per execution because the subquery materializes
    data-dependent IN lists).
    """
    return SelectStatement(
        items=[
            SelectItem(bind_expr(item.expr, values), item.alias)
            for item in statement.items
        ],
        table=statement.table,
        joins=[
            JoinClause(
                join.table, bind_expr(join.condition, values), join.join_type
            )
            for join in statement.joins
        ],
        where=bind_expr(statement.where, values),
        group_by=[bind_expr(g, values) for g in statement.group_by],
        having=bind_expr(statement.having, values),
        order_by=[
            OrderItem(bind_expr(o.expr, values), o.descending)
            for o in statement.order_by
        ],
        limit=statement.limit,
        distinct=statement.distinct,
    )


def bind_plan(node: PlanNode, values: Sequence[Any]) -> PlanNode:
    """A copy of a logical plan with parameters bound to ``values``.

    Scan annotations are copied, not shared: the bound plan is free to be
    mutated by execution-time passes without dirtying the prepared
    template.  Source-level pushdown predicates never contain parameters
    (see module docstring), so their list is shallow-copied.
    """
    if isinstance(node, ScanNode):
        governance = None
        if node.governance is not None:
            # Policy expressions never contain parameters (manifests hold
            # concrete values), but the lists must not be shared with the
            # prepared template.
            governance = ScanGovernance(
                node.governance.tenant,
                rls_pushed=list(node.governance.rls_pushed),
                rls_residual=list(node.governance.rls_residual),
                masks=dict(node.governance.masks),
            )
        return ScanNode(
            node.table,
            node.binding,
            pushdown=list(node.pushdown),
            site_filters=[bind_expr(e, values) for e in node.site_filters],
            needed_columns=(
                set(node.needed_columns)
                if node.needed_columns is not None
                else None
            ),
            text_filter=node.text_filter,
            governance=governance,
        )
    if isinstance(node, FilterNode):
        return FilterNode(
            bind_plan(node.child, values), bind_expr(node.condition, values)
        )
    if isinstance(node, JoinNode):
        return JoinNode(
            bind_plan(node.left, values),
            bind_plan(node.right, values),
            bind_expr(node.condition, values),
            node.join_type,
        )
    if isinstance(node, ProjectNode):
        return ProjectNode(
            bind_plan(node.child, values),
            [SelectItem(bind_expr(i.expr, values), i.alias) for i in node.items],
            node.distinct,
        )
    if isinstance(node, AggregateNode):
        bound = AggregateNode(
            bind_plan(node.child, values),
            [bind_expr(g, values) for g in node.group_by],
            [SelectItem(bind_expr(i.expr, values), i.alias) for i in node.items],
            bind_expr(node.having, values),
        )
        if node.split is not None:
            bound.split = AggregateSplit(
                calls=[bind_expr(c, values) for c in node.split.calls]
            )
        return bound
    if isinstance(node, SortNode):
        return SortNode(
            bind_plan(node.child, values),
            [OrderItem(bind_expr(o.expr, values), o.descending)
             for o in node.order_by],
        )
    if isinstance(node, LimitNode):
        return LimitNode(bind_plan(node.child, values), node.limit)
    raise QueryError(f"cannot bind parameters into plan node {node!r}")


def check_parameters(expected: int, values: Sequence[Any]) -> tuple:
    """Validate a binding's arity; returns the values as a tuple."""
    bound = tuple(values)
    if len(bound) != expected:
        raise QueryError(
            f"prepared statement takes {expected} parameter(s), "
            f"got {len(bound)}"
        )
    return bound
