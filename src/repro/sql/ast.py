"""AST node types for the SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Union

# -- expressions ------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Any  # str | int | float | bool | None


@dataclass(frozen=True)
class Parameter:
    """One ``?`` placeholder, numbered left to right across the statement.

    Parameters survive planning: a prepared statement's logical plan keeps
    them in place so the plan can be optimized once and bound many times
    (:mod:`repro.sql.params` substitutes values at execution).  An unbound
    Parameter reaching row evaluation is an error.
    """

    index: int  # 0-based position among the statement's placeholders


@dataclass(frozen=True)
class Column:
    name: str
    qualifier: str | None = None  # table alias

    @property
    def qualified(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Star:
    qualifier: str | None = None


@dataclass(frozen=True)
class BinaryOp:
    op: str  # and or = != < <= > >= + - * / contains
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # not, -, is-null, is-not-null
    operand: "Expr"


@dataclass(frozen=True)
class FuncCall:
    name: str  # lowercased
    args: tuple["Expr", ...]
    star: bool = False  # COUNT(*)


@dataclass(frozen=True)
class InList:
    operand: "Expr"
    items: tuple["Expr", ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery:
    """``expr [NOT] IN (SELECT ...)`` -- uncorrelated subqueries only.

    The engine rewrites this into an :class:`InList` by executing the inner
    select first (a semijoin by materialization, the natural federated
    strategy for cross-enterprise membership tests).
    """

    operand: "Expr"
    subquery: "SelectStatement"
    negated: bool = False


@dataclass(frozen=True)
class Between:
    operand: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class Like:
    operand: "Expr"
    pattern: str
    negated: bool = False


Expr = Union[
    Literal, Parameter, Column, Star, BinaryOp, UnaryOp, FuncCall, InList,
    InSubquery, Between, Like,
]

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})


def contains_aggregate(expr: Expr) -> bool:
    """True if any aggregate function call appears in ``expr``."""
    if isinstance(expr, FuncCall):
        if expr.name in AGGREGATE_FUNCTIONS:
            return True
        return any(contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return contains_aggregate(expr.left) or contains_aggregate(expr.right)
    if isinstance(expr, UnaryOp):
        return contains_aggregate(expr.operand)
    if isinstance(expr, InList):
        return contains_aggregate(expr.operand) or any(
            contains_aggregate(i) for i in expr.items
        )
    if isinstance(expr, InSubquery):
        # The inner select's aggregates belong to the inner scope.
        return contains_aggregate(expr.operand)
    if isinstance(expr, Between):
        return any(contains_aggregate(e) for e in (expr.operand, expr.low, expr.high))
    if isinstance(expr, Like):
        return contains_aggregate(expr.operand)
    return False


def columns_in(expr: Expr) -> list[Column]:
    """All column references in ``expr``, in appearance order."""
    found: list[Column] = []
    _collect_columns(expr, found)
    return found


def _collect_columns(node: Expr, found: list[Column]) -> None:
    # A module-level recursion, not a closure: a nested function that
    # calls itself is a reference cycle left behind for the cyclic GC.
    if isinstance(node, Column):
        found.append(node)
    elif isinstance(node, BinaryOp):
        _collect_columns(node.left, found)
        _collect_columns(node.right, found)
    elif isinstance(node, UnaryOp):
        _collect_columns(node.operand, found)
    elif isinstance(node, FuncCall):
        for arg in node.args:
            _collect_columns(arg, found)
    elif isinstance(node, InList):
        _collect_columns(node.operand, found)
        for item in node.items:
            _collect_columns(item, found)
    elif isinstance(node, InSubquery):
        # Inner select columns are inner-scope.
        _collect_columns(node.operand, found)
    elif isinstance(node, Between):
        _collect_columns(node.operand, found)
        _collect_columns(node.low, found)
        _collect_columns(node.high, found)
    elif isinstance(node, Like):
        _collect_columns(node.operand, found)


# -- statement structure -----------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: Expr
    join_type: str = "inner"  # "inner" | "left"


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class SelectStatement:
    items: list[SelectItem]
    table: TableRef
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    distinct: bool = False
