"""The ContentSource protocol: what the federation sees of any connector.

Every way of getting content -- scraping a site, querying an ERP gateway,
reading a file -- ends in an object with a schema, a ``fetch`` method taking
optional pushed-down predicates, and cost/availability metadata the
federated optimizer uses.  This uniformity is what lets the optimizer treat
"a scraped web site" and "a relational gateway" as interchangeable access
paths (§3.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import QueryError
from repro.core.records import Table
from repro.core.schema import Schema

# -- the comparison table ------------------------------------------------------
#
# The one definition of every column-vs-literal comparison, shared by source
# pushdown (apply_predicates) and the site filter kernels
# (repro.federation.columnar.compile_predicate).  Each comparison compiles
# into a selection-vector kernel ``kernel(values, sel) -> sel'`` that keeps,
# in order, the indexes i of ``sel`` where ``values[i] <op> literal`` holds.
# NULL rules: a NULL cell satisfies only ``= NULL`` and ``!= x``; ``= NULL``
# keeps the NULL cells and ``!= NULL`` the others; a NULL literal in a range
# or ``contains`` keeps nothing.  An incomparable pair raises TypeError.

COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=", "contains")

SelectionKernel = Callable[[Sequence[Any], Iterable[int]], list[int]]


def comparison_kernel(op: str, literal: Any) -> SelectionKernel:
    """Compile ``column <op> literal`` into a selection-vector kernel."""
    if op == "=":
        if literal is None:
            return lambda values, sel: [i for i in sel if values[i] is None]
        return lambda values, sel: [
            i for i in sel if (v := values[i]) is not None and v == literal
        ]
    if op == "!=":
        if literal is None:
            return lambda values, sel: [i for i in sel if values[i] is not None]
        return lambda values, sel: [
            i for i in sel if (v := values[i]) is None or v != literal
        ]
    if op not in COMPARISON_OPS:
        raise ValueError(f"unsupported predicate operator {op!r}")
    if literal is None:
        return lambda values, sel: []
    if op == "contains":
        needle = str(literal).lower()
        return lambda values, sel: [
            i
            for i in sel
            if (v := values[i]) is not None and needle in str(v).lower()
        ]
    if op == "<":
        return lambda values, sel: [
            i for i in sel if (v := values[i]) is not None and v < literal
        ]
    if op == "<=":
        return lambda values, sel: [
            i for i in sel if (v := values[i]) is not None and v <= literal
        ]
    if op == ">":
        return lambda values, sel: [
            i for i in sel if (v := values[i]) is not None and v > literal
        ]
    return lambda values, sel: [
        i for i in sel if (v := values[i]) is not None and v >= literal
    ]


@dataclass(frozen=True)
class Predicate:
    """A simple comparison that sources may evaluate locally (pushdown)."""

    column: str
    op: str  # one of COMPARISON_OPS
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unsupported predicate operator {self.op!r}")

    def holds(self, value: Any) -> bool:
        """Whether a cell holding ``value`` satisfies this predicate.

        Raises TypeError when ``value`` and the literal are incomparable.
        """
        return bool(comparison_kernel(self.op, self.value)((value,), (0,)))


def apply_predicates(table: Table, predicates: Sequence[Predicate]) -> Table:
    """Filter ``table`` by all ``predicates`` (helper for sources).

    Each predicate runs as its comparison kernel over the one column
    position it names, and only over the rows the predicates before it
    kept -- the same (predicate, row) pairs a row-at-a-time conjunction
    evaluates, so kept rows, their order and whether an incomparable pair
    raises all match it.  A column the schema lacks reads as NULL.
    """
    if not predicates:
        return table
    schema = table.schema
    rows = table.rows
    for predicate in predicates:
        if schema.has_field(predicate.column):
            values = list(map(itemgetter(schema.index_of(predicate.column)), rows))
        else:
            values = [None] * len(rows)
        kernel = comparison_kernel(predicate.op, predicate.value)
        try:
            sel = kernel(values, range(len(values)))
        except TypeError as error:
            raise _incomparable(predicate, kernel, values) from error
        rows = [rows[i] for i in sel]
    kept = Table(schema, validate=False)
    kept.rows = rows
    return kept


def _incomparable(
    predicate: Predicate, kernel: SelectionKernel, values: list
) -> QueryError:
    """The QueryError naming the first cell ``kernel`` cannot compare."""
    for i in range(len(values)):
        try:
            kernel(values, (i,))
        except TypeError as error:
            return QueryError(
                f"cannot apply {predicate.column} {predicate.op} "
                f"{predicate.value!r} to value {values[i]!r}: {error}"
            )
    raise AssertionError("kernel raised TypeError on no single cell")


@dataclass
class FetchResult:
    """A fetched table plus the cost actually incurred getting it."""

    table: Table
    cost_seconds: float = 0.0
    fetched_at: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.table)


class ContentSource(abc.ABC):
    """Abstract base for every connector the federation can query."""

    name: str
    schema: Schema

    @abc.abstractmethod
    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        """Retrieve (a predicate-filtered view of) the source's content."""

    def is_available(self) -> bool:
        """Whether a fetch right now is expected to succeed."""
        return True

    def estimated_rows(self) -> int:
        """Optimizer statistic: expected row count of an unfiltered fetch."""
        return 1000

    def estimated_cost(self) -> float:
        """Optimizer statistic: expected seconds for an unfiltered fetch."""
        return 1.0


class LiveSource(ContentSource):
    """A source over *mutable* operational state (Characteristic 5).

    ``rows_fn`` re-reads the owner's live state on every fetch, so updates
    between fetches are always visible -- this is the fetch-on-demand path
    volatile content (hotel rooms, airline seats, spot prices) flows
    through.
    """

    def __init__(
        self,
        name: str,
        schema: "Schema",
        rows_fn,
        cost_seconds: float = 0.05,
        estimated_rows: int | None = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._rows_fn = rows_fn
        self._cost = cost_seconds
        self._estimated_rows = estimated_rows

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        table = Table.from_dicts(self.schema, self._rows_fn())
        return FetchResult(
            apply_predicates(table, predicates), cost_seconds=self._cost
        )

    def estimated_rows(self) -> int:
        if self._estimated_rows is not None:
            return self._estimated_rows
        return len(self._rows_fn())

    def estimated_cost(self) -> float:
        return self._cost


class StaticSource(ContentSource):
    """A trivial in-memory source (used by tests and as cached content)."""

    def __init__(self, name: str, table: Table, cost_seconds: float = 0.0) -> None:
        self.name = name
        self.schema = table.schema
        self._table = table
        self._cost = cost_seconds

    def fetch(self, predicates: Sequence[Predicate] = ()) -> FetchResult:
        return FetchResult(
            apply_predicates(self._table, predicates), cost_seconds=self._cost
        )

    def estimated_rows(self) -> int:
        return len(self._table)

    def estimated_cost(self) -> float:
        return self._cost
