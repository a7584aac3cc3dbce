"""Source pushdown on the shared comparison kernels.

``apply_predicates`` (every source's pushdown) and the site filter kernels
(``columnar.compile_predicate``) run one comparison table, defined next to
``Predicate``.  These tests check pushdown against a plain row-at-a-time
reference loop written here, check the site kernels keep the same row
indexes, pin the NULL-literal rules both paths now share, and check the
aggregate output naming against stdlib ``sqlite3``.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.connect.source import Predicate, StaticSource, apply_predicates
from repro.core import DataType, Field, QueryError, Schema, Table
from repro.federation import FederatedEngine, FederationCatalog
from repro.federation.columnar import KernelFallback, compile_predicate, table_chunks
from repro.sim import SimClock
from repro.sql.ast import BinaryOp, Column, Literal

OPS = ("=", "!=", "<", "<=", ">", ">=", "contains")
COLUMNS = ("i", "f", "s")
SCHEMA = Schema(
    "t",
    (
        Field("i", DataType.INTEGER),
        Field("f", DataType.FLOAT),
        Field("s", DataType.STRING),
    ),
)


def reference_holds(op, cell, literal):
    """One comparison, spelled out row by row (raises TypeError when the
    pair is incomparable)."""
    if op == "=":
        return cell is None if literal is None else cell is not None and cell == literal
    if op == "!=":
        return cell is not None if literal is None else cell is None or cell != literal
    if cell is None or literal is None:
        return False
    if op == "contains":
        return str(literal).lower() in str(cell).lower()
    if op == "<":
        return cell < literal
    if op == "<=":
        return cell <= literal
    if op == ">":
        return cell > literal
    return cell >= literal


def reference_filter(table, predicates):
    """The conjunction row at a time: a row stops at its first failed
    predicate, so later predicates never see it."""
    kept = []
    for row in table.rows:
        for predicate in predicates:
            cell = row[table.schema.index_of(predicate.column)]
            try:
                holds = reference_holds(predicate.op, cell, predicate.value)
            except TypeError as error:
                raise QueryError(f"incomparable {cell!r}") from error
            if not holds:
                break
        else:
            kept.append(row)
    return kept


def conjunction(predicates):
    expr = None
    for p in predicates:
        term = BinaryOp(p.op, Column(p.column, qualifier="t"), Literal(p.value))
        expr = term if expr is None else BinaryOp("and", expr, term)
    return expr


def site_kernel_rows(table, predicates):
    """Rows the site filter kernel keeps over the same table."""
    if not table.rows:
        return []
    (batch,) = table_chunks("t", table, set(), batch_size=len(table.rows))
    kernel = compile_predicate(conjunction(predicates), batch)
    assert kernel is not None
    return [table.rows[i] for i in kernel(batch, list(range(len(batch))))]


# Cells: mostly well-typed, sometimes NULL, sometimes a value of another
# column's type so that range comparisons can raise.
ints = st.integers(-5, 5)
floats = st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.25])
strs = st.sampled_from(["", "a", "Ab", "b", "none", "None of it", "zz"])
numeric_cell = st.one_of(ints, floats, st.none(), st.sampled_from(["x", "2"]))
string_cell = st.one_of(strs, st.none(), st.sampled_from([3, 0.5]))


rows_strategy = st.lists(
    st.tuples(numeric_cell, numeric_cell, string_cell), min_size=0, max_size=30
)
predicate_strategy = st.builds(
    Predicate,
    column=st.sampled_from(COLUMNS),
    op=st.sampled_from(OPS),
    value=st.one_of(ints, floats, strs, st.none()),
)


class TestPushdownDifferential:
    @settings(max_examples=400, deadline=None)
    @given(rows=rows_strategy, predicates=st.lists(predicate_strategy, min_size=1, max_size=3))
    def test_pushdown_matches_reference_and_site_kernels(self, rows, predicates):
        table = Table(SCHEMA, rows, validate=False)
        try:
            expected = reference_filter(table, predicates)
        except QueryError:
            expected = None

        if expected is None:
            with pytest.raises(QueryError, match="cannot apply"):
                apply_predicates(table, predicates)
            with pytest.raises(KernelFallback):
                site_kernel_rows(table, predicates)
            return
        assert apply_predicates(table, predicates).rows == expected
        assert site_kernel_rows(table, predicates) == expected

    def test_pushdown_does_not_alias_the_source_rows(self):
        table = Table(SCHEMA, [(1, 1.0, "a"), (2, 2.0, "b")])
        kept = apply_predicates(table, [Predicate("i", ">", 0)])
        assert kept.rows == table.rows
        assert kept.rows is not table.rows
        assert apply_predicates(table, []) is table

    def test_incomparable_pair_names_column_and_value(self):
        table = Table(SCHEMA, [(1, 1.0, "a"), ("oops", 2.0, "b")], validate=False)
        with pytest.raises(QueryError, match=r"i < 3 to value 'oops'"):
            apply_predicates(table, [Predicate("i", "<", 3)])

    def test_missing_column_reads_as_null(self):
        table = Table(SCHEMA, [(1, 1.0, "a"), (2, 2.0, "b")])
        assert apply_predicates(table, [Predicate("ghost", "=", None)]).rows == table.rows
        assert apply_predicates(table, [Predicate("ghost", "!=", None)]).rows == []
        assert apply_predicates(table, [Predicate("ghost", ">", 0)]).rows == []

    def test_holds_uses_the_same_table(self):
        assert Predicate("a", "=", None).holds(None)
        assert Predicate("a", "!=", 3).holds(None)
        assert not Predicate("a", "<", None).holds(1)
        assert not Predicate("a", "contains", None).holds("none")
        with pytest.raises(TypeError):
            Predicate("a", "<", 3).holds("x")


# -- NULL literals: pushdown, residual and sqlite3 agree ------------------------

PARTS = Schema(
    "parts",
    (
        Field("sku", DataType.STRING),
        Field("price", DataType.FLOAT),
        Field("qty", DataType.INTEGER),
    ),
)


def parts_rows():
    names = ["none-left", "NoneSuch", "bolt", "nut", None]
    return [
        (
            f"{names[i % 5]}-{i}" if names[i % 5] else None,
            None if i % 7 == 0 else (i % 40) + 0.5,
            None if i % 6 == 0 else (i * 7) % 13,
        )
        for i in range(120)
    ]


def parts_engine(rows, columnar=True):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(4)]
    catalog.load_fragmented(
        Table(PARTS, rows), 4, [[names[i], names[(i + 1) % 4]] for i in range(4)]
    )
    return FederatedEngine(catalog, columnar=columnar)


def sqlite_rows(rows, sql):
    db = sqlite3.connect(":memory:")
    db.execute("create table parts (sku text, price real, qty integer)")
    db.executemany("insert into parts values (?, ?, ?)", rows)
    return db.execute(sql).fetchall()


class TestNullLiterals:
    def test_range_against_null_pushdown_equals_residual_and_sqlite(self):
        rows = parts_rows()
        pushed = "select sku from parts where price < null"
        residual = "select sku from parts where price < null or qty < 0"
        expected = sqlite_rows(rows, pushed)
        assert expected == []
        assert sqlite_rows(rows, residual) == expected
        for columnar in (True, False):
            engine = parts_engine(rows, columnar=columnar)
            assert "pushdown(price < None)" in engine.explain(pushed)
            assert "site-filter(" in engine.explain(residual)
            assert engine.query(pushed).table.rows == expected
            assert engine.query(residual).table.rows == expected

    def test_contains_null_pushdown_equals_site_kernel(self):
        rows = parts_rows()
        table = Table(PARTS, rows)
        assert any(sku and "none" in sku.lower() for sku, _, _ in rows)
        pushed = StaticSource("parts", table).fetch([Predicate("sku", "contains", None)])
        (batch,) = table_chunks("parts", table, set(), batch_size=len(rows))
        kernel = compile_predicate(
            BinaryOp("contains", Column("sku", qualifier="parts"), Literal(None)), batch
        )
        assert pushed.table.rows == []
        assert kernel(batch, list(range(len(batch)))) == []
        residual = parts_engine(rows).query("select sku from parts where sku contains null")
        assert residual.table.rows == []


# -- aggregate output names ----------------------------------------------------


class TestDuplicateAggregateNames:
    @pytest.mark.parametrize(
        "sql",
        [
            "select count(*), count(qty) from parts",
            "select sum(qty), sum(price) from parts",
            "select min(qty), min(price) from parts where price > 10",
            "select max(qty), max(price), count(*), count(sku) from parts",
            "select qty, sum(qty), sum(price) from parts group by qty "
            "order by sum(price) desc, qty",
        ],
    )
    def test_values_match_sqlite(self, sql):
        rows = parts_rows()
        result = parts_engine(rows).query(sql).table
        assert result.rows == sqlite_rows(rows, sql)
        assert len(set(result.schema.field_names)) == len(result.schema.field_names)

    def test_repeated_names_take_numbered_suffixes(self):
        result = parts_engine(parts_rows()).query(
            "select count(*), count(qty), count(price) as count_2 from parts"
        )
        assert result.table.schema.field_names == ("count", "count_2", "count_2_2")
