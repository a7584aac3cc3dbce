"""Late materialization in the site pipeline.

Scan batches are row-backed: a column is transposed (and masked, under
governance) the first time an operator reads it.  These tests hold a lazy
batch equal to an eagerly transposed one through random ``take`` /
``project`` chains, check governed queries whose filters and groups read a
masked column against the row engine and ``sqlite3``, and check that an
execution leaves no reference cycles behind (so its batches are freed by
refcount when it closes, not by a later cyclic GC pass).
"""

import gc
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    SemanticCache,
    WorkloadManager,
)
from repro.federation import columnar
from repro.federation.columnar import (
    ColumnBatch,
    KernelFallback,
    compile_predicate,
    encode_batch,
    table_chunks,
)
from repro.federation.gateway import Gateway
from repro.federation.governance import MASK_STYLES, GovernanceRegistry, mask_value
from repro.sim import EventLoop, SimClock
from repro.sql.ast import BinaryOp, Column, Literal

FIELDS = ("i", "f", "s")
SCHEMA = Schema(
    "t",
    (
        Field("i", DataType.INTEGER),
        Field("f", DataType.FLOAT),
        Field("s", DataType.STRING),
    ),
)

# Mostly well-typed cells, some NULLs, some values of another column's type.
numeric_cell = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 2.25]),
    st.none(),
    st.sampled_from(["x", "7"]),
)
string_cell = st.one_of(
    st.sampled_from(["", "a", "ab", "b9", "zz"]), st.none(), st.sampled_from([4, 0.5])
)
rows_strategy = st.lists(
    st.tuples(numeric_cell, numeric_cell, string_cell), min_size=0, max_size=24
)
masks_strategy = st.dictionaries(
    st.sampled_from(FIELDS), st.sampled_from(MASK_STYLES), max_size=3
)
ambiguous_strategy = st.sets(st.sampled_from(FIELDS))
OPS = ("=", "!=", "<", "<=", ">", ">=", "contains")


def eager_batch(rows, masks, ambiguous):
    """The reference: every column transposed and masked up front."""
    columns = []
    for j, name in enumerate(FIELDS):
        style = masks.get(name)
        column = [row[j] for row in rows]
        if style is not None:
            column = [mask_value(style, value) for value in column]
        columns.append(column)
    aliases = {name: j for j, name in enumerate(FIELDS) if name not in ambiguous}
    return ColumnBatch([f"t.{name}" for name in FIELDS], columns, aliases, len(rows))


def lazy_batch(rows, masks, ambiguous):
    table = Table(SCHEMA, rows, validate=False)
    chunks = table_chunks("t", table, ambiguous, batch_size=max(1, len(rows)), masks=masks)
    if not chunks:  # an empty table has no chunks; keep the layout anyway
        return ColumnBatch(
            [f"t.{name}" for name in FIELDS],
            [[] for _ in FIELDS],
            {name: j for j, name in enumerate(FIELDS) if name not in ambiguous},
            0,
        )
    (chunk,) = chunks
    return chunk


def kernel_outcome(expr, batch):
    kernel = compile_predicate(expr, batch)
    if kernel is None:
        return "row-path"
    try:
        return kernel(batch, list(range(batch.count)))
    except KernelFallback:
        return "fallback"


def assert_same(lazy, eager, expr):
    assert lazy.names == eager.names
    assert lazy.aliases == eager.aliases
    assert lazy.count == eager.count
    # env_at first: it must not need whole columns filled.
    assert [lazy.env_at(i) for i in range(lazy.count)] == [
        eager.env_at(i) for i in range(eager.count)
    ]
    assert kernel_outcome(expr, lazy) == kernel_outcome(expr, eager)
    lazy_encoded, eager_encoded = encode_batch(lazy), encode_batch(eager)
    assert lazy_encoded == eager_encoded
    assert lazy_encoded.encoded_bytes == eager_encoded.encoded_bytes
    assert lazy_encoded.raw_bytes == eager_encoded.raw_bytes
    assert lazy.to_envs() == eager.to_envs()


class TestLazyMatchesEager:
    @settings(max_examples=300, deadline=None)
    @given(
        rows=rows_strategy,
        masks=masks_strategy,
        ambiguous=ambiguous_strategy,
        data=st.data(),
    )
    def test_take_project_chains(self, rows, masks, ambiguous, data):
        lazy = lazy_batch(rows, masks, ambiguous)
        eager = eager_batch(rows, masks, ambiguous)
        for _ in range(data.draw(st.integers(0, 4), label="steps")):
            step = data.draw(st.sampled_from(["take", "project", "read"]))
            if step == "take":
                keep = data.draw(st.lists(st.booleans(), min_size=lazy.count,
                                          max_size=lazy.count))
                selection = [i for i, kept in enumerate(keep) if kept]
                lazy, eager = lazy.take(selection), eager.take(selection)
            elif step == "project":
                allowed = data.draw(st.sets(st.sampled_from(
                    [f"t.{name}" for name in FIELDS] + list(FIELDS)
                )))
                lazy, eager = lazy.project(allowed), eager.project(allowed)
            elif lazy.names:
                # Fill one column now, so later takes gather a mix of
                # filled columns and row references.
                lazy.columns[data.draw(st.integers(0, len(lazy.names) - 1))]
        expr = BinaryOp(
            data.draw(st.sampled_from(OPS)),
            Column(data.draw(st.sampled_from(FIELDS)), qualifier="t"),
            Literal(data.draw(st.one_of(numeric_cell, string_cell))),
        )
        assert_same(lazy, eager, expr)

    def test_unread_columns_are_never_filled(self):
        rows = [(1, 2.0, "a"), (2, 3.0, "b"), (3, 4.0, "c")]
        (batch,) = table_chunks("t", Table(SCHEMA, rows), set(), masks={"s": "hash"})
        kept = batch.take([0, 2]).project({"t.i", "t.s", "i", "s"})
        assert kept.columns[0] == [1, 3]
        assert batch.columns.filled == [None, None, None]
        assert kept.columns.filled[1] is None  # the masked column, unread
        hashed = mask_value("hash", "c")
        assert kept.env_at(1) == {"t.i": 3, "t.s": hashed, "i": 3, "s": hashed}
        assert kept.columns.filled[1] is None


# -- governed queries over masked columns --------------------------------------

ORDERS = Schema(
    "orders",
    (
        Field("order_id", DataType.STRING),
        Field("region", DataType.STRING),
        Field("email", DataType.STRING),
        Field("total", DataType.FLOAT),
    ),
)
ORDER_ROWS = [
    (
        f"o{i:03d}",
        ("EU", "US", "APAC")[i % 3],
        None if i % 11 == 0 else f"user{i % 9}@mail{i % 2}.com",
        float(i % 13) + 0.25,
    )
    for i in range(90)
]
# Non-sargable (an OR): runs as residual RLS at the site, on raw emails.
ROW_FILTER = "region = 'EU' or email like 'user1%'"
# A user filter each style's masked values pass and raw values fail.
USER_FILTER = {
    "null": "email is null",
    "redact": "email = '***'",
    "hash": "email not like '%@%'",
    "last4": "email like '*%'",
}


def governed_engine(style, columnar_path):
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(4)]
    catalog.load_fragmented(
        Table(ORDERS, ORDER_ROWS), 4, [[names[i], names[(i + 1) % 4]] for i in range(4)]
    )
    policy = {"row_filter": ROW_FILTER}
    if style is not None:
        policy["masks"] = {"email": style}
    manifest = {"version": 1, "tenants": {"acme": {"tables": {"orders": policy}}}}
    return FederatedEngine(
        catalog, governance=GovernanceRegistry(manifest), columnar=columnar_path
    )


def premasked_sqlite(style):
    """The oracle: RLS applied to raw rows, then the mask, then sqlite3."""
    kept = [
        (order_id, region, mask_value(style, email), total)
        for order_id, region, email, total in ORDER_ROWS
        if region == "EU" or (email is not None and email.startswith("user1"))
    ]
    db = sqlite3.connect(":memory:")
    db.execute("create table orders (order_id text, region text, email text, total real)")
    db.executemany("insert into orders values (?, ?, ?, ?)", kept)
    return db


class TestGovernedMaskedColumns:
    @pytest.mark.parametrize("style", MASK_STYLES)
    def test_filter_and_group_by_on_masked_column(self, style):
        sql = (
            "select email, count(*), sum(total) from orders "
            f"where {USER_FILTER[style]} group by email order by email"
        )
        expected = premasked_sqlite(style).execute(sql).fetchall()
        assert expected  # the filter keeps masked rows (raw rows would fail it)
        answers = {}
        for columnar_path in (True, False):
            engine = governed_engine(style, columnar_path)
            assert "rls(tenant=acme:" in engine.explain(sql, tenant="acme")
            answers[columnar_path] = engine.query(sql, tenant="acme").table.rows
        assert answers[True] == answers[False] == expected

    @pytest.mark.parametrize("style", MASK_STYLES)
    def test_rows_match_premasked_table(self, style):
        sql = (
            "select order_id, email, total from orders "
            f"where {USER_FILTER[style]} order by order_id"
        )
        expected = premasked_sqlite(style).execute(sql).fetchall()
        for columnar_path in (True, False):
            engine = governed_engine(style, columnar_path)
            assert engine.query(sql, tenant="acme").table.rows == expected

    def test_unread_masked_column_is_never_masked(self, monkeypatch):
        calls = []

        def counting_mask(style, value):
            calls.append(style)
            return mask_value(style, value)

        monkeypatch.setattr(columnar, "mask_value", counting_mask)
        sql = "select order_id, total from orders where total > 3"
        mask_work = {}
        for columnar_path in (True, False):
            work = []
            for style in ("hash", None):
                engine = governed_engine(style, columnar_path)
                report = engine.query(sql, tenant="acme").report
                work.append(sum(report.site_work.values()))
            mask_work[columnar_path] = work[0] - work[1]
        assert calls == []
        # The modeled mask charge is the same whether or not a column is
        # masked by the time it ships.
        assert mask_work[True] > 0
        assert mask_work[True] == pytest.approx(mask_work[False], rel=1e-9)


# -- no reference cycles per execution ------------------------------------------


def parts_catalog():
    catalog = FederationCatalog(SimClock())
    names = [catalog.make_site(f"s{i}").name for i in range(4)]
    schema = Schema(
        "parts",
        (
            Field("sku", DataType.STRING),
            Field("price", DataType.FLOAT),
            Field("qty", DataType.INTEGER),
        ),
    )
    rows = [(f"A-{i:03d}", float(i % 100), i % 7) for i in range(400)]
    catalog.load_fragmented(
        Table(schema, rows), 4, [[names[i], names[(i + 1) % 4]] for i in range(4)]
    )
    return catalog


def serving_engine(catalog):
    """An engine with the semantic cache and the stage-artifact store on."""
    return FederatedEngine(
        catalog,
        cache=SemanticCache(catalog.clock, max_rows=5000),
        artifacts=ArtifactStore(catalog.clock, max_rows=5000),
    )


def cyclic_garbage_after(run):
    """Objects the cyclic GC finds after ``run()`` (one warm-up first)."""
    run()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def operators(root):
    stack = [root]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op.children)


class TestNoCyclesPerExecution:
    def test_adhoc_query(self):
        engine = serving_engine(parts_catalog())
        for sql in (
            "select sku, price from parts where price < 10",
            "select qty, count(*), sum(price) from parts where price < 50 group by qty",
            "select sku from parts limit 3",
        ):
            assert cyclic_garbage_after(lambda: engine.query(sql)) == 0, sql

    def test_prepared_through_workload_manager(self):
        catalog = parts_catalog()
        engine = serving_engine(catalog)
        gateway = Gateway(WorkloadManager(engine, EventLoop(catalog.clock)))
        session = gateway.connect("default")
        results = []

        def run():
            results.append(session.execute(
                "select qty, count(*) from parts where price < ? group by qty", (30.0,)
            ).result)

        assert cyclic_garbage_after(run) == 0
        # Both executions ran the cached template; neither tree holds state.
        for result in results:
            for op in operators(result.plan.root):
                assert getattr(op, "_batches", None) is None, op.name
                assert getattr(op, "_ctx", None) is None, op.name
                assert getattr(op, "_rows", None) is None, op.name

    def test_scan_that_fails_over(self):
        catalog = parts_catalog()
        engine = serving_engine(catalog)
        prepared = engine.prepare("select sku from parts where price < ?")
        site = prepared.physical.assignments["parts"].choices[0].site_name
        catalog.site(site).up = False
        failovers = []

        def run():
            # A fresh bound each run, so neither the cache nor an artifact
            # answers it and the scan really fails over again.
            bound = 20.0 + len(failovers)
            failovers.append(engine.execute(prepared, (bound,)).report.failovers)

        assert cyclic_garbage_after(run) == 0
        assert failovers[-1] >= 1
