"""The benchmark's three workloads: inputs, federation set-up, traffic, oracles.

Each workload is a class with the same five steps, called by ``run.py``:

* ``__init__(seed)`` generates every input row and the operation stream's
  random state from the seed (not timed);
* ``setup()`` builds catalog, fragments, sources, engine, stores, gateway
  and manifest from those rows (timed as ``setup_s``), and ``teardown()``
  drops that build, so that repeated set-ups never hold two at once;
* ``build_oracle()`` builds the independent answer checker (not timed);
* ``next_op()`` draws the next operation; ``op.run()`` is the timed call;
* ``check(op, answer)`` compares the answer with the oracle and returns
  ``None`` or a one-line reason.

The program under test only ever sees generated rows and SQL text.
"""

from __future__ import annotations

import math
import random
import sqlite3
from dataclasses import dataclass
from typing import Callable

from repro.connect.source import LiveSource
from repro.core import DataType, Field, Schema, Table
from repro.federation import (
    ArtifactStore,
    FederatedEngine,
    FederationCatalog,
    Gateway,
    SemanticCache,
    WorkloadManager,
)
from repro.federation.dbapi import connect
from repro.federation.governance import GovernanceRegistry
from repro.sim import EventLoop, SimClock
from repro.workloads import generate_hotels
from repro.workloads.hotels import AVAILABILITY_SCHEMA, STATIC_SCHEMA

REL_TOL = 1e-9


@dataclass
class Op:
    """One client operation: ``run()`` is timed, the rest is bookkeeping."""

    kind: str  # "read" or "write"
    shape: str  # query shape or write kind, for reports
    text: str  # SQL (or a write description) for failure listings
    run: Callable[[], tuple]  # returns (rows, report | None)
    expect: object = None  # what the oracle needs to check the answer


# -- answer comparison ---------------------------------------------------------


def _same_value(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if got is None or want is None:
            return got is want
        return math.isclose(float(got), float(want), rel_tol=REL_TOL, abs_tol=0.0)
    return got == want


def _same_row(got: tuple, want: tuple) -> bool:
    return len(got) == len(want) and all(map(_same_value, got, want))


def _sort_key(row: tuple) -> tuple:
    return tuple((value is None, str(type(value)), value) for value in row)


def compare_rows(got: list, want: list, ordered: bool) -> str | None:
    """None when ``got`` equals ``want``; otherwise a one-line reason."""
    got = [tuple(row) for row in got]
    want = [tuple(row) for row in want]
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    if not ordered:
        got = sorted(got, key=_sort_key)
        want = sorted(want, key=_sort_key)
    for i, (g, w) in enumerate(zip(got, want)):
        if not _same_row(g, w):
            return f"row {i}: got {g!r}, expected {w!r}"
    return None


# -- the MRO parts catalog (adhoc_parts, prepared_gateway) ---------------------

PART_ROWS = 20_000
SUPPLIER_ROWS = 300
PART_SITES = [f"s{i}" for i in range(4)]
PART_FRAGMENTS = 8
REGIONS = ["NA", "EMEA", "APAC", "LATAM"]
CATEGORIES = [f"C{i:02d}" for i in range(20)]
TIERS = ["gold", "silver", "bronze"]

PARTS_SCHEMA = Schema(
    "parts",
    (
        Field("sku", DataType.STRING, nullable=False),
        Field("supplier", DataType.STRING),
        Field("region", DataType.STRING),
        Field("category", DataType.STRING),
        Field("price", DataType.FLOAT),
        Field("qty", DataType.INTEGER),
    ),
)
SUPPLIERS_SCHEMA = Schema(
    "suppliers",
    (
        Field("supplier", DataType.STRING, nullable=False),
        Field("name", DataType.STRING),
        Field("tier", DataType.STRING),
        Field("country", DataType.STRING),
    ),
)
# Semantic cache and artifact store capacity in rows.  The ad-hoc mix's
# distinct regions (fresh literals on 20k rows) overflow it; the hotel
# working set (~200 availability rows per threshold) fits many times over.
STORE_ROWS = 2_000


def generate_parts(rng: random.Random) -> tuple[list[tuple], list[tuple]]:
    suppliers = [
        (
            f"S{i:03d}",
            f"Supplier {i}",
            rng.choice(TIERS),
            rng.choice(["US", "DE", "JP", "BR", "IN", "FR"]),
        )
        for i in range(SUPPLIER_ROWS)
    ]
    parts = [
        (
            f"P-{i:06d}",
            f"S{rng.randrange(SUPPLIER_ROWS):03d}",
            rng.choice(REGIONS),
            rng.choice(CATEGORIES),
            round(rng.uniform(1.0, 1000.0), 2),
            rng.randrange(0, 500),
        )
        for i in range(PART_ROWS)
    ]
    return parts, suppliers


def build_parts_catalog(parts, suppliers) -> FederationCatalog:
    """8-way hash fragments over 4 sites, replication factor 2."""
    catalog = FederationCatalog(SimClock())
    for name in PART_SITES:
        catalog.make_site(name)
    placement = [
        [PART_SITES[i % len(PART_SITES)], PART_SITES[(i + 1) % len(PART_SITES)]]
        for i in range(PART_FRAGMENTS)
    ]
    catalog.load_fragmented(Table(PARTS_SCHEMA, parts), PART_FRAGMENTS, placement)
    catalog.load_fragmented(
        Table(SUPPLIERS_SCHEMA, suppliers), PART_FRAGMENTS, placement
    )
    return catalog


def build_engine(catalog: FederationCatalog, governance=None) -> FederatedEngine:
    return FederatedEngine(
        catalog,
        cache=SemanticCache(catalog.clock, max_rows=STORE_ROWS),
        artifacts=ArtifactStore(catalog.clock, max_rows=STORE_ROWS),
        governance=governance,
    )


def parts_sqlite(tables: dict[str, tuple[Schema, list[tuple]]]) -> sqlite3.Connection:
    """The independent oracle: stdlib SQLite over the same generated rows."""
    db = sqlite3.connect(":memory:")
    types = {DataType.STRING: "TEXT", DataType.FLOAT: "REAL", DataType.INTEGER: "INTEGER"}
    for name, (schema, rows) in tables.items():
        columns = ", ".join(f"{f.name} {types[f.dtype]}" for f in schema.fields)
        db.execute(f"create table {name} ({columns})")
        marks = ", ".join("?" for _ in schema.fields)
        db.executemany(f"insert into {name} values ({marks})", rows)
        if "sku" in schema.field_names:
            db.execute(f"create index {name}_sku on {name} (sku)")
    return db


def _price(rng: random.Random) -> float:
    return round(rng.uniform(1.0, 1000.0), 2)


class AdhocParts:
    """Ad-hoc SQL text with fresh literals through DB-API cursors."""

    name = "adhoc_parts"
    shapes = ("point", "range", "group", "join")

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.parts, self.suppliers = generate_parts(self.rng)
        self._deck: list[str] = []

    def setup(self) -> None:
        catalog = build_parts_catalog(self.parts, self.suppliers)
        self.engine = build_engine(catalog)
        self.cursor = connect(self.engine).cursor()

    def teardown(self) -> None:
        self.engine = self.cursor = None

    def build_oracle(self) -> None:
        self.db = parts_sqlite(
            {
                "parts": (PARTS_SCHEMA, self.parts),
                "suppliers": (SUPPLIERS_SCHEMA, self.suppliers),
            }
        )

    def _shape(self) -> str:
        # Each block of four operations holds every shape once, in seeded
        # order, so a run's shape mix (and thus its median) is fixed.
        if not self._deck:
            self._deck = list(self.shapes)
            self.rng.shuffle(self._deck)
        return self._deck.pop()

    def next_op(self) -> Op:
        rng = self.rng
        shape = self._shape()
        if shape == "point":
            sql = (
                "select sku, supplier, price, qty from parts "
                f"where sku = 'P-{rng.randrange(PART_ROWS):06d}'"
            )
        elif shape == "range":
            low = _price(rng)
            sql = (
                "select sku, price from parts "
                f"where price >= {low} and price <= {round(low + 0.5, 2)}"
            )
        elif shape == "group":
            sql = (
                "select category, count(*), sum(price) from parts "
                f"where region = '{rng.choice(REGIONS)}' and price < {_price(rng)} "
                "group by category order by category"
            )
        else:
            sql = (
                "select s.tier, count(*), sum(p.qty) from parts p "
                "join suppliers s on p.supplier = s.supplier "
                f"where p.category = '{rng.choice(CATEGORIES)}' "
                f"and p.price < {_price(rng)} group by s.tier order by s.tier"
            )
        cursor = self.cursor

        def run():
            cursor.execute(sql)
            return cursor.fetchall(), cursor.last_report

        return Op("read", shape, sql, run, expect=sql)

    def check(self, op: Op, rows: list) -> str | None:
        want = self.db.execute(op.expect).fetchall()
        return compare_rows(rows, want, ordered=" order by " in op.expect)


# Prepared templates: the parameters reach the columnar kernels, not the
# sources' row loop.  The governed tenant's RLS is sargable (rides source
# pushdown) and it sees ``supplier`` redacted.
GOVERNED = "buyer-emea"
GOV_REGION = "EMEA"
TENANTS = (GOVERNED, "buyer-na", "buyer-apac")
MANIFEST = {
    "version": 1,
    "tenants": {
        GOVERNED: {
            "tables": {
                "parts": {
                    "row_filter": f"region = '{GOV_REGION}'",
                    "masks": {"supplier": "redact"},
                }
            }
        }
    },
}
TEMPLATES = {
    "point": "select sku, supplier, price, qty from parts where sku = ?",
    "range": "select sku, supplier, price from parts where price between ? and ?",
    "aggregate": (
        "select category, count(*), sum(qty) from parts "
        "where price < ? and category >= ? group by category order by category"
    ),
}


class PreparedGateway:
    """Prepared ``?`` templates through pooled gateway sessions."""

    name = "prepared_gateway"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.parts, self.suppliers = generate_parts(self.rng)
        self._deck: list[tuple[str, str]] = []

    def setup(self) -> None:
        catalog = build_parts_catalog(self.parts, self.suppliers)
        self.engine = build_engine(catalog, governance=GovernanceRegistry(MANIFEST))
        manager = WorkloadManager(
            self.engine, EventLoop(catalog.clock), max_in_flight=4
        )
        for tenant in TENANTS:
            manager.register_tenant(tenant)
        self.gateway = Gateway(manager)
        self.sessions = {tenant: self.gateway.connect(tenant) for tenant in TENANTS}

    def teardown(self) -> None:
        self.engine = self.gateway = self.sessions = None

    def build_oracle(self) -> None:
        governed = [
            (sku, "***", region, category, price, qty)
            for sku, _, region, category, price, qty in self.parts
            if region == GOV_REGION
        ]
        self.db = parts_sqlite(
            {"parts": (PARTS_SCHEMA, self.parts), "parts_gov": (PARTS_SCHEMA, governed)}
        )

    def next_op(self) -> Op:
        rng = self.rng
        # Each deck of nine operations sends every shape once per tenant,
        # in seeded order, so every run has the same even mix.
        if not self._deck:
            self._deck = [(t, shape) for t in TENANTS for shape in TEMPLATES]
            rng.shuffle(self._deck)
        tenant, shape = self._deck.pop()
        if shape == "point":
            params = (f"P-{rng.randrange(PART_ROWS):06d}",)
        elif shape == "range":
            low = _price(rng)
            params = (low, round(low + 0.5, 2))
        else:
            params = (_price(rng), rng.choice(CATEGORIES))
        sql = TEMPLATES[shape]
        session = self.sessions[tenant]

        def run():
            outcome = session.execute(sql, params)
            return outcome.rows, outcome.result.report

        return Op(
            "read", f"{shape}/{tenant}", f"[{tenant}] {sql} {params!r}", run,
            expect=(tenant, sql, params),
        )

    def check(self, op: Op, rows: list) -> str | None:
        tenant, sql, params = op.expect
        if tenant == GOVERNED:
            sql = sql.replace("from parts", "from parts_gov")
        want = self.db.execute(sql, params).fetchall()
        return compare_rows(rows, want, ordered=" order by " in sql)


# -- the hotel scenario (hotel_live) -------------------------------------------

CHAINS = 50
HOTELS_PER_CHAIN = 4
MILES = (5.0, 10.0, 20.0)
RATES = (150.0, 200.0, 260.0)
WRITES_PER_READ = 0.3
# Writes come in pairs, a choice rather than a measured booking pattern:
# each pair invalidates the live table once and the next reads refetch, so
# about a quarter of reads refetch (they set p95) and the median read is a
# cache hit, inside the hits' bulk rather than on their slow edge.
WRITE_BURST = 2
TRAVELER_SQL = (
    "select s.hotel_id, s.name, a.corporate_rate, a.rooms_available "
    "from hotel_static s join hotel_availability a on s.hotel_id = a.hotel_id "
    "where s.miles_to_airport <= {miles} and s.has_health_club = true "
    "and a.corporate_rate <= {rate} and a.rooms_available > 0 "
    "order by a.corporate_rate"
)
_AVAILABILITY_FIELDS = AVAILABILITY_SCHEMA.field_names


class HotelLive:
    """Traveler joins over ~50 live reservation systems, with interleaved writes."""

    name = "hotel_live"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        market = generate_hotels(seed, chain_count=CHAINS, hotels_per_chain=HOTELS_PER_CHAIN)
        self.chains = list(market.chains)
        self.static_rows = [
            tuple(h[f] for f in STATIC_SCHEMA.field_names) for h in market.hotels
        ]
        self.seed_hotels = [dict(h) for h in market.hotels]

    def setup(self) -> None:
        # The live state, held per chain so each reservation system's
        # rows_fn costs only its own rows.
        self.live = {chain: [] for chain in self.chains}
        for hotel in self.seed_hotels:
            self.live[hotel["chain"]].append(
                {f: hotel[f] for f in _AVAILABILITY_FIELDS}
            )
        self.hotels = [row for chain in self.chains for row in self.live[chain]]
        catalog = FederationCatalog(SimClock())
        catalog.create_table("hotel_availability", AVAILABILITY_SCHEMA)
        sites = []
        for i, chain in enumerate(self.chains):
            site = catalog.make_site(f"res-{i:02d}").name
            sites.append(site)
            rows = self.live[chain]
            fragment = catalog.add_fragment("hotel_availability", f"chain-{i}", len(rows))
            catalog.place_replica(
                fragment,
                site,
                LiveSource(
                    f"availability@{chain}",
                    AVAILABILITY_SCHEMA,
                    lambda rows=rows: rows,
                    cost_seconds=0.1,
                    estimated_rows=len(rows),
                ),
            )
        catalog.load_fragmented(
            Table(STATIC_SCHEMA, self.static_rows), 1, [sites[:2]]
        )
        self.catalog = catalog
        self.engine = build_engine(catalog)
        self._write_debt = 0.0
        self._burst_left = 0

    def teardown(self) -> None:
        self.live = self.hotels = self.catalog = self.engine = None

    def build_oracle(self) -> None:
        self.static = {row[0]: row for row in self.static_rows}

    def next_op(self) -> Op:
        rng = self.rng
        if self._burst_left:
            self._burst_left -= 1
            return self._write_op()
        if self._write_debt >= WRITE_BURST and rng.random() < 0.5:
            self._write_debt -= WRITE_BURST
            self._burst_left = WRITE_BURST - 1
            return self._write_op()
        self._write_debt += WRITES_PER_READ
        miles, rate = rng.choice(MILES), rng.choice(RATES)
        sql = TRAVELER_SQL.format(miles=miles, rate=rate)
        engine = self.engine

        def run():
            result = engine.query(sql)
            return result.table.rows, result.report

        return Op("read", "traveler", sql, run, expect=(miles, rate))

    def _write_op(self) -> Op:
        rng = self.rng
        hotel = rng.choice(self.hotels)
        roll = rng.random()
        factor = rng.uniform(0.85, 1.25)
        catalog = self.catalog

        def run():
            if roll < 0.5:
                if hotel["rooms_available"] > 0:
                    hotel["rooms_available"] -= 1
            elif roll < 0.8:
                hotel["rooms_available"] += 1
            else:
                hotel["corporate_rate"] = round(hotel["corporate_rate"] * factor, 2)
            catalog.notify_table_updated("hotel_availability")
            return None, None

        kind = "booking" if roll < 0.5 else "release" if roll < 0.8 else "rate"
        return Op("write", kind, f"{kind} {hotel['hotel_id']}", run)

    def check(self, op: Op, rows: list) -> str | None:
        miles, rate = op.expect
        want = []
        for live in self.hotels:
            static = self.static[live["hotel_id"]]
            if (
                static[3] <= miles
                and static[4] is True
                and live["corporate_rate"] <= rate
                and live["rooms_available"] > 0
            ):
                want.append(
                    (static[0], static[2], live["corporate_rate"], live["rooms_available"])
                )
        want.sort(key=lambda row: row[2])
        reason = compare_rows(rows, want, ordered=False)
        if reason is None and [r[2] for r in rows] != [r[2] for r in want]:
            reason = "rows not ordered by corporate_rate"
        return reason


WORKLOADS = {cls.name: cls for cls in (AdhocParts, PreparedGateway, HotelLive)}
