"""Span tracing from outside the program: wrap each layer's public entry points.

:class:`Tracer` replaces functions and methods of the ``repro`` package
with timing wrappers while installed, and restores the originals when
uninstalled, so an untraced operation runs the program's own code.  Every
span records its name, start, end, the span that caused it and the query
(operation) it belongs to; spans stay in memory and are written as JSON
lines when the run ends.  A span's self time is its duration minus that of
its child spans (single thread: children nest inside their parent).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro.connect import source as source_mod
from repro.federation import (
    agoric,
    artifacts,
    cache,
    catalog,
    central,
    columnar,
    engine,
    executor,
    gateway,
    governance,
    loadbalance,
    physical,
    workload,
)
from repro.sql import rewrite


def _bid_count(args, result) -> dict:
    bids_by_fragment = result[0]
    return {"bids": sum(len(bids) for bids in bids_by_fragment.values())}


def _filter_counts(args, result) -> dict:
    return {"rows_in": len(args[0]), "rows_out": len(result)}


def _fetch_counts(args, result) -> dict:
    return {"rows_out": len(result.table)}


# (owner, attribute, span name, count hook).  A span name is a layer name
# plus a dot and the call; ``SiteOperator.open`` is named per operator.
_GOVERNANCE_METHODS = (
    "policy_for", "signature_for", "injection_pass", "admit",
    "remaining_budget", "effective_budget", "charge",
)
TARGETS = [
    (engine, "parse_sql", "sql.parse", None),
    (engine, "build_plan", "sql.build_plan", None),
    (rewrite.RewritePipeline, "run", "sql.rewrite", None),
    (agoric.AgoricOptimizer, "optimize", "agoric.optimize", None),
    (agoric.AgoricOptimizer, "collect_bids", "agoric.collect_bids", _bid_count),
    (central.CentralizedOptimizer, "optimize", "agoric.optimize", None),
    (loadbalance.PolicyOptimizer, "optimize", "agoric.optimize", None),
    (engine.FederatedEngine, "query", "engine.query", None),
    (engine.FederatedEngine, "prepare", "engine.prepare", None),
    (engine.FederatedEngine, "execute", "engine.execute", None),
    (engine.FederatedEngine, "record_report_metrics", "engine.report", None),
    (executor.Executor, "execute", "executor.execute", None),
    (physical.PhysicalPlanner, "compile", "executor.compile", None),
    (physical.Ship, "open", "ship.open", None),
    (physical.SiteOperator, "open", None, None),
    (source_mod.StaticSource, "fetch", "source.fetch", _fetch_counts),
    (source_mod.LiveSource, "fetch", "source.fetch", _fetch_counts),
    (source_mod, "apply_predicates", "apply_predicates", _filter_counts),
    (physical, "apply_predicates", "apply_predicates", _filter_counts),
    (cache, "apply_predicates", "apply_predicates", _filter_counts),
    (columnar, "table_chunks", "columnar.transpose", None),
    (columnar, "encode_batch", "columnar.encode", None),
    (columnar, "decode_batch", "columnar.decode", None),
    (cache.SemanticCache, "lookup", "cache.probe", None),
    (cache.SemanticCache, "lookup_entry", "cache.probe", None),
    (cache.SemanticCache, "bid", "cache.probe", None),
    (cache.SemanticCache, "store", "cache.store", None),
    (cache.SemanticCache, "invalidate_table", "cache.invalidate", None),
    (artifacts.ArtifactStore, "stage_key", "artifacts.probe", None),
    (artifacts.ArtifactStore, "bid", "artifacts.probe", None),
    (artifacts.ArtifactStore, "has_twin", "artifacts.probe", None),
    (artifacts.ArtifactStore, "acquire", "artifacts.probe", None),
    (artifacts.ArtifactStore, "note_plan_hit", "artifacts.probe", None),
    (artifacts.ArtifactStore, "begin_stage", "artifacts.publish", None),
    (artifacts.ArtifactStore, "invalidate_table", "artifacts.invalidate", None),
    (artifacts.Artifact, "serve_rows", "artifacts.serve", None),
    (artifacts.Artifact, "serve_groups", "artifacts.serve", None),
    (gateway.PlanCache, "get_or_prepare", "gateway.plan_cache", None),
    (gateway.GatewaySession, "execute", "gateway.session", None),
    (workload.WorkloadManager, "submit", "workload.submit", None),
    (workload.WorkloadManager, "drain", "workload.drain", None),
    (catalog.FederationCatalog, "notify_table_updated", "catalog.notify", None),
] + [
    (governance.GovernanceRegistry, method, "governance.registry", None)
    for method in _GOVERNANCE_METHODS
]

# Site-side operator name -> span name (SiteOperator.open is shared).
_SITE_SPANS = {
    "SiteScan": "site.scan",
    "SiteFilter": "columnar.site_op",
    "SiteProject": "columnar.site_op",
    "PartialAggregate": "columnar.site_op",
    "ArtifactSource": "artifacts.serve",
}


class Tracer:
    """Installs and removes the timing wrappers; holds the recorded spans."""

    def __init__(self) -> None:
        # (span id, parent id, query id, name, start, end, counts | None)
        self.spans: list[tuple] = []
        self.query_id: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._originals = [
            (owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS
        ]
        self._wrapped = [
            (owner, attr, self._wrap(owner.__dict__[attr], name, hook))
            for owner, attr, name, hook in TARGETS
        ]

    def _wrap(self, fn, name, hook):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(span_id)
            counts = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    counts = hook(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                label = name or _SITE_SPANS.get(args[0].name, "site.other")
                tracer.spans.append(
                    (span_id, parent, tracer.query_id, label, start, end, counts)
                )

        return traced

    def install(self) -> None:
        for owner, attr, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def root(self, query_id: int, fn):
        """Run ``fn`` as query ``query_id``'s root span ("op")."""
        self.query_id = query_id
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, None, query_id, "op", start, end, None))
            self.query_id = None

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, query, name, start, end, counts in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "query": query,
                    "name": name,
                    "start_ms": round(start * 1000.0, 6),
                    "end_ms": round(end * 1000.0, 6),
                }
                if counts:
                    record.update(counts)
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> self seconds (duration minus its children's durations)."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {
        span_id: (end - start) - child_time[span_id]
        for span_id, _, _, _, start, end, _ in spans
    }


def layer_totals(spans: list[tuple], queries: set[int]) -> dict[str, float]:
    """Layer name -> total self seconds over the spans of ``queries``.

    ``apply_predicates`` is a helper shared by sources, the semantic cache
    and view scans, so its time goes to the layer of the span that called
    it; the operation's root span's self time is the client's own code.
    """
    selected = [span for span in spans if span[2] in queries]
    names = {span[0]: span[3] for span in selected}
    own = self_times(selected)
    totals: dict[str, float] = defaultdict(float)
    for span_id, parent, _, name, _, _, _ in selected:
        if name == "apply_predicates" and parent is not None:
            name = names[parent]
        totals[name] += own[span_id]
    return totals
