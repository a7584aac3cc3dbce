"""Wall-clock federation benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc_parts --seed 1 --seconds 30 --trace 0

One closed-loop client, no think time, single process and thread: each
operation is timed from call to return, and its answer is checked against
an independent oracle outside the timed interval.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` alternates traced and untraced
operations and prints the per-layer metrics (``spans.py``) plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Modeled (simulated-clock) numbers and program counters are taken over the
first ``window`` timed operations only, so the same seed repeats them
exactly however fast the host is; wall-clock numbers use every timed
operation and are scaled to a reference host (:class:`SpeedGauge`).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# Per workload: untimed warm-up operations (fill plan cache, caches and
# lazy state) and the deterministic window of timed operations.
WARMUP = {"adhoc_parts": 8, "prepared_gateway": 80, "hotel_live": 40}
WINDOW = {"adhoc_parts": 200, "prepared_gateway": 500, "hotel_live": 2000}
# set-up is repeated until both bounds are met; its median is ``setup_s``.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200

# Host speed drifts by 10-60% within a minute on shared machines, and the
# program's CPU time drifts with it (it is not preemption).  Every
# wall-clock metric is therefore scaled to a reference host: a fixed
# pure-Python kernel is timed throughout the run, and each measured time
# is multiplied by REFERENCE_KERNEL_S over the kernel's median time within
# GAUGE_WINDOW_S of it.  The kernel takes about 10% of the run.
REFERENCE_KERNEL_S = 0.001
GAUGE_WINDOW_S = 1.0
GAUGE_SHARE = 0.1
_KERNEL_ROWS = [
    (f"k{i:05d}", (i * 7919) % 1000, ((i * 104729) % 100000) / 100.0)
    for i in range(3000)
]

END_TO_END = {
    "wall_ms_p50": "ms",
    "wall_ms_p95": "ms",
    "throughput_qps": "1/s",
    "modeled_response_s_mean": "s",
    "setup_s": "s",
    "mem_peak_mb": "MB",
}

# Layer metric -> span names whose self time it sums (ms per traced read).
LAYER_MS = {
    "sql.parse_ms": ("sql.parse",),
    "sql.build_plan_ms": ("sql.build_plan",),
    "sql.rewrite_ms": ("sql.rewrite",),
    "agoric.optimize_ms": ("agoric.optimize", "agoric.collect_bids"),
    "gateway.self_ms": ("gateway.plan_cache", "gateway.session"),
    "workload.self_ms": ("workload.submit", "workload.drain"),
    "governance.ms": ("governance.registry",),
    "engine.self_ms": ("engine.query", "engine.prepare", "engine.execute"),
    "engine.report_ms": ("engine.report",),
    "source.fetch_ms": ("source.fetch",),
    "site.scan_self_ms": ("site.scan",),
    "columnar.transpose_ms": ("columnar.transpose",),
    "columnar.site_ops_ms": ("columnar.site_op", "site.other"),
    "columnar.encode_ms": ("columnar.encode",),
    "columnar.decode_ms": ("columnar.decode",),
    "ship.self_ms": ("ship.open",),
    "executor.compile_ms": ("executor.compile",),
    "executor.coordinator_self_ms": ("executor.execute",),
    "cache.probe_ms": ("cache.probe",),
    "cache.store_ms": ("cache.store",),
    "artifacts.probe_ms": ("artifacts.probe",),
    "artifacts.serve_ms": ("artifacts.serve",),
    "artifacts.publish_ms": ("artifacts.publish",),
    "client.self_ms": ("op",),
}
PER_LAYER = {name: "ms" for name in LAYER_MS}
PER_LAYER.update(
    {
        "agoric.bids_per_query": "count",
        "gateway.plan_cache_hit_ratio": "ratio",
        "source.rows_examined_per_row_returned": "ratio",
        "source.fetches_per_query": "count",
        "ship.wire_bytes_per_query": "bytes",
        "ship.rows_shipped_per_query": "count",
        "cache.hit_ratio": "ratio",
        "cache.evictions": "count",
        "artifacts.hit_ratio": "ratio",
        "pruning.fragments_pruned_per_query": "count",
        "modeled.site_work_s_per_query": "s",
        "catalog.notify_ms": "ms",
        "write.wall_ms_p50": "ms",
        "trace.overhead_ms": "ms",
    }
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def kernel() -> int:
    """Fixed interpretive work: dicts, tuples, compares, sort, transpose."""
    kept = []
    for key, bucket, price in _KERNEL_ROWS:
        record = {"key": key, "bucket": bucket, "price": price}
        if record["bucket"] % 3 and record["price"] < 500.0:
            kept.append((record["price"], record["key"]))
    kept.sort()
    keys = [key.upper() for _, key in kept]
    return len(list(zip(*kept))[0]) + len(keys)


class SpeedGauge:
    """Times :func:`kernel` during a run; converts host time to reference time."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        times = []
        # Like timeit: the kernel measures the host, not collections that
        # the program's garbage would trigger in it.
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.at.append(start)
        self.seconds.append(statistics.median(times))
        self.spent += sum(times)

    def factor(self, at: float) -> float:
        """REFERENCE_KERNEL_S over the kernel's median time near ``at``."""
        lo = bisect.bisect_left(self.at, at - GAUGE_WINDOW_S)
        hi = bisect.bisect_right(self.at, at + GAUGE_WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = max(0, min(lo, len(self.at) - 1))
            hi = lo + 1
        return REFERENCE_KERNEL_S / statistics.median(self.seconds[lo:hi])

    def median_factor(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.seconds)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Record(NamedTuple):
    """One timed operation.  A tuple of atomic values, so the collector
    stops tracking it and the harness adds nothing to collection pauses."""

    index: int
    kind: str  # "read" or "write"
    shape: str
    start: float  # perf_counter at the call
    wall: float  # seconds, call to return, scaled to the reference host
    traced: bool
    # Modeled numbers of a correct read in the window, else None:
    # (response s, wire bytes, rows shipped, site work s, fragments pruned).
    # Reports themselves are not kept: their scan captures would grow the
    # heap the program runs in.
    modeled: tuple | None


class Run:
    """One workload run: set-up, warm-up, timed phase, checks, metrics."""

    def __init__(self, workload, seconds: float, trace: bool, window: int) -> None:
        self.wl = workload
        self.seconds = seconds
        self.trace = trace
        self.window = window
        self.tracer = None
        self.gauge = SpeedGauge()
        self.attempted = 0
        self.failures: list[str] = []
        self.records: list[Record] = []

    def setup(self) -> float:
        """Median set-up time, each repeat scaled by the gauge next to it."""
        raw, scaled = [], []
        while len(raw) < SETUP_MIN_REPEATS or (
            sum(raw) < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_REPEATS
        ):
            # Every repeat starts from the same heap state, with no earlier
            # build alive, so mem_peak_mb never counts two builds at once.
            self.wl.teardown()
            gc.collect()
            start = time.perf_counter()
            self.wl.setup()
            raw.append(time.perf_counter() - start)
            self.gauge.sample()
            scaled.append(raw[-1] * self.gauge.factor(start))
        return statistics.median(scaled)

    def _one(self, index: int, traced: bool):
        """Run, time and check one operation."""
        op = self.wl.next_op()
        self.attempted += 1
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                rows, report = self.tracer.root(index, op.run)
            else:
                rows, report = op.run()
        except Exception as error:  # a raised answer is a failed operation
            wall = time.perf_counter() - start
            reason = f"{type(error).__name__}: {error}"
            rows = report = None
        else:
            wall = time.perf_counter() - start
            reason = None
        finally:
            if traced:
                self.tracer.uninstall()
        if reason is None and op.kind == "read":
            reason = self.wl.check(op, rows)
        if reason is not None:
            self.failures.append(f"op {index} [{op.shape}] {op.text}: {reason}")
        modeled = None
        if reason is None and report is not None and 0 <= index < self.window:
            modeled = (
                report.response_seconds,
                report.bytes_shipped,
                report.rows_shipped,
                sum(report.site_work.values()),
                report.fragments_pruned,
            )
        return Record(index, op.kind, op.shape, start, wall, traced, modeled)

    def execute(self, warmup: int) -> None:
        if self.trace:
            from spans import Tracer

            self.tracer = Tracer()
        for i in range(warmup):
            self._one(-1 - i, traced=False)
        metrics = self.wl.engine.metrics
        self.before = metrics.snapshot()
        self.after = None
        phase_start = time.perf_counter()
        spent_before = self.gauge.spent
        self.gauge.sample()
        index = 0
        while True:
            if index == self.window:
                self.after = metrics.snapshot()
            elapsed = time.perf_counter() - phase_start
            if index >= self.window and elapsed >= self.seconds:
                break
            if self.gauge.spent - spent_before < GAUGE_SHARE * elapsed:
                self.gauge.sample()
            traced = self.trace and index % 2 == 1
            self.records.append(self._one(index, traced))
            index += 1
        self.gauge.sample()
        self.records = [
            r._replace(wall=r.wall * self.gauge.factor(r.start)) for r in self.records
        ]

    # -- metrics -----------------------------------------------------------

    def _window(self) -> list[Record]:
        return [r for r in self.records if r.index < self.window]

    def modeled(self) -> dict:
        """Simulated-clock numbers and counters over the window (seed-exact)."""
        reads = [r.modeled for r in self._window() if r.kind == "read" and r.modeled]

        def snap(name: str) -> float:
            return self.after.get(name, 0.0) - self.before.get(name, 0.0)

        return {
            "reads": len(reads),
            "modeled_response_s_mean": ratio(sum(m[0] for m in reads), len(reads)),
            "wire_bytes": sum(m[1] for m in reads),
            "rows_shipped": sum(m[2] for m in reads),
            "site_work_s": sum(m[3] for m in reads),
            "fragments_pruned": sum(m[4] for m in reads),
            "cache_hits": snap("cache.hits"),
            "cache_misses": snap("cache.misses"),
            "cache_evictions": snap("cache.evictions"),
            "artifact_hits": snap("artifacts.hits") + snap("artifacts.joins"),
            "artifact_misses": snap("artifacts.misses"),
            "artifact_evictions": snap("artifacts.evictions"),
            "plan_cache_hits": snap("gateway.plan_cache.hits"),
            "plan_cache_misses": snap("gateway.plan_cache.misses"),
        }

    def end_to_end(self, setup_s: float) -> dict:
        reads = [r.wall for r in self.records if r.kind == "read" and not r.traced]
        busy = sum(r.wall for r in self.records if not r.traced)
        return {
            "wall_ms_p50": statistics.median(reads) * 1000.0,
            "wall_ms_p95": percentile(reads, 95) * 1000.0,
            "throughput_qps": len(reads) / busy,
            "modeled_response_s_mean": self.modeled()["modeled_response_s_mean"],
            "setup_s": setup_s,
            "mem_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def writes_p50_ms(self) -> float:
        writes = [r.wall for r in self.records if r.kind == "write" and not r.traced]
        return statistics.median(writes) * 1000.0 if writes else 0.0

    def tracing_overhead_ms(self) -> float:
        """Traced minus untraced read p50, per shape, weighted by reads."""
        by_shape: dict[tuple[str, bool], list[float]] = {}
        for r in self.records:
            if r.kind == "read":
                by_shape.setdefault((r.shape, r.traced), []).append(r.wall)
        total = weight = 0.0
        for (shape, traced), walls in by_shape.items():
            untraced = by_shape.get((shape, False))
            if traced and untraced:
                n = len(walls) + len(untraced)
                total += n * (statistics.median(walls) - statistics.median(untraced))
                weight += n
        return ratio(total, weight) * 1000.0

    def per_layer(self) -> dict:
        from spans import layer_totals

        spans = self.tracer.spans
        traced = [r for r in self.records if r.traced]
        reads = {r.index for r in traced if r.kind == "read"}
        writes = {r.index for r in traced if r.kind == "write"}
        totals = layer_totals(spans, reads)
        to_ms = 1000.0 * self.gauge.median_factor()
        values = {
            metric: sum(totals.get(name, 0.0) for name in names) * to_ms / len(reads)
            for metric, names in LAYER_MS.items()
        }
        window_reads = {i for i in reads if i < self.window}
        names = {s[0]: s[3] for s in spans if s[2] in window_reads}
        bids = fetches = examined = returned = 0
        for _, parent, query, name, _, _, counts in spans:
            if query not in window_reads:
                continue
            if name == "agoric.collect_bids":
                bids += counts["bids"]
            elif name == "source.fetch":
                fetches += 1
                returned += counts["rows_out"]
            elif name == "apply_predicates" and names.get(parent) == "source.fetch":
                examined += counts["rows_in"]
        notify = [
            s[5] - s[4] for s in spans if s[3] == "catalog.notify" and s[2] in writes
        ]
        modeled = self.modeled()
        n = modeled["reads"]
        values.update(
            {
                "agoric.bids_per_query": ratio(bids, len(window_reads)),
                "gateway.plan_cache_hit_ratio": ratio(
                    modeled["plan_cache_hits"],
                    modeled["plan_cache_hits"] + modeled["plan_cache_misses"],
                ),
                "source.rows_examined_per_row_returned": ratio(examined, max(returned, 1)),
                "source.fetches_per_query": ratio(fetches, len(window_reads)),
                "ship.wire_bytes_per_query": ratio(modeled["wire_bytes"], n),
                "ship.rows_shipped_per_query": ratio(modeled["rows_shipped"], n),
                "cache.hit_ratio": ratio(
                    modeled["cache_hits"],
                    modeled["cache_hits"] + modeled["cache_misses"],
                ),
                "cache.evictions": modeled["cache_evictions"],
                "artifacts.hit_ratio": ratio(
                    modeled["artifact_hits"],
                    modeled["artifact_hits"] + modeled["artifact_misses"],
                ),
                "pruning.fragments_pruned_per_query": ratio(modeled["fragments_pruned"], n),
                "modeled.site_work_s_per_query": ratio(modeled["site_work_s"], n),
                "catalog.notify_ms": ratio(sum(notify) * to_ms, len(notify)),
                "write.wall_ms_p50": self.writes_p50_ms(),
                "trace.overhead_ms": self.tracing_overhead_ms(),
            }
        )
        return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--window", type=int, default=None,
        help="timed operations in the deterministic window (smoke tests shrink it)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    window = args.window if args.window is not None else WINDOW[workload.name]
    run = Run(workload, args.seconds, bool(args.trace), window)
    setup_s = run.setup()
    workload.build_oracle()
    run.execute(WARMUP[workload.name])

    modeled = run.modeled()
    digest = hashlib.sha256(
        json.dumps(modeled, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"modeled window {json.dumps(modeled, sort_keys=True)} digest {digest}")
    print(
        f"host speed factor {run.gauge.median_factor():.4f} "
        f"(times below are scaled to the reference host)"
    )
    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        run.tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl")
    else:
        metrics, units = run.end_to_end(setup_s), END_TO_END
    error_rate = len(run.failures) / run.attempted
    print(f"error_rate {error_rate:.6f} ratio ({len(run.failures)} of {run.attempted})")
    if any(r.kind == "write" for r in run.records) and not args.trace:
        print(f"write_wall_ms_p50 {run.writes_p50_ms():.6f} ms")
    for failure in run.failures:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6f} {unit}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
