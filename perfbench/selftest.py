"""Self-test of the benchmark (run from the repository root, about two minutes):

    python3 perfbench/selftest.py

Checks that a wrong or raised answer counts as a failed operation, that a
smoke-size run of every workload prints every metric with its unit in both
modes, that modeled numbers repeat exactly for one seed (traced or not),
that ``BENCHMARK.json`` lists the metrics ``run.py`` prints, that a
workload's teardown frees its build, and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
import weakref
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = SEED, window: int = 12):
    """Run a smoke-size benchmark; returns (stdout lines, final JSON)."""
    done = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--window", str(window),
    )
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class CorruptingWorkload:
    """Wraps a workload so every read returns a damaged answer."""

    def __init__(self, inner, damage) -> None:
        self.inner = inner
        self.damage = damage
        self.name = inner.name

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def next_op(self):
        op = self.inner.next_op()
        if op.kind == "read":
            run_op = op.run

            def damaged():
                rows, report = run_op()
                return self.damage(rows), report

            op.run = damaged
        return op


def drop_last_row(rows):
    return list(rows)[:-1] if rows else [("phantom",)]


def nudge_first_value(rows):
    rows = [list(row) for row in rows]
    for row in rows:
        for i, value in enumerate(row):
            if isinstance(value, float):
                row[i] = value * (1 + 1e-6)
                return rows
    return rows + [rows[0] if rows else ["phantom"]]


def raise_error(rows):
    raise RuntimeError("injected failure")


class WrongAnswersFail(unittest.TestCase):
    def _failures(self, name: str, damage) -> run.Run:
        workload = CorruptingWorkload(WORKLOADS[name](SEED), damage)
        bench_run = run.Run(workload, seconds=0.0, trace=False, window=6)
        workload.setup()
        workload.build_oracle()
        bench_run.execute(warmup=0)
        return bench_run

    def test_each_damage_on_each_workload_is_a_failure(self):
        for name in WORKLOADS:
            for damage in (drop_last_row, nudge_first_value, raise_error):
                with self.subTest(workload=name, damage=damage.__name__):
                    bench_run = self._failures(name, damage)
                    reads = [r for r in bench_run.records if r.kind == "read"]
                    self.assertEqual(len(bench_run.failures), len(reads))
                    self.assertTrue(all(r.modeled is None for r in reads))

    def test_correct_answers_pass(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                bench_run = self._failures(name, lambda rows: rows)
                self.assertEqual(bench_run.failures, [])


class SmokeRuns(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for name in WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    lines, result = smoke(name, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 12)
                    self.assertEqual(set(result["metrics"]), set(units))
                    for metric, unit in units.items():
                        self.assertEqual(result["metrics"][metric]["unit"], unit)
                        self.assertTrue(
                            any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                                for line in lines),
                            metric,
                        )
                    self.assertTrue(any(line.startswith("error_rate ") for line in lines))
                    if trace:
                        spans = HERE / "out" / f"spans-{name}.jsonl"
                        first = json.loads(spans.read_text().splitlines()[0])
                        self.assertLessEqual(
                            {"id", "parent", "query", "name", "start_ms", "end_ms"},
                            set(first),
                        )

    def test_modeled_numbers_repeat_for_one_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                digests = [
                    next(line for line in smoke(name, trace, window=20)[0]
                         if line.startswith("modeled window "))
                    for trace in (0, 0, 1)
                ]
                self.assertEqual(len(set(digests)), 1, digests)
                other = next(line for line in smoke(name, 0, seed=SEED + 1, window=20)[0]
                             if line.startswith("modeled window "))
                self.assertNotEqual(other, digests[0])


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER
        )
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))

    def test_teardown_frees_the_build(self):
        # Set-up repeats must never hold two builds, or mem_peak_mb counts both.
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = WORKLOADS[name](SEED)
                workload.setup()
                engine = weakref.ref(workload.engine)
                workload.teardown()
                gc.collect()
                self.assertIsNone(engine())

    def test_refuses_without_program_source(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, Path(bare) / HERE.name,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "hotel_live",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
