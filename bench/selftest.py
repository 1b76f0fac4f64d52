#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of superberezin).

    python3 bench/selftest.py

They check that the oracle can fail, that times are rescaled to the
reference pace, that an untraced run leaves the package untouched, that traced counts repeat exactly, that the seed
changes the item order, and that the output and failure contracts hold.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import pace  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = run.import_package()

# cheap item kinds of each workload, enough to reach every layer
CHEAP = {
    "verify-sweep": ("support", "fubini-signs", "ex-product-axb", "ex-unimod-gl11"),
    "solver-ladder": ("kz11", "kz21", "haar_axb_right", "modular_gl11"),
    "berezinian-scale": ("ber_33_L6", "ber_33_L8"),
}


def spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class WorkDir:
    """A directory under bench/.work that is removed afterwards."""

    def __enter__(self) -> str:
        os.makedirs(run.WORK, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def cheap_plan(workload: str, seed: int, rounds: int, path: str, frozen: dict):
    plan = workloads.WORKLOADS[workload][0](seed, rounds, path, frozen)
    plan.rounds = [[item for item in items if item.kind in CHEAP[workload]]
                   for items in plan.rounds]
    return plan


class OracleTest(unittest.TestCase):
    def test_frozen_answers_pass(self):
        frozen = run.load_frozen()
        for workload in CHEAP:
            for seed in (0, 3):
                with WorkDir() as path:
                    plan = cheap_plan(workload, seed, 3, path, frozen)
                    results = run.run_rounds(plan, math.inf)
                self.assertEqual(run.summarize(results)["failed"], 0, workload)

    def test_corrupted_frozen_answer_fails(self):
        for workload, kind in (("verify-sweep", "support"),
                               ("solver-ladder", "kz11"),
                               ("berezinian-scale", "ber_33_L8")):
            frozen = copy.deepcopy(run.load_frozen())
            answer = frozen[workload][kind]
            frozen[workload][kind] = [2, "odd"] if isinstance(answer, list) else "0" * 64
            with WorkDir() as path:
                plan = cheap_plan(workload, 3, 2, path, frozen)
                results = run.run_rounds(plan, math.inf)
            failed = [row.kind for row in results if row.failure is not None]
            self.assertEqual(failed, [kind] * 2, workload)
            self.assertGreater(run.summarize(results)["failed"], 0)

    def test_summary_takes_each_kind_at_its_median_repetition(self):
        rows = [run.Result(r, kind, 10.0, 10.0 + seconds, None, 0.0)
                for r, kind, seconds in ((0, "a", 3.0), (1, "a", 1.0), (2, "a", 2.0),
                                         (0, "b", 2.0), (1, "b", 4.0), (2, "b", 6.0))]
        summary = run.summarize(rows + [run.Result(3, "c", 0.0, 9.0, "FAIL", 0.0)])
        self.assertEqual(summary["items_per_s"], 2 / 6.0)
        self.assertEqual(summary["item_ms_p50"], 3000.0)
        self.assertEqual(summary["item_ms_tail"], 4000.0)
        self.assertEqual((summary["attempted"], summary["failed"]), (7, 1))


class PaceTest(unittest.TestCase):
    REF = pace.REFERENCE_S

    def test_times_are_rescaled_by_the_probe_speed_during_them(self):
        host = pace.Pace()
        # a probe every 0.1 s, each taking twice the reference: half pace
        host.ends = [0.05 + 0.1 * i for i in range(40)]
        host.durations = [2 * self.REF] * 40
        own = host.own_seconds(1.0, 3.0)
        self.assertAlmostEqual(own, 2.0 - 20 * 2 * self.REF)
        self.assertAlmostEqual(host.reference_seconds(1.0, 3.0), own / 2)

    def test_a_short_time_takes_the_pace_of_the_nearest_probes(self):
        host = pace.Pace()
        host.ends = [0.05 + 0.1 * i for i in range(40)]
        host.durations = [self.REF] * 20 + [4 * self.REF] * 20
        self.assertAlmostEqual(host.reference_seconds(3.51, 3.52), 0.01 / 4)
        self.assertAlmostEqual(host.reference_seconds(0.51, 0.52), 0.01)

    def test_probes_run_only_inside_the_block(self):
        handler = signal.getsignal(signal.SIGALRM)
        with pace.Pace() as host:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        count = len(host.durations)
        self.assertGreater(count, 3)
        time.sleep(0.1)
        self.assertEqual(len(host.durations), count)
        self.assertEqual(signal.getsignal(signal.SIGALRM), handler)


class TracerTest(unittest.TestCase):
    def test_untraced_run_leaves_functions_unwrapped(self):
        tracing.import_layers(PACKAGE)
        before = tracing.snapshot(PACKAGE)
        frozen = run.load_frozen()
        for workload in CHEAP:
            with WorkDir() as path:
                run.run_rounds(cheap_plan(workload, 1, 1, path, frozen), math.inf)
        after = tracing.snapshot(PACKAGE)
        self.assertEqual(before.keys(), after.keys())
        changed = [where for where in before if before[where] is not after[where]]
        self.assertEqual(changed, [])

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        tracing.import_layers(PACKAGE)
        before = tracing.snapshot(PACKAGE)
        tracer = tracing.Tracer()
        tracer.install(PACKAGE)
        try:
            during = tracing.snapshot(PACKAGE)
            supergroup = sys.modules["superberezin.supergroup"]
            linalg = sys.modules["superberezin.linalg"]
            berezin = sys.modules["superberezin.berezin"]
            superdomain = sys.modules["superberezin.superdomain"]
            suites = sys.modules["superberezin.suites"]
            self.assertIs(supergroup.nullspace, linalg.nullspace)
            self.assertIsNot(linalg.nullspace, before[("superberezin.linalg", "nullspace")])
            self.assertIs(berezin.pullback, superdomain.pullback)
            self.assertIs(supergroup.pullback, superdomain.pullback)
            self.assertIs(suites.SUITES["berezinian"],
                          suites.berezinian_multiplicativity_suite)
            self.assertIs(PACKAGE.pullback, superdomain.pullback)
        finally:
            tracer.uninstall()
        self.assertNotEqual(before, during)
        after = tracing.snapshot(PACKAGE)
        self.assertTrue(all(before[where] is after[where] for where in before))

    def traced_counts(self) -> dict:
        frozen = run.load_frozen()
        tracer = tracing.Tracer()
        tracing.import_layers(PACKAGE)
        tracer.install(PACKAGE)
        try:
            for workload in CHEAP:
                with WorkDir() as path:
                    tracer.item = "setup"
                    plan = cheap_plan(workload, 5, 2, path, frozen)
                    results = run.run_rounds(plan, math.inf, tracer)
                self.assertEqual(run.summarize(results)["failed"], 0)
        finally:
            tracer.uninstall()
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        return {name: value for name, value in tracer.layer_metrics().items()
                if units[name] in ("count", "ratio")}

    def test_traced_counts_repeat_exactly(self):
        first, second = self.traced_counts(), self.traced_counts()
        self.assertEqual(first, second)
        self.assertGreater(first["grassmann.mul_calls"], 0)
        self.assertGreater(first["linalg.calls"], 0)
        self.assertGreater(first["koszul.slices_built"], 0)
        self.assertGreater(first["cli.calls"], 0)


class SeedTest(unittest.TestCase):
    def inputs(self, workload: str, seed: int):
        with WorkDir() as path:
            plan = workloads.WORKLOADS[workload][0](seed, 3, path, run.load_frozen())
            files = {}
            for name in sorted(os.listdir(path)):
                with open(os.path.join(path, name), encoding="utf-8") as handle:
                    files[name] = handle.read()
        return plan.record, files

    def test_seed_changes_the_item_order(self):
        for workload in CHEAP:
            record_a, files_a = self.inputs(workload, 1)
            record_b, files_b = self.inputs(workload, 2)
            self.assertEqual(self.inputs(workload, 1), (record_a, files_a))
            self.assertNotEqual(record_a["orders"], record_b["orders"], workload)
            self.assertEqual(record_a["orders"][0], record_b["orders"][0])
        # the matrices are the frozen default ones whatever the seed
        self.assertEqual(len(files_a), 12)
        self.assertEqual(files_a, files_b)


class ContractTest(unittest.TestCase):
    def test_result_line_has_every_end_to_end_metric(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "berezinian-scale", "--seed", "4", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=run.ROOT, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec()["end_to_end"]})
        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_result_line_has_every_per_layer_metric(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "berezinian-scale", "--seed", "4", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=170, cwd=run.ROOT, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        self.assertEqual(set(metrics), {m["name"] for m in spec()["per_layer"]})
        # the predicted split: Grassmann arithmetic is the largest self time
        self_times = {n: v for n, v in metrics.items() if n.endswith(".self_s")}
        self.assertEqual(max(self_times, key=self_times.get), "grassmann.self_s")

    def test_predictions_cover_every_per_layer_metric_once(self):
        with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
            predictions = json.load(handle)
        names = [n for p in predictions["predictions"] for n in p["metrics"]]
        self.assertEqual(sorted(names), sorted(m["name"] for m in spec()["per_layer"]))
        end_to_end = {m["name"] for m in spec()["end_to_end"]}
        for row in predictions["predictions"]:
            self.assertLessEqual(set(row["moves"]), end_to_end)
            self.assertLessEqual(set(row["on"]) | set(row["flat_on"]),
                                 set(workloads.WORKLOADS))
        self.assertEqual(set(predictions["workloads"]), set(workloads.WORKLOADS))

    def test_without_the_program_exits_nonzero_and_prints_no_result(self):
        with WorkDir() as path:
            shutil.copytree(HERE, os.path.join(path, "bench"),
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), path)
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=170, cwd=path,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_tail_percentile_leaves_ten_items_beyond(self):
        for n in (36, 60, 72, 135, 150):
            q = run.tail_percentile(n)
            rank = -(-q * n // 100)
            self.assertGreaterEqual(n - rank, 10)
            self.assertLess(n - (-(-(q + 1) * n // 100)), 10)
        self.assertEqual(run.tail_percentile(15), 100)
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 100), 3.0)


if __name__ == "__main__":
    unittest.main()
