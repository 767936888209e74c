#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_harness.py

The rule tests are pure, among them the rejection of a report digest
that does not match. The smoke tests build the driver (Release, into
.bench_build/perfbench) and run every workload at a one-second size, so
each workload's correctness checks run, the committed digests included.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402

SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "tests")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TailRule(unittest.TestCase):
    def test_hundred_samples_give_p90_with_ten_beyond(self):
        value, pct, n = harness.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_twenty_samples_give_the_median(self):
        value, pct, _ = harness.tail(list(range(1, 21)))
        self.assertEqual((value, pct), (10, 50.0))

    def test_too_few_samples_give_the_maximum(self):
        value, pct, n = harness.tail([5.0, 1.0, 3.0])
        self.assertEqual((value, pct, n), (5.0, 100.0, 3))

    def test_windows_keep_the_percentile_and_take_the_mean(self):
        # Windows of 100, 100 and 150 samples (the last takes the
        # remainder); all qualify for p90 only.
        value, pct, n = harness.tail(list(range(1, 351)))
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 350)
        self.assertEqual(value, (90 + 190 + 335) / 3)

    def test_p50_is_the_mean_of_window_medians(self):
        self.assertEqual(harness.p50([3.0, 1.0, 2.0]), 2.0)
        # Windows of 20, 20 and 30 samples (the last takes the remainder).
        self.assertEqual(harness.p50(list(range(1, 71))),
                         (10.5 + 30.5 + 55.5) / 3)

    def test_p50_window_has_ten_beyond_its_median(self):
        self.assertEqual(harness.beyond(harness.P50_WINDOW, 50.0),
                         harness.TAIL_BEYOND)

    def test_chosen_percentile_is_the_highest_with_ten_beyond(self):
        ladder = harness.PERCENTILE_LADDER
        for size in range(20, 2 * harness.TAIL_WINDOW):
            _, p = harness.window_tail(list(range(size)))
            self.assertGreaterEqual(harness.beyond(size, p), 10, size)
            higher = [q for q in ladder if q > p]
            if higher:
                self.assertLess(harness.beyond(size, higher[0]), 10, size)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.tail([])


class FailedShare(unittest.TestCase):
    def test_errors_and_timeouts_count_once_each(self):
        outcomes = [{"error": "boom", "timed_out": False},
                    {"error": "", "timed_out": True},
                    {"error": "both", "timed_out": True},
                    {"error": "", "timed_out": False}]  # verdict violation
        self.assertEqual(harness.count_failed(outcomes), 3)
        self.assertEqual(harness.failed_share(12, outcomes), 0.25)

    def test_violations_are_results_not_failures(self):
        self.assertEqual(harness.failed_share(
            100, [{"error": "", "timed_out": False}] * 5), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            harness.failed_share(0, [])


class ReportDigest(unittest.TestCase):
    COMMITTED = {"bg_grid": "00000000000000aa"}

    def test_wrong_digest_fails_the_run(self):
        check = harness.digest_check("bg_grid", harness.DEFAULT_SEED,
                                     "00000000000000bb", self.COMMITTED)
        self.assertFalse(check["ok"])
        passed = {"name": "x", "ok": True}
        self.assertFalse(harness.run_correct([passed, check], 0, 10))
        self.assertTrue(harness.run_correct([passed], 0, 10))

    def test_matching_digest_passes(self):
        check = harness.digest_check("bg_grid", harness.DEFAULT_SEED,
                                     "00000000000000aa", self.COMMITTED)
        self.assertTrue(check["ok"])

    def test_missing_committed_digest_fails(self):
        self.assertFalse(harness.digest_check(
            "racy_sharded", harness.DEFAULT_SEED, "ab", self.COMMITTED)["ok"])

    def test_other_seeds_have_no_digest_check(self):
        self.assertIsNone(harness.digest_check(
            "bg_grid", harness.DEFAULT_SEED + 1, "bb", self.COMMITTED))

    def test_every_workload_has_a_committed_digest(self):
        with open(os.path.join(HERE, "digests.json")) as f:
            self.assertEqual(set(json.load(f)), set(harness.WORKLOADS))

    def test_failures_or_nothing_attempted_are_not_correct(self):
        self.assertFalse(harness.run_correct([], 1, 10))
        self.assertFalse(harness.run_correct([], 0, 0))


class Confinement(unittest.TestCase):
    def test_one_cpu_the_highest_allowed(self):
        self.assertEqual(harness.confine({3, 1, 2, 0}), [3])
        self.assertEqual(harness.confine({5}), [5])


class BenchmarkJson(unittest.TestCase):
    def test_committed_file_is_valid(self):
        self.assertEqual(harness.validate_benchmark(load_benchmark()), [])

    def test_workloads_and_not_applicable_names_are_declared(self):
        doc = load_benchmark()
        self.assertEqual(tuple(w["name"] for w in doc["workloads"]),
                         harness.WORKLOADS)
        names = {m["name"] for m in doc["per_layer"]}
        for skipped in harness.NOT_APPLICABLE.values():
            self.assertLessEqual(set(skipped), names)

    def mutated(self, section, index, **fields):
        doc = copy.deepcopy(load_benchmark())
        doc[section][index].update(fields)
        return harness.validate_benchmark(doc)

    def test_name_charset(self):
        for bad in ("has space", "_leading", "-leading", "a" * 65, "é", "",
                    "semi;colon"):
            self.assertTrue(self.mutated("per_layer", 0, name=bad), bad)
        for good in ("a", "0x", "module.metric_name-2", "a" * 64):
            self.assertEqual(self.mutated("per_layer", 0, name=good), [], good)

    def test_names_are_used_once_across_sections(self):
        doc = load_benchmark()
        clash = doc["end_to_end"][0]["name"]
        self.assertTrue(self.mutated("per_layer", 0, name=clash))
        self.assertTrue(self.mutated("workloads", 0, name=clash))

    def test_unit_charset_and_bound_limit(self):
        self.assertTrue(self.mutated("end_to_end", 0, unit="per second"))
        self.assertTrue(self.mutated("end_to_end", 0, bound=0.3))
        self.assertTrue(self.mutated("end_to_end", 0, bound=0))
        self.assertEqual(self.mutated("end_to_end", 0, unit="1/s"), [])

    def test_setup_s_is_required(self):
        doc = load_benchmark()
        doc["end_to_end"] = [m for m in doc["end_to_end"]
                             if m["name"] != "setup_s"]
        self.assertTrue(harness.validate_benchmark(doc))

    def test_why_is_one_short_line(self):
        self.assertTrue(self.mutated("workloads", 0, why="two\nlines"))
        self.assertTrue(self.mutated("workloads", 0, why="x" * 201))


class Metrics(unittest.TestCase):
    RAW = {"calls": [{"wall_s": 2.0, "user_s": 1.0, "sys_s": 1.0,
                      "steps": 1000, "schedules": 10, "cells": 20}] * 3,
           "cell_ms": [float(i) for i in range(1, 101)],
           "setup_s": [0.3, 0.1, 0.2],
           "peak_rss_kb": 2048}

    def test_end_to_end(self):
        m, detail = harness.end_to_end(self.RAW)
        self.assertEqual(m["schedules_per_s"], 5.0)
        self.assertEqual(m["cells_per_s"], 10.0)
        self.assertEqual(m["steps_per_s"], 500.0)
        self.assertEqual(m["cpu_us_per_step"], 2000.0)
        self.assertEqual(m["cell_ms_p50"], 50.5)
        self.assertEqual(m["cell_ms_tail"], 90.0)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 2.0)
        self.assertEqual(detail["cell_ms_tail_percentile"], 90.0)
        names = {e["name"] for e in load_benchmark()["end_to_end"]}
        self.assertEqual(set(m), names)

    def test_rates_are_totals_over_calls(self):
        slow = {"wall_s": 4.0, "user_s": 1.0, "sys_s": 2.0, "steps": 100,
                "schedules": 10, "cells": 10}
        fast = dict(slow, wall_s=1.0, user_s=1.0, sys_s=0.5)
        m, _ = harness.end_to_end(dict(self.RAW, calls=[fast, slow, fast]))
        # Per-call schedule rates 10, 2.5, 10 have median 10; the total
        # is 30 schedules in 6 s.
        self.assertEqual(m["schedules_per_s"], 5.0)
        self.assertEqual(m["steps_per_s"], 50.0)
        self.assertEqual(m["cpu_us_per_step"], 20000.0)

    def test_per_layer_refuses_unmeasured_metrics(self):
        raw = {"workload": "racy_sharded", "layers": {"a.x": 1.0},
               "samples": {}, "parts": [{"name": "p", "s": 1.0}],
               "decomposed_untraced_s": 2.0}
        out, _ = harness.per_layer(raw, ["a.x", "obs.residue_share",
                                         "core.sim_step_ns"])
        self.assertEqual(out, {"a.x": 1.0, "obs.residue_share": 0.5,
                               "core.sim_step_ns": 0.0})
        with self.assertRaises(KeyError):
            harness.per_layer(raw, ["dist.shard_speedup"])


def run_bench(workload, seed, trace=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, r.stderr


class Smoke(unittest.TestCase):
    """Each workload at a one-second size, through run.py."""

    NEW_SEED = 424242  # not a seed the benchmark was written against

    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)

    def assert_correct(self, workload, seed, trace=0):
        code, lines, err = run_bench(workload, seed, trace)
        self.assertEqual(code, 0, err[-2000:] + "\n".join(lines[-5:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        names = [m["name"] for m in load_benchmark()[section]]
        self.assertEqual(list(result["metrics"]), names)
        return result

    def test_every_workload_default_seed_matches_its_digest(self):
        for w in harness.WORKLOADS:
            with self.subTest(workload=w):
                m = self.assert_correct(w, harness.DEFAULT_SEED)["metrics"]
                for e in load_benchmark()["end_to_end"]:
                    self.assertGreater(m[e["name"]]["value"], 0, e["name"])
                results = os.path.join(ROOT, ".bench_build", "perfbench",
                                       "results",
                                       "%s-seed%d-trace0.json"
                                       % (w, harness.DEFAULT_SEED))
                with open(results) as f:
                    checks = {c["name"]: c for c in json.load(f)["checks"]}
                self.assertTrue(checks["report_digest"]["ok"])

    def test_every_workload_on_a_new_seed(self):
        for w in harness.WORKLOADS:
            with self.subTest(workload=w):
                self.assert_correct(w, self.NEW_SEED)

    def test_traced_runs(self):
        for w in harness.WORKLOADS:
            with self.subTest(workload=w):
                self.assert_correct(w, self.NEW_SEED, trace=1)

    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, err = run_bench("bg_grid", 1, cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith('{"correct"') for line in lines))
        self.assertIn("library sources missing", err)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
