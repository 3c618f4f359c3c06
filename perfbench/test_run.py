"""Tests of the benchmark's statistics, checks and output schema.

    python3 -m unittest discover -s perfbench
"""

import json
import math
import os
import re
import statistics
import unittest

import run

SPEC = run.load_spec()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fake_raw(workload="train-resnet12-fp32", **over):
    """A perfbench document with every sample and per-layer value present."""
    raw = {
        "workload": workload,
        "seed": 7,
        "manifest": {
            "nproc": 4, "hardware_concurrency": 4, "capacity_threads": 4,
            "capacity_x": 3.5, "gemm_kernel": "avx2",
            "int8_kernel": "avx2", "build_type": "Release",
            "threads": run.WORKLOADS[workload]["threads"],
            "env": {"REMAPD_THREADS": "1"},
        },
        "trials": 3, "attempted": 24, "failed": 0,
        "acc_last3": [0.6, 0.7, 0.8],
        "checks": [{"name": "thread-invariance", "ok": True,
                    "detail": "0 of 1 failed"}],
        "samples": {m["name"]: [1.0, 2.0, 3.0]
                    for m in SPEC["end_to_end"]},
        "per_layer": {m["name"]: 0.5 for m in SPEC["per_layer"]},
    }
    raw.update(over)
    return raw


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(run.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_quartile_spread_matches_statistics_quantiles(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        self.assertAlmostEqual(run.quartile_spread(vals),
                               (q3 - q1) / statistics.median(vals))
        self.assertEqual(run.quartile_spread([5.0]), 0.0)
        self.assertEqual(run.quartile_spread([2.0, 2.0, 2.0]), 0.0)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(list(range(39))))
        p, _ = run.tail_percentile([float(i) for i in range(40)])
        self.assertEqual(p, 75)
        p, _ = run.tail_percentile([float(i) for i in range(100)])
        self.assertEqual(p, 90)
        p, v = run.tail_percentile([float(i) for i in range(1000)])
        self.assertEqual(p, 99)
        self.assertAlmostEqual(v, statistics.quantiles(range(1000), n=100)[98])

    def test_self_time_subtracts_direct_children(self):
        ev = [
            {"ph": "X", "tid": 1, "ts": 0, "dur": 100,
             "args": {"layer": "perfbench"}},
            {"ph": "X", "tid": 1, "ts": 10, "dur": 50,
             "args": {"layer": "trainer"}},
            {"ph": "X", "tid": 1, "ts": 20, "dur": 30,
             "args": {"layer": "nn"}},
            {"ph": "X", "tid": 1, "ts": 70, "dur": 20,
             "args": {"layer": "nn"}},
            # Another thread's span never counts as a child.
            {"ph": "X", "tid": 2, "ts": 5, "dur": 90,
             "args": {"layer": "nn"}},
            {"ph": "i", "tid": 1, "ts": 30, "args": {"layer": "core"}},
        ]
        t = run.self_times(ev)
        self.assertAlmostEqual(t["perfbench"][0], 30e-6)  # 100 - 50 - 20
        self.assertAlmostEqual(t["trainer"][0], 20e-6)    # 50 - 30
        self.assertAlmostEqual(t["nn"][0], 140e-6)        # 30 + 20 + 90
        self.assertEqual(t["nn"][1], 3)
        self.assertNotIn("core", t)


class Schema(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["paths"], ["perfbench"])
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        seen = set(names)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def check_result(self, trace, workload="train-resnet12-fp32"):
        raw = fake_raw(workload)
        metrics, checks = run.reduce(SPEC, raw, workload, trace)
        line = run.result_line(metrics, checks, raw)
        out = json.loads(line)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"], checks)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        self.assertEqual(set(out["metrics"]), set(want))
        for name, row in out["metrics"].items():
            self.assertEqual(set(row), {"value", "unit"})
            self.assertEqual(row["unit"], want[name])
            self.assertTrue(math.isfinite(row["value"]))
        text = run.report(SPEC, raw, metrics, checks, trace, None)
        for name, unit in want.items():
            self.assertRegex(
                text, rf"\b{re.escape(name)}\s+\S+ {re.escape(unit)}")
        return out

    def test_every_end_to_end_metric_printed_with_unit(self):
        out = self.check_result(trace=0)
        self.assertEqual(out["metrics"]["epoch_s"]["value"], 2.0)

    def test_every_per_layer_metric_printed_with_unit(self):
        self.check_result(trace=1)
        self.check_result(trace=1, workload="fleet-migrate")


class Checks(unittest.TestCase):
    def verdict(self, raw, workload="train-resnet12-fp32", trace=0):
        metrics, checks = run.reduce(SPEC, raw, workload, trace)
        return json.loads(run.result_line(metrics, checks, raw))

    def test_failed_binary_check_fails_the_run(self):
        raw = fake_raw(checks=[{"name": "finite-loss", "ok": False,
                                "detail": "1 of 8 failed"}])
        self.assertFalse(self.verdict(raw)["correct"])

    def test_failed_ops_fail_the_run(self):
        out = self.verdict(fake_raw(failed=2))
        self.assertFalse(out["correct"])
        self.assertEqual((out["attempted"], out["failed"]), (24, 2))

    def test_accuracy_floor_applies_to_the_median_trial(self):
        floor = run.WORKLOADS["train-resnet12-fp32"]["acc_floor"]
        low = floor - 0.01
        self.assertFalse(
            self.verdict(fake_raw(acc_last3=[0.9, low, low]))["correct"])
        # One diverged seed does not fail the run.
        self.assertTrue(
            self.verdict(fake_raw(acc_last3=[0.9, 0.1, floor]))["correct"])
        # The fleet has no floor.
        self.assertTrue(self.verdict(fake_raw("fleet-migrate",
                                              acc_last3=[0.05]),
                                     "fleet-migrate")["correct"])

    def test_zero_or_missing_metric_fails_the_run(self):
        raw = fake_raw()
        raw["samples"]["run_s"] = [0.0, 1.0]
        self.assertFalse(self.verdict(raw)["correct"])
        raw = fake_raw()
        del raw["per_layer"]["fleet.slices"]
        self.assertFalse(self.verdict(raw, trace=1)["correct"])

    def test_wrong_thread_count_fails_the_run(self):
        raw = fake_raw()
        raw["manifest"]["threads"] = 3
        self.assertFalse(self.verdict(raw)["correct"])


class Command(unittest.TestCase):
    def test_command_names_only_benchmark_files(self):
        self.assertEqual(SPEC["command"][0], "python3")
        for arg in SPEC["command"][1:]:
            self.assertFalse(arg.startswith("/"))
            self.assertTrue(arg.startswith("perfbench/"))
            self.assertTrue(os.path.isfile(os.path.join(run.ROOT, arg)))


if __name__ == "__main__":
    unittest.main()
