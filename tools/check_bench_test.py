#!/usr/bin/env python3
"""Tests for tools/check_bench.py, the CI perf-regression gate.

The exit-code cases run the gate as CI does, as a subprocess over a
baseline and a fresh directory: the committed baselines against
themselves, and against copies with one edit each.  The classification
cases read the committed baselines and check which of their metrics
the default gate compares.

stdlib-only, like the gate:  python3 tools/check_bench_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINES = os.path.join(os.path.dirname(HERE), "bench", "baselines")
CHECK = os.path.join(HERE, "check_bench.py")

sys.path.insert(0, HERE)
import check_bench  # noqa: E402


def run_gate(baseline_dir, fresh_dir):
    """The gate's exit code for one baseline/fresh directory pair."""
    return subprocess.run(
        [sys.executable, CHECK, "--baseline-dir", baseline_dir,
         "--fresh-dir", fresh_dir],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def gated_by_key(name):
    """{final key: set of gated? flags} over a committed baseline."""
    metrics = check_bench.load_metrics(os.path.join(BASELINES, name))
    out = {}
    for path in metrics:
        gated = check_bench.classify(path, include_wallclock=False,
                                     name=name)
        out.setdefault(check_bench.last_key(path), set()).add(
            gated is not None)
    return out


class ExitCodes(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.fresh = os.path.join(self.tmp.name, "fresh")
        shutil.copytree(BASELINES, self.fresh)

    def tearDown(self):
        self.tmp.cleanup()

    def edit(self, name, change):
        path = os.path.join(self.fresh, name)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        change(document)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

    def scale_gp_rmse(self, factor):
        def change(document):
            for row in document["quality"]:
                row["exact_rmse"] *= factor
        self.edit("BENCH_gp.json", change)

    def test_baselines_pass_against_themselves(self):
        self.assertEqual(run_gate(BASELINES, BASELINES), 0)

    def test_fresh_leaf_missing_from_baseline_fails(self):
        self.edit("BENCH_gp.json", lambda d: d.update(new_counter=1))
        self.assertEqual(run_gate(BASELINES, self.fresh), 1)

    def test_missing_fresh_file_fails(self):
        os.remove(os.path.join(self.fresh, "BENCH_machine.json"))
        self.assertEqual(run_gate(BASELINES, self.fresh), 1)

    def test_gated_cost_30_percent_worse_fails(self):
        self.scale_gp_rmse(1.3)
        self.assertEqual(run_gate(BASELINES, self.fresh), 1)

    def test_gated_cost_20_percent_worse_passes(self):
        self.scale_gp_rmse(1.2)
        self.assertEqual(run_gate(BASELINES, self.fresh), 0)

    def test_dead_storage_above_baseline_fails(self):
        def change(document):
            document["census"]["dead_chunks"] += 1
        self.edit("BENCH_dynatree.json", change)
        self.assertEqual(run_gate(BASELINES, self.fresh), 1)

    def test_model_state_change_in_either_direction_fails(self):
        edits = {
            "ess": lambda d, s: d["update"][0].update(
                ess=d["update"][0]["ess"] + s * 0.001),
            "unique_runs": lambda d, s: d["scoring"][1].update(
                unique_runs=d["scoring"][1]["unique_runs"] + s),
            "tree_bytes": lambda d, s: d["census"].update(
                tree_bytes=d["census"]["tree_bytes"] + s * 8),
        }
        for key, change in edits.items():
            for sign in (1, -1):
                with self.subTest(key=key, sign=sign):
                    shutil.copy(os.path.join(BASELINES, "BENCH_dynatree.json"),
                                self.fresh)
                    self.edit("BENCH_dynatree.json",
                              lambda d: change(d, sign))
                    self.assertEqual(run_gate(BASELINES, self.fresh), 1)

    def test_dynatree_rates_stay_ungated(self):
        def change(document):
            for row in document["update"]:
                row["updates_per_second"] *= 0.1
            for row in document["scoring"]:
                for key in ("predicts_per_second", "alm_scores_per_second",
                            "alc_scores_per_second"):
                    row[key] *= 0.1
            document["census"]["updates_per_second"] *= 10.0
        self.edit("BENCH_dynatree.json", change)
        self.assertEqual(run_gate(BASELINES, self.fresh), 0)


class DeadStorage(unittest.TestCase):
    """A dead_* count fails on any rise, however small, and never on a
    fall; the relative threshold and the near-zero skip do not apply."""

    def regressions(self, base, fresh):
        found, _ = check_bench.compare_file(
            "BENCH_x.json", {"census.dead_nodes": base},
            {"census.dead_nodes": fresh}, threshold=0.25,
            include_wallclock=False)
        return found

    def test_rise_from_zero_fails(self):
        self.assertEqual(len(self.regressions(0, 1)), 1)

    def test_rise_inside_threshold_fails(self):
        self.assertEqual(len(self.regressions(100, 101)), 1)

    def test_equal_or_lower_passes(self):
        self.assertEqual(self.regressions(0, 0), [])
        self.assertEqual(self.regressions(100, 100), [])
        self.assertEqual(self.regressions(100, 3), [])

    def test_only_dead_keys_classify_as_dead(self):
        self.assertEqual(
            check_bench.classify("census.dead_chunks", False), "dead")
        self.assertIsNone(check_bench.classify("census.live_chunks", False))


class ModelState(unittest.TestCase):
    """An EXACT_KEYS column fails on any difference, up or down, and the
    class applies only to the file that lists it."""

    def regressions(self, base, fresh, name="BENCH_dynatree.json"):
        found, _ = check_bench.compare_file(
            name, {"update[particles=250].avg_depth": base},
            {"update[particles=250].avg_depth": fresh}, threshold=0.25,
            include_wallclock=False)
        return found

    def test_any_difference_fails(self):
        self.assertEqual(len(self.regressions(3.56, 3.561)), 1)
        self.assertEqual(len(self.regressions(3.56, 3.559)), 1)
        self.assertEqual(len(self.regressions(0, 0.001)), 1)

    def test_equal_passes(self):
        self.assertEqual(self.regressions(3.56, 3.56), [])

    def test_exact_keys_are_per_file(self):
        for key in check_bench.EXACT_KEYS["BENCH_dynatree.json"]:
            with self.subTest(key=key):
                self.assertEqual(
                    check_bench.classify(f"x.{key}", False,
                                         "BENCH_dynatree.json"), "exact")
                self.assertIsNone(
                    check_bench.classify(f"x.{key}", False, "BENCH_x.json"))


class Classification(unittest.TestCase):
    # Deterministic quality metrics the gate must compare.
    GATED = {
        "BENCH_gp.json": ("exact_rmse",),
        "BENCH_dynatree.json": ("rmse", "dead_nodes", "dead_chunks") +
        check_bench.EXACT_KEYS["BENCH_dynatree.json"],
        "BENCH_campaign.json": ("final_rmse", "speedup"),
        "BENCH_query.json": ("labels_spent",),
    }
    # Files whose timings are wall clock (the campaign, batch and query
    # files time virtual profiling costs, which are deterministic).
    WALLCLOCK_FILES = ("BENCH_gp.json", "BENCH_dynatree.json",
                       "BENCH_machine.json", "BENCH_sched.json",
                       "BENCH_serve.json")

    @staticmethod
    def is_timing(key):
        return (key.endswith(("_seconds", "_wall", "_ns", "_rate"))
                or "per_second" in key or "speedup" in key)

    def test_quality_metrics_are_gated(self):
        for name, keys in self.GATED.items():
            found = gated_by_key(name)
            for key in keys:
                with self.subTest(file=name, key=key):
                    self.assertEqual(found.get(key), {True})

    def test_no_wallclock_timing_is_gated(self):
        timings = 0
        for name in self.WALLCLOCK_FILES:
            for key, gated in gated_by_key(name).items():
                if self.is_timing(key):
                    timings += 1
                    with self.subTest(file=name, key=key):
                        self.assertEqual(gated, {False})
        self.assertGreater(timings, 0)


if __name__ == "__main__":
    unittest.main()
