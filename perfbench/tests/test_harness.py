"""Tests of perfbench's own logic.

    python3 -m unittest discover -s perfbench/tests

The last class runs the benchmark itself (twice per workload, briefly) and
is skipped until `python3 perfbench/run.py` has built .bench_build.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import campaign  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1, 1001))
        self.assertEqual(harness.percentile(values, 99), 990)
        with self.assertRaises(ValueError):
            harness.percentile(values[:999], 99)

    def test_p50_needs_twenty_samples(self):
        self.assertEqual(harness.percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            harness.percentile(list(range(19)), 50)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(2000)]
        self.assertEqual(harness.percentile(values, 99),
                         harness.percentile(values[::-1], 99))

    def test_windowed_percentile(self):
        values = [float(v % 100) for v in range(1500)]
        self.assertEqual(harness.windowed_percentile(values, 99),
                         harness.percentile(values, 99))
        # A burst in one of three windows moves that window only.
        calm = [1.0] * 1000
        burst = [1.0] * 950 + [50.0] * 50
        self.assertEqual(harness.windowed_percentile(burst + calm + calm, 99),
                         1.0)
        with self.assertRaises(ValueError):
            harness.windowed_percentile([1.0] * 999, 99)


class SeedPlumbing(unittest.TestCase):
    def test_derive_seed_is_pure_and_nonzero(self):
        self.assertEqual(harness.derive_seed(7, 3), harness.derive_seed(7, 3))
        seeds = {harness.derive_seed(s, k) for s in range(20)
                 for k in range(20)}
        self.assertEqual(len(seeds), 400)
        self.assertNotIn(0, seeds)
        self.assertTrue(all(0 < s < 2 ** 63 for s in seeds))

    def test_run_seed_reaches_the_workload(self):
        args = run.parse_args(["--workload", "serve-mem", "--seed", "12",
                               "--seconds", "3", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("serve-mem", 12, 3, 1))
        with self.assertRaises(SystemExit):
            run.parse_args(["--workload", "nope", "--seed", "1",
                            "--seconds", "3"])

    def test_serve_size_follows_seconds(self):
        self.assertEqual(serve.session_count(30, False), 1230)
        self.assertEqual(serve.session_count(30, True), 410)
        self.assertEqual(serve.session_count(1, False), 41)

    @unittest.skipUnless(os.path.exists(os.path.join(ROOT, ".bench_build",
                                                     "perfdriver")),
                         "perfdriver not built")
    def test_serve_stream_is_a_function_of_the_seed(self):
        driver = os.path.join(ROOT, ".bench_build", "perfdriver")
        env = dict(os.environ, ALIC_SCALE="smoke")
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, seed, threads in (("a", 5, 1), ("b", 5, 4),
                                        ("c", 6, 4)):
                path = os.path.join(tmp, name)
                subprocess.run([driver, "serve-record", path, str(seed), "6",
                                str(threads)], env=env, check=True)
                paths.append(path)
            a, b, c = (run.Context.read(p) for p in paths)
        self.assertEqual(a, b)  # independent of the recorder's threads
        self.assertNotEqual(a, c)


class Parsers(unittest.TestCase):
    def test_campaign_summary(self):
        out = (b"cells: 275 total, 0 already checkpointed, 275 run now\n"
               b"scheduler: 1 worker(s), 64456 task(s) executed (275 cells "
               b"+ nested shards), 13 steal(s)\n")
        self.assertEqual(campaign.parse_summary(out), (64456, 13))
        with self.assertRaises(harness.BenchError):
            campaign.parse_summary(b"cells: 275 total\n")

    def test_cell_gaps(self):
        self.assertEqual(campaign.cell_gaps(1.0, [1.5, 1.75, 3.0]),
                         [0.5, 0.25, 1.25])

    def test_ledger_keys(self):
        ledger = b'{"cell":"a","rmse":1.5}\n{"cell":"b"}\n'
        self.assertEqual(campaign.ledger_keys(ledger), ["a", "b"])

    def test_relaunch_keys(self):
        keys = ["noise|a|fp", "noise|b|fp"] + [
            "run|%s|%s|alc|b1|p|r%d|fp" % (b, m, r) for b in ("b", "a")
            for m in ("dynatree", "gp") for r in (0, 1)]
        want = {"run|a|dynatree|alc|b1|p|r1|fp", "run|a|gp|alc|b1|p|r1|fp"}
        self.assertEqual(campaign.relaunch_keys(keys), want)
        self.assertEqual(campaign.relaunch_keys(keys[::-1]), want)

    def test_load_stream(self):
        lines = [
            b'0\topen\t{"op":"open"}\t{"ok":true,"session":"s0"}',
            b'0\tsug\t{"op":"suggest"}\t{"ok":true,"phase":"explore"}',
            b'0\tobs\t{"op":"observe"}\t{"ok":true,"observes":1}',
            b'0\tdone\t{"op":"suggest"}\t{"ok":true,"phase":"done"}',
            b'0\tinfo\t{"op":"info"}\t{"ok":true}',
            b'0\teval\t{"op":"eval"}\t{"ok":true,"rmse":0.5}',
        ]
        with tempfile.NamedTemporaryFile("wb", delete=False) as f:
            f.write(b"\n".join(lines) + b"\n")
        try:
            (s,) = serve.load_stream(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(s.open, (b'{"op":"open"}\n',
                                  b'{"ok":true,"session":"s0"}'))
        self.assertEqual(len(s.rounds), 1)
        self.assertEqual(s.rounds[0][1][1], b'{"ok":true,"observes":1}')
        self.assertEqual([e[0] for e in s.verify],
                         [b'{"op":"info"}\n', b'{"op":"eval"}\n'])

    def test_round_robin_jobs(self):
        sessions = []
        for k in range(5):
            s = serve.Session()
            s.rounds = [("s%d" % k, r) for r in range(2 + k % 2)]
            sessions.append(s)
        conns = serve.by_connection(sessions)
        self.assertEqual([len(c) for c in conns], [2, 1, 1, 1])
        jobs = serve.round_jobs(conns, 0, 3)
        self.assertEqual(jobs[0], [("s0", 0), ("s4", 0), ("s0", 1),
                                   ("s4", 1)])
        self.assertEqual(jobs[1], [("s1", 0), ("s1", 1), ("s1", 2)])

    def test_result_line(self):
        line = json.loads(harness.result_line(
            True, 3, 0, {"setup_s": harness.metric(0.5, "s")}))
        self.assertEqual(sorted(line), ["attempted", "correct", "failed",
                                        "metrics"])
        self.assertEqual(line["metrics"]["setup_s"],
                         {"value": 0.5, "unit": "s"})


@unittest.skipUnless(os.path.exists(os.path.join(ROOT, ".bench_build",
                                                 "perfdriver")),
                     "benchmark not built")
class CountersRepeat(unittest.TestCase):
    """The deterministic work counters repeat exactly for one seed."""

    def run_once(self, workload, seed):
        out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", "0"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=True)
        result = json.loads(out.stdout.decode().strip().split("\n")[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        (path,) = glob.glob(os.path.join(
            ROOT, ".bench_runs", "record-%s-seed%d-trace0.json"
            % (workload, seed)))
        with open(path) as f:
            record = json.load(f)
        self.assertGreaterEqual(record["latency_samples"], 1000)
        return record["counters"]

    def test_counters_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.run_once(workload, 4242)
                self.assertEqual(first, self.run_once(workload, 4242))


if __name__ == "__main__":
    unittest.main()
