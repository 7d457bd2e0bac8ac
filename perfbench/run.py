#!/usr/bin/env python3
"""perfbench: the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload campaign-smoke --seed 1 \\
        --seconds 30 --trace 0

Run it from the root of a checkout.  It builds alic_campaign, alic_serve
and perfdriver from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload against the built binaries, checks every output against
its reference, and prints as its last stdout line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Everything it writes stays under the checkout (.bench_build, .bench_runs).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import campaign
import harness
import serve
from harness import BenchError

WORKLOADS = ("campaign-smoke", "serve-mem")
TARGETS = ("alic_campaign", "alic_serve", "perfdriver")


class Context:
    """Paths, environment and child processes of one benchmark run."""

    def __init__(self, root, build_dir, spec):
        self.root = root
        self.build_dir = build_dir
        self.runs_dir = os.path.join(root, ".bench_runs")
        self.env = dict(os.environ, ALIC_SCALE="smoke")
        self.env.pop("ALIC_FAILPOINTS", None)
        self.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.children = []

    def binary(self, name):
        if name == "perfdriver":
            return os.path.join(self.build_dir, name)
        return os.path.join(self.build_dir, "alic", name)

    def spawn(self, args, **kwargs):
        """subprocess.Popen, remembered so a failed run can reap it."""
        proc = subprocess.Popen(args, env=self.env, **kwargs)
        self.children.append(proc)
        return proc

    def reap(self):
        for proc in self.children:
            if proc.returncode is None:
                proc.kill()
                harness.wait_child(proc)

    def fresh_dir(self, name):
        path = os.path.join(self.runs_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    @staticmethod
    def read(path):
        with open(path, "rb") as f:
            return f.read()

    @staticmethod
    def read_json(path):
        with open(path) as f:
            return json.load(f)

    def tree_bytes(self, path):
        return {n: self.read(os.path.join(path, n))
                for n in sorted(os.listdir(path))}

    def layer_metrics(self, layers):
        """Every per-layer metric; a layer the workload never enters reads
        0."""
        return {name: harness.metric(float(layers.get(name, 0.0)), unit)
                for name, unit in self.per_layer.items()}


def build(root, build_dir):
    for need in ("CMakeLists.txt", "src", "cli",
                 os.path.join("bench", "baselines", "BENCH_campaign.json")):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError("not a checkout of the repository: %s is "
                             "missing" % need)
    log = sys.stderr.fileno()
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench",
                                                     "driver"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target"]
                   + list(TARGETS), stdout=log, check=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    ctx = None
    try:
        spec = Context.read_json(os.path.join(root, "BENCHMARK.json"))
        build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                    or ".bench_build")
        build(root, build_dir)
        ctx = Context(root, build_dir, spec)

        host = harness.host_record()
        steal_before = harness.steal_ticks()
        calibration_s = harness.calibrate()
        if args.workload == "campaign-smoke":
            result = campaign.run(ctx, args.seed, args.seconds, args.trace)
        else:
            result = serve.run(ctx, args.seed, args.seconds, args.trace)
        correct, attempted, failed, metrics, record = result
        record.update({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "host": host,
            "noise": {"calibration_s": calibration_s,
                      "steal_ticks": harness.steal_ticks() - steal_before,
                      "loadavg_end": list(os.getloadavg())},
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics,
        })
        wanted = ctx.per_layer if args.trace else ctx.end_to_end
        if set(metrics) != set(wanted):
            raise BenchError("metric set differs from BENCHMARK.json")
    except (BenchError, OSError, ValueError,
            subprocess.CalledProcessError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1
    finally:
        if ctx:
            ctx.reap()

    path = os.path.join(ctx.runs_dir, "record-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("perfbench: %s seed %d: %d attempted, %d failed; %d latency "
          "samples; calibration %.3f s, steal %d ticks; record %s"
          % (args.workload, args.seed, attempted, failed,
             record["latency_samples"], calibration_s,
             record["noise"]["steal_ticks"], os.path.relpath(path, root)))
    print("perfbench: counters %s" % json.dumps(record["counters"],
                                                sort_keys=True))
    if record.get("client_busier_than_daemon"):
        print("perfbench: WARNING the load generator used more CPU than the "
              "daemon (%.0f ms vs %.0f ms)" % (record["client_cpu_ms"],
                                               record["daemon_cpu_ms"]))
    print(harness.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
