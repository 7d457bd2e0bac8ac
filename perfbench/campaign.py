"""campaign-smoke: the paper's smoke-scale cross-product through the real
alic_campaign binary.

11 benchmarks x {dynatree, gp} x {alm, alc} x 3 plans x 2 seeds plus 11
noise cells = 275 cells per campaign, at --threads=1 (one worker plus the
helping caller: two busy threads).  A run repeats the campaign, each time
from a fresh state dir whose dataset cache a set-up just built, with its
own shuffle seed drawn from the workload seed.  After each repetition the
same command is relaunched on its ledger with a fixed set of cells
missing, as a quarantine leaves it: the campaign's restart path.
Set-ups, campaigns and relaunches alternate through the whole run, so
machine drift falls on every metric alike.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import time

import harness
from harness import BenchError, metric

CELLS = 275
# Campaign wall time at --threads=1 on the 4-vCPU reference VM; sizes the
# repetitions so a run lasts about --seconds.  Fixed, never measured, so
# the work in a run depends only on --seconds.
NOMINAL_CAMPAIGN_S = 1.6
MIN_REPS = 4  # 4 x 275 cell gaps support a p99 (>= 10 samples beyond it)
SETUP_BUILDS = 2  # cold builds of the smoke datasets before each repetition
RELAUNCHES = 3  # per repetition

SCHEDULER_RE = re.compile(rb"scheduler: \d+ worker\(s\), (\d+) task\(s\) "
                          rb"executed .*?, (\d+) steal\(s\)")
PROGRESS = b"  campaign ["


def campaign_args(ctx, state, out, shuffle):
    return [ctx.binary("alic_campaign"), "--models=dynatree,gp",
            "--scorers=alm,alc", "--seeds=2", "--threads=1",
            "--shuffle=%d" % shuffle, "--state-dir=" + state, "--out=" + out]


def parse_summary(stdout):
    """(scheduler tasks, steals) from the CLI's summary lines."""
    m = SCHEDULER_RE.search(stdout)
    if not m:
        raise BenchError("no scheduler summary in campaign output")
    return int(m.group(1)), int(m.group(2))


def cell_gaps(start, stamps):
    """Seconds between consecutive cell completions, the first from exec."""
    return [b - a for a, b in zip([start] + stamps[:-1], stamps)]


def ledger_keys(ledger):
    """The cell key of each line of a ledger's bytes."""
    return [json.loads(line)["cell"] for line in ledger.splitlines()]


def relaunch_keys(keys):
    """The cells a relaunch finds missing: every learning cell of the first
    benchmark's second seed (2 models x 2 scorers x 3 plans), the same 12
    cells at every workload seed."""
    first = min(k.split("|")[1] for k in keys if k.startswith("run|"))
    return {k for k in keys
            if k.startswith("run|%s|" % first) and "|r1|" in k}


def setup(ctx, work, k, builds):
    """Cold builds of the smoke datasets; returns (seconds each, caches)."""
    base = os.path.join(work, "setup%d" % k)
    out = subprocess.run([ctx.binary("perfdriver"), "datasets", base,
                          str(builds)],
                         env=ctx.env, stdout=subprocess.PIPE, check=True)
    return ([float(x) for x in out.stdout.split()],
            [os.path.join(base, "rep%d" % i) for i in range(builds)])


def run_campaign(ctx, work, k, cache, shuffle, baseline, relaunches):
    """One campaign from a fresh state dir, then `relaunches` relaunches of
    the same command, each on the finished ledger less relaunch_keys."""
    state = os.path.join(work, "state%d" % k)
    shutil.copytree(cache, os.path.join(state, "datasets"))
    out = os.path.join(state, "BENCH_campaign.json")
    args = campaign_args(ctx, state, out, shuffle)
    stdout_path = os.path.join(state, "stdout.txt")
    stamps, quarantined = [], 0
    with open(stdout_path, "wb") as stdout:
        start = time.perf_counter()
        proc = ctx.spawn(args, stdout=stdout, stderr=subprocess.PIPE)
        for line in proc.stderr:
            if line.startswith(PROGRESS):
                stamps.append(time.perf_counter())
                quarantined += b"QUARANTINED" in line
        proc.stderr.close()
        usage = harness.wait_child(proc)
        wall = time.perf_counter() - start
    tasks, steals = parse_summary(ctx.read(stdout_path))
    ledger_path = os.path.join(state, "cells.jsonl")
    ledger = ctx.read(ledger_path)
    keys = ledger_keys(ledger)
    ok = (proc.returncode == 0 and len(stamps) == CELLS
          and len(set(keys)) == CELLS and ctx.read(out) == baseline
          and ctx.tree_bytes(os.path.join(state, "datasets"))
          == ctx.tree_bytes(cache))
    missing = relaunch_keys(keys)
    kept = b"".join(line + b"\n" for line, key in zip(ledger.splitlines(), keys)
                    if key not in missing)
    restarts = []
    for _ in range(relaunches):
        with open(ledger_path, "wb") as f:
            f.write(kept)
        os.remove(out)
        t0 = time.perf_counter()
        code = subprocess.call(args, env=ctx.env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        restarts.append(time.perf_counter() - t0)
        ok = (ok and code == 0 and ctx.read(out) == baseline
              and sorted(ledger_keys(ctx.read(ledger_path))) == sorted(keys))
    return {
        "state": state, "ok": ok, "wall": wall,
        "gaps": cell_gaps(start, stamps), "cpu": usage.ru_utime +
        usage.ru_stime, "maxrss_kb": usage.ru_maxrss, "restarts": restarts,
        "relaunch_cells": len(missing), "quarantined": quarantined,
        "tasks": tasks, "steals": steals, "ledger_bytes": len(ledger),
    }


def run(ctx, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics, record)."""
    work = ctx.fresh_dir("campaign-smoke")
    baseline = ctx.read(os.path.join(ctx.root, "bench", "baselines",
                                     "BENCH_campaign.json"))
    reps = 1 if trace else max(MIN_REPS, round(seconds / NOMINAL_CAMPAIGN_S))
    setup_times, runs, reference = [], [], None
    for k in range(reps):
        times, caches = setup(ctx, work, k, 1 if trace else SETUP_BUILDS)
        for cache in caches:
            reference = reference or ctx.tree_bytes(cache)
            if ctx.tree_bytes(cache) != reference:
                raise BenchError("dataset builds differ between set-ups")
        setup_times += times
        runs.append(run_campaign(ctx, work, k, caches[0],
                                 harness.derive_seed(seed, k), baseline,
                                 0 if trace else RELAUNCHES))

    attempted = CELLS * reps
    failed = sum(CELLS if not r["ok"] else r["quarantined"] for r in runs)
    counters = {
        "support.scheduler.tasks": runs[0]["tasks"],
        "exp.cells": CELLS,
        "exp.ledger.bytes": runs[0]["ledger_bytes"],
        "exp.quarantined": sum(r["quarantined"] for r in runs),
    }
    # Deterministic counters must agree across the repetitions of a run.
    for r in runs:
        if (r["tasks"], r["ledger_bytes"]) != (runs[0]["tasks"],
                                               runs[0]["ledger_bytes"]):
            failed += CELLS
    gaps = [g for r in runs for g in r["gaps"]]
    wall = sum(r["wall"] for r in runs)
    restarts = [t for r in runs for t in r["restarts"]]
    record = {
        "reps": reps, "shuffle_seeds": [harness.derive_seed(seed, k)
                                        for k in range(reps)],
        "campaign_wall_s": [r["wall"] for r in runs],
        "campaign_cpu_s": [r["cpu"] for r in runs],
        "latency_samples": len(gaps), "setup_samples": len(setup_times),
        "restart_samples": len(restarts),
        "relaunch_cells": runs[0]["relaunch_cells"],
        "steals": [r["steals"] for r in runs], "counters": counters,
    }

    if trace:
        return trace_layers(ctx, work, runs[0], counters, attempted, failed,
                            record)

    metrics = {
        "ops_per_s": metric(attempted / wall, "1/s"),
        "latency_p50_ms": metric(1e3 * harness.percentile(gaps, 50), "ms"),
        "latency_p99_ms": metric(1e3 * harness.percentile(gaps, 99), "ms"),
        "cpu_ms_per_op": metric(1e3 * sum(r["cpu"] for r in runs) / attempted,
                                "ms"),
        "peak_rss_mb": metric(statistics.median(r["maxrss_kb"] for r in runs)
                              / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "restart_s": metric(statistics.median(restarts), "s"),
    }
    return failed == 0, attempted, failed, metrics, record


def trace_layers(ctx, work, timed, counters, attempted, failed, record):
    """Replays the timed campaign's cells inline with spans."""
    summary = os.path.join(work, "trace-summary.json")
    subprocess.run([ctx.binary("perfdriver"), "campaign-trace",
                    timed["state"], os.path.join(ctx.root, "bench",
                                                 "baselines",
                                                 "BENCH_campaign.json"),
                    os.path.join(work, "trace-build"), summary,
                    os.path.join(ctx.runs_dir, "trace-campaign-smoke.json")],
                   env=ctx.env, check=True)
    layers = ctx.read_json(summary)
    mismatches = int(layers.pop("replay.mismatches"))
    matched = int(layers.pop("replay.cells_matched"))
    record["replay"] = {"cells_matched": matched, "mismatches": mismatches,
                        "untraced_campaign_wall_s": timed["wall"]}
    layers.update(counters)
    layers["support.scheduler.steals"] = timed["steals"]
    failed += mismatches
    return failed == 0, attempted, failed, ctx.layer_metrics(layers), record
