#!/usr/bin/env python3
"""CI perf-regression gate: compare fresh BENCH_*.json against committed
baselines.

For every ``BENCH_*.json`` in --baseline-dir, the same-named file must
exist in --fresh-dir; the two documents are flattened to (path, number)
pairs and compared pathwise.  Metrics are classified by their final key
segment:

* cost-like (lower is better: contains "cost", "seconds", "rmse", or
  "time")  -> fail when fresh > baseline * (1 + threshold);
* throughput-like (higher is better: contains "per_second" or
  "speedup")  -> fail when fresh < baseline * (1 - threshold);
* dead storage (the key starts with "dead_": BENCH_dynatree.json's
  census of tree nodes and chunks no root reaches)  -> fail whenever
  fresh > baseline, with no threshold: the counts are deterministic and
  a structure that starts leaking has regressed whatever the amount;
* model state (the EXACT_KEYS columns of a file: BENCH_dynatree.json's
  ensemble statistics, unique runs, walk dedup and live tree census)
  -> fail on any difference, up or down: they are pure functions of the
  seeded update stream, so a change means the model computes something
  else, whichever way it moved;
* anything else is informational and skipped.

Every numeric leaf of a fresh file, gated or not, must also exist in its
baseline: a field the baseline lacks would never be compared, so it
fails until the baseline is regenerated with it.

Wall-clock metrics (the benches' timed seconds and per-second rates)
are skipped by default because shared CI runners make them noisy; pass
--include-wallclock to gate them too.  Curve interior points
(paths containing "curve") are skipped — the gate compares the summary
metrics the campaign/benches emit, not every intermediate sample.

Deterministic metrics (the campaign's virtual profiling costs, final
RMSEs, and speedups) are bit-stable per platform, so the default 25%
threshold only absorbs cross-toolchain libm wobble.

stdlib-only by design: CI runs it with a bare python3.

Exit codes: 0 ok, 1 regression, missing file or missing baseline field,
2 usage error.
"""

import argparse
import glob
import json
import os
import sys

# Fields that identify an array element (a campaign combo/plan, a batch
# row, a particle-sweep row).  Elements carrying any of these are
# addressed by identity instead of list position, so reordering or
# growing the cross-product can never silently pair unrelated metrics —
# a shape mismatch surfaces as "missing from fresh output".
ID_KEYS = ("benchmark", "model", "scorer", "batch", "plan", "policy",
           "particles", "state", "threads", "n", "workers")

# "labels" gates BENCH_query.json's labels_spent (a query policy that
# starts buying more labels regressed); "saved" must precede it in the
# throughput class so labels_saved_fraction gates in the right direction.
COST_TOKENS = ("cost", "seconds", "rmse", "time", "labels")
THROUGHPUT_TOKENS = ("per_second", "speedup", "saved")
WALLCLOCK_TOKENS = (
    # bench_dynatree_hotpath's update sweep and bench_machine_micro's
    # timed loops.
    "updates_per_second",
    "items_per_second",
    # bench_scheduler: ratios/rates of tens-of-ms wall clocks — far too
    # noisy for shared CI runners even as a ratio (the baseline is also
    # hardware-dependent: ~0.93 on a 1-core box, >1 on real multicore).
    "tail_speedup",
    "fanout_rate",
    # bench_dynatree_hotpath: wall-clock scoring rates; the file itself
    # is still presence-gated (a committed baseline with a missing fresh
    # file fails the run), its probe rmse is gated, and its model-state
    # columns are gated exactly (EXACT_KEYS).
    "scores_per_second",
    # bench_serve: suggest/observe round-trip rate — wall-clock derived
    # and machine-dependent; BENCH_serve.json stays presence-gated and
    # its round_trips/restored counts are deterministic.
    "suggestions_per_second",
    # bench_ablation_model_cost's GP throughput sweep: pure wall clocks
    # and their ratios (factorize_speedup depends on the runner's core
    # count).  "update_seconds" also covers dynatree_update_seconds, and
    # "predicts_per_second" bench_dynatree_hotpath's predict rate.
    # BENCH_gp.json stays presence-gated and its quality column
    # (exact_rmse) is deterministic and remains in the gate.
    "fit_seconds",
    "update_seconds",
    "predict_seconds",
    "predicts_per_second",
    "factorize_seconds",
    "factorize_speedup",
    "candidates_per_second",
)
SKIP_PATH_TOKENS = ("curve",)
# Unreachable storage: any increase over the baseline fails.
DEAD_PREFIX = "dead_"
# Deterministic model-state columns, per file: any difference fails.
EXACT_KEYS = {
    "BENCH_dynatree.json": (
        "duplicate_fraction", "ess", "avg_leaves", "avg_depth",
        "unique_runs", "walk_dedup_factor",
        "trees", "live_nodes", "live_chunks", "tree_bytes"),
}

# Ignore denominators this small: ratios of near-zero costs are noise.
TINY = 1e-12


def element_label(item, index):
    """Identity-based label for a list element, index as fallback."""
    if isinstance(item, dict):
        parts = [f"{key}={item[key]}" for key in ID_KEYS if key in item]
        if parts:
            return ",".join(parts)
    return str(index)


def flatten(node, path, out):
    """Collect (path, float) for every numeric leaf of a JSON document."""
    if isinstance(node, dict):
        for key in node:
            flatten(node[key], f"{path}.{key}" if path else key, out)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            flatten(item, f"{path}[{element_label(item, index)}]", out)
    elif isinstance(node, bool):
        pass  # bools are ints in python; never a metric
    elif isinstance(node, (int, float)):
        out.append((path, float(node)))


def last_key(path):
    """The final object key of a flattened path ("a.b[3].c[0]" -> "c")."""
    tail = path.rsplit(".", 1)[-1]
    return tail.split("[", 1)[0]


def classify(path, include_wallclock, name=None):
    """Returns "cost", "throughput", "dead", "exact", or None (not gated).
    name is the file the path comes from: EXACT_KEYS are per file."""
    segments = path.lower().split(".")
    if any(tok in seg.split("[", 1)[0] for seg in segments
           for tok in SKIP_PATH_TOKENS):
        return None
    key = last_key(path).lower()
    if key in EXACT_KEYS.get(name, ()):
        return "exact"
    if key.startswith(DEAD_PREFIX):
        return "dead"
    if not include_wallclock and any(tok in key for tok in WALLCLOCK_TOKENS):
        return None
    if any(tok in key for tok in THROUGHPUT_TOKENS):
        return "throughput"
    if any(tok in key for tok in COST_TOKENS):
        return "cost"
    return None


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = []
    flatten(document, "", metrics)
    return dict(metrics)


def compare_file(name, baseline, fresh, threshold, include_wallclock):
    """Returns (regressions, notes) for one baseline/fresh pair."""
    regressions = []
    notes = []
    for path, base_value in sorted(baseline.items()):
        kind = classify(path, include_wallclock, name)
        if kind is None:
            continue
        if path not in fresh:
            regressions.append(
                f"{name}: {path} missing from fresh output "
                f"(baseline {base_value:g})")
            continue
        fresh_value = fresh[path]
        if kind == "exact":
            if fresh_value != base_value:
                regressions.append(
                    f"{name}: {path} changed ({base_value:g} -> "
                    f"{fresh_value:g}); deterministic model state must "
                    "match its baseline exactly")
            continue
        if kind == "dead":
            if fresh_value > base_value:
                regressions.append(
                    f"{name}: {path} rose above its baseline "
                    f"({base_value:g} -> {fresh_value:g})")
            continue
        if abs(base_value) < TINY:
            continue
        ratio = fresh_value / base_value
        if kind == "cost" and ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {path} regressed {ratio:.2f}x "
                f"({base_value:g} -> {fresh_value:g})")
        elif kind == "throughput" and ratio < 1.0 - threshold:
            regressions.append(
                f"{name}: {path} dropped to {ratio:.2f}x "
                f"({base_value:g} -> {fresh_value:g})")
        elif kind == "cost" and ratio < 1.0 - threshold:
            notes.append(
                f"{name}: {path} improved {1.0 / ratio:.2f}x — consider "
                f"refreshing the baseline")
        elif kind == "throughput" and ratio > 1.0 + threshold:
            notes.append(
                f"{name}: {path} improved {ratio:.2f}x — consider "
                f"refreshing the baseline")
    for path, fresh_value in sorted(fresh.items()):
        if path not in baseline:
            regressions.append(
                f"{name}: {path} missing from the baseline "
                f"(fresh {fresh_value:g})")
    return regressions, notes


def main():
    parser = argparse.ArgumentParser(
        description="Fail CI on >threshold cost/throughput regressions "
        "against committed BENCH_*.json baselines.")
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh-dir", default="build",
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative regression tolerance (default 0.25)")
    parser.add_argument("--include-wallclock", action="store_true",
                        help="also gate wall-clock metrics (noisy on CI)")
    args = parser.parse_args()

    pattern = os.path.join(args.baseline_dir, "BENCH_*.json")
    baseline_paths = sorted(glob.glob(pattern))
    if not baseline_paths:
        print(f"error: no baselines match {pattern}", file=sys.stderr)
        return 2

    all_regressions = []
    gated_files = 0
    for baseline_path in baseline_paths:
        name = os.path.basename(baseline_path)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(fresh_path):
            all_regressions.append(
                f"{name}: fresh output missing from {args.fresh_dir} "
                "(did the bench step run?)")
            continue
        baseline = load_metrics(baseline_path)
        fresh = load_metrics(fresh_path)
        regressions, notes = compare_file(
            name, baseline, fresh, args.threshold, args.include_wallclock)
        gated = sum(
            1 for path in baseline
            if classify(path, args.include_wallclock, name) is not None)
        print(f"{name}: checked {gated} gated metric(s), "
              f"{len(regressions)} regression(s)")
        for note in notes:
            print(f"  note: {note}")
        all_regressions.extend(regressions)
        gated_files += 1

    if all_regressions:
        print(f"\nFAIL: {len(all_regressions)} perf regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for regression in all_regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    print(f"\nOK: {gated_files} bench file(s) within {args.threshold:.0%} "
          "of baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
