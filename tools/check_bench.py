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
* anything else is informational and skipped.

Wall-clock metrics (google-benchmark real/cpu time, updates/items/bytes
per second) are skipped by default because shared CI runners make them
noisy; pass --include-wallclock to gate them too.  Curve interior points
(paths containing "curve") are skipped — the gate compares the summary
metrics the campaign/benches emit, not every intermediate sample.

Deterministic metrics (the campaign's virtual profiling costs, final
RMSEs, and speedups) are bit-stable per platform, so the default 25%
threshold only absorbs cross-toolchain libm wobble.

stdlib-only by design: CI runs it with a bare python3.

Exit codes: 0 ok, 1 regression or missing file, 2 usage error.
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
           "particles", "state", "threads", "approx", "n", "workers")

# "labels" gates BENCH_query.json's labels_spent (a query policy that
# starts buying more labels regressed); "saved" must precede it in the
# throughput class so labels_saved_fraction gates in the right direction.
COST_TOKENS = ("cost", "seconds", "rmse", "time", "labels")
THROUGHPUT_TOKENS = ("per_second", "speedup", "saved")
WALLCLOCK_TOKENS = (
    "real_time",
    "cpu_time",
    "updates_per_second",
    "items_per_second",
    "bytes_per_second",
    # bench_scheduler: ratios/rates of tens-of-ms wall clocks — far too
    # noisy for shared CI runners even as a ratio (the baseline is also
    # hardware-dependent: ~0.93 on a 1-core box, >1 on real multicore).
    "tail_speedup",
    "fanout_rate",
    # bench_dynatree_hotpath: wall-clock scoring rates; the file itself
    # is still presence-gated (a committed baseline with a missing fresh
    # file fails the run), and its deterministic columns
    # (duplicate_fraction, unique_runs, walk_dedup_factor) stay
    # comparable in the artifacts.
    "scores_per_second",
    # bench_serve: suggest/observe round-trip rate — wall-clock derived
    # and machine-dependent; BENCH_serve.json stays presence-gated and
    # its round_trips/restored counts are deterministic.
    "suggestions_per_second",
    # bench_ablation_model_cost's GP throughput sweep: pure wall clocks
    # and their ratios (the committed baseline is a 1-core box, so even
    # factorize_speedup is hardware-dependent).  BENCH_gp.json stays
    # presence-gated and its quality columns (exact_rmse/sor_rmse) are
    # deterministic and remain in the gate.
    "fit_seconds",
    "update_seconds",
    "predict_seconds",
    "predicts_per_second",
    "factorize_seconds",
    "factorize_speedup",
    "candidates_per_second",
)
SKIP_PATH_TOKENS = ("curve",)

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


def classify(path, include_wallclock):
    """Returns "cost", "throughput", or None (not gated)."""
    segments = path.lower().split(".")
    if any(tok in seg.split("[", 1)[0] for seg in segments
           for tok in SKIP_PATH_TOKENS):
        return None
    key = last_key(path).lower()
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
        kind = classify(path, include_wallclock)
        if kind is None:
            continue
        if path not in fresh:
            regressions.append(
                f"{name}: {path} missing from fresh output "
                f"(baseline {base_value:g})")
            continue
        fresh_value = fresh[path]
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
            if classify(path, args.include_wallclock) is not None)
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
