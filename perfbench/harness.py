"""Shared pieces of perfbench: statistics, seeds, process probes, the host
and noise record, and the result line.

Nothing here scales a measurement: the host record is stored beside the
metrics so a steadiness review can tell machine drift from code changes.
"""

import json
import math
import os
import statistics
import time

# A reported percentile must leave at least this many samples beyond it.
MIN_TAIL = 10

MASK64 = (1 << 64) - 1


class BenchError(Exception):
    """The benchmark cannot run or cannot measure; no result is printed."""


def percentile(values, pct):
    """Nearest-rank percentile `pct` of `values`.

    Raises ValueError unless at least MIN_TAIL samples lie beyond it, so a
    p99 needs 1000 samples and a p50 needs 20.
    """
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError("p%g of %d samples leaves %d beyond it; need %d"
                         % (pct, n, n - rank, MIN_TAIL))
    return sorted(values)[rank - 1]


def windowed_percentile(values, pct, window=1000):
    """Median over consecutive windows of at least `window` samples (in
    the order given, i.e. time order) of each window's percentile `pct`.

    A burst of slow operations then moves one window, not the result.
    With fewer than two windows' worth this is percentile(values, pct).
    """
    count = max(1, len(values) // window)
    bounds = [len(values) * i // count for i in range(count + 1)]
    return statistics.median(percentile(values[a:b], pct)
                             for a, b in zip(bounds, bounds[1:]))


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed, *words):
    """A non-zero 63-bit seed that is a pure function of (seed, words)."""
    h = splitmix64(seed & MASK64)
    for w in words:
        h = splitmix64(h ^ (w & MASK64))
    return (h >> 1) or 1


# --- processes ---------------------------------------------------------

def wait_child(proc):
    """Reaps `proc` and returns its rusage (CPU times, ru_maxrss in KiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def proc_cpu_ns(pid):
    """CPU time `pid` has run so far, in ns (scheduler accounting)."""
    with open("/proc/%d/schedstat" % pid) as f:
        return int(f.read().split()[0])


def proc_io(pid):
    """The counters of /proc/<pid>/io as a dict of ints."""
    out = {}
    with open("/proc/%d/io" % pid) as f:
        for line in f:
            key, _, value = line.partition(":")
            out[key.strip()] = int(value)
    return out


# --- host and noise record --------------------------------------------

def steal_ticks():
    """Cumulative steal time of all CPUs from /proc/stat, in clock ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def calibrate(iterations=10_000_000):
    """Seconds for a fixed, cache-resident integer loop (about 1 s)."""
    start = time.perf_counter()
    x = 0
    for i in range(iterations):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def host_record():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg": list(os.getloadavg()),
    }


# --- output ------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
