"""serve-mem: tuning sessions through the real alic_serve socket.

The daemon runs as `alic_serve --threads=0 --state-dir=`: one thread, no
checkpointing.  One single-threaded load generator holds CONNECTIONS
Unix-socket connections in a closed loop with zero think time.  The
request stream and every expected reply come from `perfdriver
serve-record`, which drives the same sessions to completion on an
in-process ServeEngine; every reply the daemon sends is compared with it
byte for byte.  Session k rides connection k % CONNECTIONS and each
connection walks its sessions round-robin, one suggest -> observe round
trip per session per round.

After the last round, with nothing in flight, the daemon is SIGKILLed
and restarted.  It kept nothing, so the client re-opens its sessions and
replays every round, as docs/SERVE_PROTOCOL.md tells a client to do; the
restart lasts until every session stands where it stood, and the
sessions then finish on the new daemon.
"""

import os
import signal
import selectors
import socket
import statistics
import subprocess
import time

import harness
from harness import BenchError, metric

CONNECTIONS = 4
# The reference stream is recorded before any timing starts; sessions are
# independent, so it fans out over threads without changing a byte.
RECORD_THREADS = 4
SETUPS = 5
# Round trips per second on the 4-vCPU reference VM; sizes the session
# count so the traffic lasts about --seconds.  Fixed, never measured.
NOMINAL_RATE = 2500.0
ROUND_TRIPS_PER_SESSION = 61  # explore + nmax=60 refine steps at smoke scale
STALL_S = 30
# 20 x 61 round trips leave more than 10 samples beyond the p99.
MIN_SESSIONS = 20
# A traced run replays its stream five ways in-process; sizing it for at
# most this many seconds keeps it well inside the run time limit.
TRACE_SECONDS = 10


class Session:
    __slots__ = ("open", "rounds", "done", "verify")

    def __init__(self):
        self.open = None
        self.rounds = []  # [(suggest exchange, observe exchange)]
        self.done = None
        self.verify = []  # [info exchange, eval exchange]


def load_stream(path):
    """Parses serve-record output into Sessions.  An exchange is
    (request bytes with newline, expected reply bytes)."""
    sessions = []
    pending = {}
    with open(path, "rb") as f:
        for line in f.read().split(b"\n"):
            if not line:
                continue
            index, tag, request, reply = line.split(b"\t")
            index = int(index)
            while index >= len(sessions):
                sessions.append(Session())
            s = sessions[index]
            ex = (request + b"\n", reply)
            if tag == b"open":
                s.open = ex
            elif tag == b"sug":
                pending[index] = ex
            elif tag == b"obs":
                s.rounds.append((pending.pop(index), ex))
            elif tag == b"done":
                s.done = ex
            else:
                s.verify.append(ex)
    for s in sessions:
        if s.open is None or s.done is None or len(s.verify) != 2:
            raise BenchError("incomplete session in " + path)
    return sessions


class Traffic:
    """Counts what the measured daemon is sent and answers."""

    def __init__(self):
        self.requests = 0
        self.request_bytes = 0
        self.reply_bytes = 0
        self.errors = 0


def drive(socks, queues, traffic, latencies=None):
    """Runs queues[c] on socks[c], all connections at once.

    A job is a tuple of exchanges sent one after another; the next request
    leaves as soon as the previous reply arrives.  Appends each job's
    seconds (first send to last reply) to `latencies` when given.  Returns
    the number of jobs with any reply differing from the reference.
    """
    sel = selectors.DefaultSelector()
    n = len(socks)
    job = [0] * n
    step = [0] * n
    sent_at = [0.0] * n
    bad = [False] * n
    bufs = [b""] * n
    failed = 0
    active = 0
    now = time.perf_counter
    for c in range(n):
        if queues[c]:
            sel.register(socks[c], selectors.EVENT_READ, c)
            request = queues[c][0][0][0]
            sent_at[c] = now()
            socks[c].sendall(request)
            traffic.requests += 1
            traffic.request_bytes += len(request)
            active += 1
    while active:
        events = sel.select(STALL_S)
        if not events:
            raise BenchError("daemon sent nothing for %d s" % STALL_S)
        for key, _ in events:
            c = key.data
            data = socks[c].recv(1 << 16)
            if not data:
                raise BenchError("daemon closed a connection")
            buf = bufs[c] + data
            while True:
                eol = buf.find(b"\n")
                if eol < 0:
                    break
                reply = buf[:eol]
                buf = buf[eol + 1:]
                traffic.reply_bytes += eol + 1
                if reply.startswith(b'{"ok":false'):
                    traffic.errors += 1
                exchanges = queues[c][job[c]]
                if reply != exchanges[step[c]][1]:
                    bad[c] = True
                step[c] += 1
                if step[c] == len(exchanges):
                    if latencies is not None:
                        latencies.append(now() - sent_at[c])
                    failed += bad[c]
                    bad[c] = False
                    job[c] += 1
                    step[c] = 0
                    if job[c] == len(queues[c]):
                        sel.unregister(socks[c])
                        active -= 1
                        break
                    sent_at[c] = now()
                request = queues[c][job[c]][step[c]][0]
                socks[c].sendall(request)
                traffic.requests += 1
                traffic.request_bytes += len(request)
            bufs[c] = buf
    sel.close()
    return failed


class Daemon:
    """One alic_serve incarnation with its CONNECTIONS client sockets;
    `start` is taken just before exec."""

    def __init__(self, ctx, work):
        self.socket_path = os.path.relpath(os.path.join(work, "d.sock"),
                                           ctx.root)
        args = [ctx.binary("alic_serve"), "--threads=0",
                "--socket=" + self.socket_path, "--state-dir="]
        self.stderr = open(os.path.join(work, "daemon.stderr"), "ab")
        self.start = time.perf_counter()
        self.proc = ctx.spawn(args, cwd=ctx.root, stdout=subprocess.PIPE,
                              stderr=self.stderr)
        if not self.proc.stdout.readline().startswith(b"READY"):
            self.proc.kill()
            harness.wait_child(self.proc)
            raise BenchError("alic_serve did not start")
        self.socks = []
        for _ in range(CONNECTIONS):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            # Relative to the checkout root, the working directory: an
            # absolute path could outgrow sun_path's 108 bytes.
            s.connect(self.socket_path)
            self.socks.append(s)

    def probe(self):
        """(daemon CPU ns, /proc io, client CPU s, wall s) right now."""
        return (harness.proc_cpu_ns(self.proc.pid),
                harness.proc_io(self.proc.pid), time.process_time(),
                time.perf_counter())

    def _close(self):
        for s in self.socks:
            s.close()
        self.proc.stdout.close()
        self.stderr.close()

    def kill(self):
        self.proc.send_signal(signal.SIGKILL)
        usage = harness.wait_child(self.proc)
        self._close()
        return usage

    def shutdown(self, traffic):
        drive(self.socks[:1], [[((b'{"op":"shutdown"}\n',
                                  b'{"ok":true,"bye":true}'),)]], traffic)
        self._close()
        usage = harness.wait_child(self.proc)
        if self.proc.returncode != 0:
            raise BenchError("alic_serve exited %d" % self.proc.returncode)
        return usage


def by_connection(sessions):
    return [sessions[c::CONNECTIONS] for c in range(CONNECTIONS)]


def round_jobs(conns, first, last):
    """Round-robin suggest -> observe jobs of rounds [first, last)."""
    return [[s.rounds[r] for r in range(first, last) for s in mine
             if r < len(s.rounds)] for mine in conns]


def single_jobs(conns, pick):
    return [[pick(s) for s in mine] for mine in conns]


def window(a, b):
    """Deltas between two probes: daemon CPU ns, wchar, syscw, client CPU
    s, wall s."""
    return (b[0] - a[0], b[1]["wchar"] - a[1]["wchar"],
            b[1]["syscw"] - a[1]["syscw"], b[2] - a[2], b[3] - a[3])


def session_count(seconds, trace):
    if trace:
        seconds = min(seconds, TRACE_SECONDS)
    return max(MIN_SESSIONS,
               round(seconds * NOMINAL_RATE / ROUND_TRIPS_PER_SESSION))


def run(ctx, seed, seconds, trace):
    """Returns (correct, attempted, failed, metrics, record)."""
    work = ctx.fresh_dir("serve-mem")
    stream = os.path.join(work, "stream.tsv")
    subprocess.run([ctx.binary("perfdriver"), "serve-record", stream,
                    str(seed), str(session_count(seconds, trace)),
                    str(RECORD_THREADS)], env=ctx.env, check=True)
    sessions = load_stream(stream)
    conns = by_connection(sessions)
    rounds = max(len(s.rounds) for s in sessions)

    traffic = Traffic()
    tally = {"jobs": 0, "failed": 0}

    def go(daemon, queues, latencies=None):
        tally["jobs"] += sum(len(q) for q in queues)
        tally["failed"] += drive(daemon.socks, queues, traffic, latencies)

    def open_all(daemon):
        go(daemon, single_jobs(conns, lambda s: (s.open,)))

    # Set-up, several times: exec -> READY plus opening every session,
    # whose first opens build the datasets.  The last daemon is measured.
    setups = []
    for i in range(SETUPS):
        traffic.__init__()
        daemon = Daemon(ctx, work)
        open_all(daemon)
        setups.append(time.perf_counter() - daemon.start)
        if i + 1 < SETUPS:
            daemon.shutdown(Traffic())

    latencies = []
    p0 = daemon.probe()
    go(daemon, round_jobs(conns, 0, rounds), latencies)
    p1 = daemon.probe()
    usage1 = daemon.kill()

    # exec -> every session back where it stood: the new daemon has none,
    # so the client re-opens them and replays every round.
    daemon = Daemon(ctx, work)
    open_all(daemon)
    go(daemon, round_jobs(conns, 0, rounds))
    restart_s = time.perf_counter() - daemon.start

    go(daemon, single_jobs(conns, lambda s: (s.done,)))
    go(daemon, single_jobs(conns, lambda s: tuple(s.verify)))
    io_end = harness.proc_io(daemon.proc.pid)
    usage2 = daemon.shutdown(traffic)

    w1 = window(p0, p1)
    round_trips = len(latencies)
    attempted, failed = tally["jobs"], tally["failed"]
    traffic_wall = w1[4]
    daemon_cpu_ms = w1[0] / 1e6
    client_cpu_ms = w1[3] * 1e3
    counters = {
        "serve.requests": traffic.requests,
        "serve.request_bytes": traffic.request_bytes,
        "serve.reply_bytes": traffic.reply_bytes,
        "serve.errors": traffic.errors,
        "serve.io.wchar": p1[1]["wchar"] + io_end["wchar"],
        "serve.io.syscw": p1[1]["syscw"] + io_end["syscw"],
        "serve.snapshot.writes": w1[2],
        "serve.snapshot.bytes": w1[1],
    }
    record = {
        "sessions": len(sessions), "round_trips": round_trips,
        "latency_samples": round_trips, "setup_samples": len(setups),
        "restart_s": restart_s, "traffic_wall_s": traffic_wall,
        "daemon_cpu_ms": daemon_cpu_ms, "client_cpu_ms": client_cpu_ms,
        # The generator must stay cheaper than the daemon it loads, or a
        # faster daemon would be capped by the client.
        "client_busier_than_daemon": client_cpu_ms > daemon_cpu_ms,
        "counters": counters,
    }
    if trace:
        return trace_layers(ctx, work, stream, counters, daemon_cpu_ms,
                            attempted, failed, record)
    metrics = {
        "ops_per_s": metric(round_trips / traffic_wall, "1/s"),
        "latency_p50_ms": metric(1e3 * harness.percentile(latencies, 50),
                                 "ms"),
        "latency_p99_ms": metric(
            1e3 * harness.windowed_percentile(latencies, 99), "ms"),
        "cpu_ms_per_op": metric(daemon_cpu_ms / round_trips, "ms"),
        "peak_rss_mb": metric(max(usage1.ru_maxrss, usage2.ru_maxrss)
                              / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
        "restart_s": metric(restart_s, "s"),
    }
    return failed == 0, attempted, failed, metrics, record


def trace_layers(ctx, work, stream, counters, daemon_cpu_ms, attempted,
                 failed, record):
    """Replays the recorded stream in-process with spans (perfdriver)."""
    summary = os.path.join(work, "trace-summary.json")
    subprocess.run([ctx.binary("perfdriver"), "serve-trace", stream,
                    os.path.join(work, "trace-work"), summary,
                    os.path.join(ctx.runs_dir, "trace-serve-mem.json")],
                   env=ctx.env, check=True)
    layers = ctx.read_json(summary)
    mismatches = int(layers.pop("replay.mismatches"))
    record["replay"] = {"sessions": layers.pop("replay.sessions"),
                        "mismatches": mismatches}
    # Daemon CPU in the traffic window minus the same requests handled
    # in-process: what the poll loop and socket syscalls cost.
    layers["serve.loop.self_ms"] = max(
        0.0, daemon_cpu_ms - layers.pop("trace.wire_traffic_cpu_ms"))
    # The daemon writes no snapshots; the snapshot counters come from
    # perfdriver's durable replay.
    layers = {**counters, **layers}
    failed += mismatches
    return failed == 0, attempted, failed, ctx.layer_metrics(layers), record
