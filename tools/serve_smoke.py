#!/usr/bin/env python3
"""CI smoke test for alic_serve: the daemon survives SIGKILL invisibly.

Drives the real daemon over its Unix socket twice with identical
deterministic client behaviour:

1. *reference* — one daemon serves a whole session of suggest/observe
   rounds; every raw `suggest` reply line is recorded;
2. *kill* — a fresh daemon (fresh state dir) serves the same session,
   is SIGKILLed after K rounds, restarted on the same state dir, and
   serves the remaining rounds.

The kill run's reply lines must equal the reference run's byte for byte
— the serving layer's restart-invisibility contract, checked end to end
through the socket, the wire protocol, the session logs, and the
restore-by-replay path.

Three hardening probes then pin the daemon's client-misbehaviour
semantics (docs/SERVE_PROTOCOL.md):

3. *idle timeout* — a stalled connection is dropped after
   --idle-timeout-ms while the daemon keeps serving everyone else;
4. *oversized request* — a request over --max-request-bytes gets one
   error reply and a disconnect, and the daemon stays up;
5. *SIGTERM drain* — SIGTERM exits 0, and a restarted daemon still
   holds every acknowledged observation;
6. *flag parsing* — malformed numeric flags (`--threads=abc`, ...) and
   unknown flags (`--checkpoint-every=1`, gone with whole-session
   snapshots) exit 2 with the usage text before serving, an unknown
   `ALIC_SCALE` exits 2 with one line naming the valid scales, while
   `--threads=auto` and an empty `--state-dir=` still start the daemon;
7. *uncreatable state dir* — a `--state-dir` below a regular file exits
   1 with one line naming the directory, before the socket is bound.

stdlib-only by design: CI runs it with a bare python3.  Its client
(`Daemon`, `synthetic_cost`, `fail`) is shared: tools/chaos_smoke.py
imports it.

Exit codes: 0 ok, 1 contract violation or daemon failure, 2 usage error.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

ROUNDS = 6
KILL_AFTER = 3

SPEC = {
    "benchmark": "atax",
    "model": "dynatree",
    "scorer": "alc",
    "plan": "seq:35",
    "seed": 9,
    "max_examples": 8,
}


def fail(message):
    """Reports a contract violation under the running script's name."""
    prog = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    print(f"{prog}: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def synthetic_cost(round_index, slot):
    """Deterministic stand-in for a measurement; identical in both runs."""
    return 0.4 + ((round_index * 31 + slot * 7) % 97) * 1e-3


class Daemon:
    """One alic_serve process plus a line-oriented socket connection.

    `failpoints` becomes the daemon's ALIC_FAILPOINTS; any inherited
    value is dropped.
    """

    def __init__(self, binary, sock_path, state_dir, label, extra_args=(),
                 threads=2, failpoints=None):
        self.label = label
        self.sock_path = sock_path
        env = dict(os.environ, ALIC_SCALE="smoke")
        env.pop("ALIC_FAILPOINTS", None)
        if failpoints:
            env["ALIC_FAILPOINTS"] = failpoints
        self.proc = subprocess.Popen(
            [binary, f"--socket={sock_path}", f"--state-dir={state_dir}",
             f"--threads={threads}", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        ready = self.proc.stdout.readline()
        if not ready.startswith("READY"):
            fail(f"{label}: daemon did not print READY (got {ready!r})")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        for _ in range(50):  # the socket appears just before READY
            try:
                self.conn.connect(sock_path)
                break
            except OSError:
                time.sleep(0.1)
        else:
            fail(f"{label}: could not connect to {sock_path}")
        self.reader = self.conn.makefile("r")

    def request(self, obj):
        """Sends one request object, returns (raw reply line, parsed)."""
        self.conn.sendall((json.dumps(obj) + "\n").encode())
        line = self.reader.readline()
        if not line:
            fail(f"{self.label}: daemon closed the connection")
        reply = json.loads(line)
        return line.rstrip("\n"), reply

    def must(self, obj):
        line, reply = self.request(obj)
        if not reply.get("ok"):
            fail(f"{self.label}: {obj.get('op')} failed: {line}")
        return line, reply

    def connect_extra(self):
        """A second, independent connection to the same daemon."""
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(self.sock_path)
        return conn

    def kill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.conn.close()

    def shutdown(self):
        self.must({"op": "shutdown"})
        code = self.proc.wait(timeout=30)
        if code != 0:
            fail(f"{self.label}: shutdown drain exited {code}, want 0")
        self.conn.close()

    def terminate(self):
        """SIGTERM: the daemon must drain and exit 0."""
        self.proc.terminate()
        code = self.proc.wait(timeout=30)
        self.conn.close()
        if code != 0:
            fail(f"{self.label}: SIGTERM drain exited {code}, want 0")


def run_rounds(daemon, start, stop, suggestions):
    """Rounds [start, stop): suggest, synthesize costs, observe."""
    for round_index in range(start, stop):
        line, reply = daemon.must({"op": "suggest", "session": "s"})
        if reply["phase"] == "done":
            fail(f"{daemon.label}: session done early at round {round_index}")
        suggestions.append(line)
        count = len(reply["configs"]) * reply["observations_per_config"]
        costs = [synthetic_cost(round_index, slot) for slot in range(count)]
        daemon.must({"op": "observe", "session": "s",
                     "ticket": reply["ticket"], "costs": costs})


def probe_idle_timeout(binary, workdir):
    """A stalled client is dropped; a live one on the same daemon is not."""
    sock = os.path.join(workdir, "idle.sock")
    daemon = Daemon(binary, sock, os.path.join(workdir, "idle"), "idle",
                    extra_args=["--idle-timeout-ms=400"])
    stalled = daemon.connect_extra()  # connects, then never speaks
    deadline = time.time() + 10
    dropped = False
    while time.time() < deadline:
        daemon.must({"op": "ping"})  # keeps the main connection warm
        stalled.settimeout(0.2)
        try:
            if stalled.recv(1) == b"":
                dropped = True
                break
        except socket.timeout:
            pass
    if not dropped:
        fail("idle: stalled connection was not dropped within 10s")
    daemon.must({"op": "ping"})  # the active client kept its connection
    daemon.shutdown()
    print("serve_smoke: idle-timeout probe OK "
          "(stalled client dropped, active client kept)")


def probe_oversized_request(binary, workdir):
    """An over-limit request gets one error reply, then a disconnect."""
    sock = os.path.join(workdir, "big.sock")
    daemon = Daemon(binary, sock, os.path.join(workdir, "big"), "big",
                    extra_args=["--max-request-bytes=4096"])
    rude = daemon.connect_extra()
    rude.sendall(b'{"op":"ping","pad":"' + b"x" * 8192 + b'"}\n')
    reader = rude.makefile("r")
    reply = json.loads(reader.readline())
    if reply.get("ok") or "exceeds" not in reply.get("error", ""):
        fail(f"big: want an 'exceeds' error reply, got {reply}")
    if reader.readline() != "":
        fail("big: oversized-request client was not disconnected")
    daemon.must({"op": "ping"})  # the daemon itself is unharmed
    daemon.shutdown()
    print("serve_smoke: oversized-request probe OK "
          "(error reply + disconnect, daemon alive)")


def probe_sigterm_drain(binary, workdir):
    """SIGTERM drains cleanly; acknowledged observes survive it."""
    sock = os.path.join(workdir, "drain.sock")
    state = os.path.join(workdir, "drain")
    daemon = Daemon(binary, sock, state, "drain")
    daemon.must({"op": "open", "session": "s", "spec": SPEC})
    drained = []
    run_rounds(daemon, 0, 2, drained)
    daemon.terminate()

    daemon = Daemon(binary, sock, state, "drain-restart")
    _, info = daemon.must({"op": "info", "session": "s"})
    if info.get("observes") != 2:
        fail(f"drain: restored session has {info.get('observes')} "
             f"observes, want 2 — the drain lost data")
    daemon.shutdown()
    print("serve_smoke: SIGTERM-drain probe OK "
          "(2 acknowledged observes survived)")


def probe_flags(binary, workdir):
    """Bad numeric and unknown flags are usage errors, and so is an
    unknown scale; auto threads and no state dir are not."""
    env = dict(os.environ, ALIC_SCALE="smoke")
    sock = os.path.join(workdir, "flags.sock")
    for bad in (["--threads=abc"], ["--threads=-1"],
                ["--checkpoint-every=1"],
                ["--idle-timeout-ms=99999999999999999999"],
                ["--max-request-bytes="]):
        proc = subprocess.run([binary, f"--socket={sock}", *bad],
                              capture_output=True, text=True, env=env,
                              timeout=30)
        if proc.returncode != 2 or "READY" in proc.stdout:
            fail(f"flags: {bad} exited {proc.returncode} with stdout "
                 f"{proc.stdout!r}, want exit 2 before READY")
        if "usage:" not in proc.stderr:
            fail(f"flags: {bad} printed no usage text: {proc.stderr!r}")
    proc = subprocess.run([binary, f"--socket={sock}"], capture_output=True,
                          text=True, env=dict(env, ALIC_SCALE="smok"),
                          timeout=30)
    lines = proc.stderr.splitlines()
    if proc.returncode != 2 or "READY" in proc.stdout:
        fail(f"flags: ALIC_SCALE=smok exited {proc.returncode} with stdout "
             f"{proc.stdout!r}, want exit 2 before READY")
    if len(lines) != 1 or "smoke|bench|paper" not in lines[0]:
        fail(f"flags: ALIC_SCALE=smok wants one line naming "
             f"smoke|bench|paper, got {proc.stderr!r}")
    daemon = Daemon(binary, sock, "", "flags", threads="auto")
    daemon.must({"op": "ping"})
    daemon.shutdown()
    print("serve_smoke: flag probe OK (bad numbers and unknown flags exit "
          "2 with usage, an unknown scale exits 2; --threads=auto with an "
          "empty --state-dir= serves)")


def probe_uncreatable_state_dir(binary, workdir):
    """A state dir that cannot be created is a startup error, not a
    crash: exit 1, one stderr line naming it, no socket bound."""
    blocker = os.path.join(workdir, "not-a-dir")
    with open(blocker, "w", encoding="utf-8") as handle:
        handle.write("a regular file\n")
    state_dir = os.path.join(blocker, "state")
    sock = os.path.join(workdir, "statedir.sock")
    proc = subprocess.run([binary, f"--socket={sock}",
                           f"--state-dir={state_dir}"],
                          capture_output=True, text=True, timeout=30,
                          env=dict(os.environ, ALIC_SCALE="smoke"))
    lines = proc.stderr.splitlines()
    if proc.returncode != 1 or "READY" in proc.stdout:
        fail(f"state dir: exited {proc.returncode} with stdout "
             f"{proc.stdout!r}, want exit 1 before READY")
    if len(lines) != 1 or state_dir not in lines[0]:
        fail(f"state dir: want one stderr line naming {state_dir}, got "
             f"{proc.stderr!r}")
    if os.path.exists(sock):
        fail("state dir: the socket was bound before the check")
    print("serve_smoke: state-dir probe OK (exit 1, one line, no socket)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True,
                        help="path to the alic_serve executable")
    parser.add_argument("--workdir", default="serve-smoke",
                        help="scratch directory (wiped)")
    args = parser.parse_args()
    binary = os.path.abspath(args.binary)
    if not os.path.exists(binary):
        print(f"serve_smoke: no such binary: {binary}", file=sys.stderr)
        sys.exit(2)

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    sock = os.path.join(args.workdir, "alic.sock")

    # Reference: one uninterrupted daemon.
    reference = []
    daemon = Daemon(binary, sock, os.path.join(args.workdir, "ref"), "ref")
    daemon.must({"op": "open", "session": "s", "spec": SPEC})
    run_rounds(daemon, 0, ROUNDS, reference)
    _, info = daemon.must({"op": "info", "session": "s"})
    daemon.shutdown()
    print(f"serve_smoke: reference run served {ROUNDS} rounds "
          f"({info['observations']} observations)")

    # Kill run: same session, SIGKILL after KILL_AFTER rounds, restart.
    seen = []
    daemon = Daemon(binary, sock, os.path.join(args.workdir, "kill"), "kill")
    daemon.must({"op": "open", "session": "s", "spec": SPEC})
    run_rounds(daemon, 0, KILL_AFTER, seen)
    daemon.kill()
    print(f"serve_smoke: SIGKILLed the daemon after {KILL_AFTER} rounds")

    daemon = Daemon(binary, sock, os.path.join(args.workdir, "kill"),
                    "restart")
    _, ping = daemon.must({"op": "ping"})
    if ping.get("sessions") != 1:
        fail(f"restart: expected 1 restored session, got {ping}")
    run_rounds(daemon, KILL_AFTER, ROUNDS, seen)
    daemon.shutdown()

    if seen != reference:
        for index, (fresh, ref) in enumerate(zip(seen, reference)):
            if fresh != ref:
                fail(f"suggestion {index} diverged after restart:\n"
                     f"  reference: {ref}\n  resumed:   {fresh}")
        fail(f"round count diverged: {len(seen)} vs {len(reference)}")
    print(f"serve_smoke: OK — all {ROUNDS} suggestions byte-identical "
          f"across SIGKILL + restart")

    probe_idle_timeout(binary, args.workdir)
    probe_oversized_request(binary, args.workdir)
    probe_sigterm_drain(binary, args.workdir)
    probe_flags(binary, args.workdir)
    probe_uncreatable_state_dir(binary, args.workdir)

    shutil.rmtree(args.workdir, ignore_errors=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
