#!/usr/bin/env python3
"""Chaos harness: kill-at-every-sync-point and disk-full fault injection.

Exercises the failpoint catalog (support/FailPoint.h) end to end against
the real binaries, checking the repo's degrade-don't-abort contract:

1. *campaign crash loops* — for every durability failpoint on the
   campaign path (ledger.append, ledger.sync, atomicfile.write,
   atomicfile.sync, atomicfile.rename, atomicfile.dirsync), repeatedly
   run `alic_campaign` with `ALIC_FAILPOINTS="<site>=nth:K,mode:crash"`
   for K = 1, 2, 3, ... on one state dir.  Each run survives K-1 hits of
   the site and then `_exit`s mid-syscall; resuming with K+1 makes
   monotone progress, so the loop always terminates.  The final
   uninterrupted run must produce a BENCH_campaign.json byte-identical
   to a never-crashed reference.

2. *ENOSPC quarantine* — the paper-scale smoke campaign (275 cells) with
   a persistent injected ENOSPC from the 4th ledger append onward: the
   campaign must finish every cell, report the quarantined keys, exit 74
   (EX_IOERR), and a clean re-launch must retry exactly the quarantined
   cells and render a byte-identical aggregate.

3. *sharded kill loop* — for every lease failpoint (lease.acquire,
   lease.renew, lease.steal), three `--lease-claim` workers cooperate on
   the 275-cell smoke spec while one of them is killed mid-syscall at the
   armed site; the survivors steal the dead worker's expired range
   leases, the union of shard ledgers is merged with `--merge-ledgers`,
   and the merged canonical ledger plus the re-aggregated
   BENCH_campaign.json must be byte-identical to a single-process
   reference.

4. *serve session-log crash loops* — for every durable write a session
   makes (session.header at the open, session.append and session.sync
   for each observe's record), a suggest/observe client drives
   `alic_serve` while `<site>=nth:K,mode:crash` kills the daemon at the
   K-th hit; the client restarts the daemon and resumes with the
   documented at-least-once rule (re-suggest; a reply equal to the
   unacknowledged round means the observe was lost and is re-sent, a
   different one means it landed and is the next round).  Every
   suggestion across all crashes must be byte-identical to an
   uninterrupted reference run.

5. *scale typo* — `ALIC_SCALE=smok alic_campaign ...` exits 2 with one
   line naming smoke|bench|paper and writes nothing.

stdlib-only by design: CI runs it with a bare python3.

Exit codes: 0 ok, 1 contract violation, 2 usage error.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import time

CRASH_EXIT = 43  # FailSpec::ExitCode default
QUARANTINE_EXIT = 74  # alic_campaign's EX_IOERR
MAX_CRASH_ITERATIONS = 64

CAMPAIGN_SITES = [
    "ledger.append",
    "ledger.sync",
    "atomicfile.write",
    "atomicfile.sync",
    "atomicfile.rename",
    "atomicfile.dirsync",
]

SESSION_SITES = ["session.header", "session.append", "session.sync"]

SERVE_ROUNDS = 5
SERVE_SPEC = {
    "benchmark": "atax",
    "model": "dynatree",
    "scorer": "alc",
    "plan": "seq:35",
    "seed": 9,
    "max_examples": 8,
}


def fail(message):
    print(f"chaos_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def read_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


# ---------------------------------------------------------------------------
# Campaign chaos
# ---------------------------------------------------------------------------

def spec_flags(small):
    if small:
        return ["--benchmarks=atax,mvt", "--seeds=1"]
    return ["--models=dynatree,gp", "--scorers=alm,alc", "--seeds=2"]


def campaign_cmd(binary, state_dir, out, small):
    return ([binary, f"--state-dir={state_dir}", f"--out={out}"]
            + spec_flags(small))


def run_campaign(binary, state_dir, out, small, failpoints=None):
    env = dict(os.environ, ALIC_SCALE="smoke")
    env.pop("ALIC_FAILPOINTS", None)
    if failpoints:
        env["ALIC_FAILPOINTS"] = failpoints
    proc = subprocess.run(campaign_cmd(binary, state_dir, out, small),
                          env=env, capture_output=True, text=True)
    return proc


def campaign_crash_loops(binary, workdir):
    """Kill the campaign at every hit of every durability failpoint."""
    ref_out = os.path.join(workdir, "ref.json")
    proc = run_campaign(binary, os.path.join(workdir, "ref"), ref_out,
                        small=True)
    if proc.returncode != 0:
        fail(f"reference campaign failed: rc={proc.returncode}\n{proc.stderr}")
    reference = read_bytes(ref_out)

    for site in CAMPAIGN_SITES:
        tag = site.replace(".", "_")
        state_dir = os.path.join(workdir, f"crash_{tag}")
        out = os.path.join(workdir, f"crash_{tag}.json")
        crashes = 0
        for iteration in range(1, MAX_CRASH_ITERATIONS + 1):
            proc = run_campaign(binary, state_dir, out, small=True,
                                failpoints=f"{site}=nth:{iteration},mode:crash")
            if proc.returncode == 0:
                break
            if proc.returncode != CRASH_EXIT:
                fail(f"{site}: iteration {iteration} exited "
                     f"{proc.returncode}, want {CRASH_EXIT} (crash) or 0\n"
                     f"{proc.stderr}")
            crashes += 1
        else:
            fail(f"{site}: no progress after {MAX_CRASH_ITERATIONS} "
                 f"crash iterations")
        # One final run with nothing armed: nothing left to do, and the
        # aggregate must match the never-crashed reference byte for byte.
        proc = run_campaign(binary, state_dir, out, small=True)
        if proc.returncode != 0:
            fail(f"{site}: clean resume failed: rc={proc.returncode}\n"
                 f"{proc.stderr}")
        if read_bytes(out) != reference:
            fail(f"{site}: aggregate diverged after {crashes} crashes "
                 f"({out} vs {ref_out})")
        print(f"chaos_smoke: campaign {site}: byte-identical after "
              f"{crashes} kill(s)")


def campaign_enospc_quarantine(binary, workdir, small):
    """Persistent disk-full mid-campaign: quarantine, exit 74, resume."""
    label = "small" if small else "275-cell"
    ref_out = os.path.join(workdir, "enospc_ref.json")
    proc = run_campaign(binary, os.path.join(workdir, "enospc_ref"), ref_out,
                        small=small)
    if proc.returncode != 0:
        fail(f"enospc reference failed: rc={proc.returncode}\n{proc.stderr}")
    reference = read_bytes(ref_out)

    state_dir = os.path.join(workdir, "enospc")
    out = os.path.join(workdir, "enospc.json")
    proc = run_campaign(binary, state_dir, out, small=small,
                        failpoints="ledger.append=nth:4,mode:enospc")
    if proc.returncode != QUARANTINE_EXIT:
        fail(f"enospc run exited {proc.returncode}, want {QUARANTINE_EXIT}\n"
             f"{proc.stderr}")
    quarantined = [line for line in proc.stderr.splitlines()
                   if line.strip().startswith("quarantined:")]
    if not quarantined:
        fail(f"enospc run reported no quarantined cells:\n{proc.stderr}")
    if os.path.exists(out):
        fail("enospc run wrote an aggregate despite quarantined cells")

    proc = run_campaign(binary, state_dir, out, small=small)
    if proc.returncode != 0:
        fail(f"enospc resume failed: rc={proc.returncode}\n{proc.stderr}")
    if read_bytes(out) != reference:
        fail("enospc resume aggregate diverged from reference")
    print(f"chaos_smoke: campaign ENOSPC ({label}): {len(quarantined)} "
          f"cell(s) quarantined, resume byte-identical")


# ---------------------------------------------------------------------------
# Sharded campaign chaos
# ---------------------------------------------------------------------------

LEASE_SITES = ["lease.acquire", "lease.renew", "lease.steal"]
SHARD_WORKERS = 3
LEASE_TTL_MS = 800


def lease_worker_cmd(binary, state_dir, out, small, worker, range_cells):
    # The 25 ms heartbeat makes lease.renew fire early in a range even on
    # fast specs (the default ttl/4 cadence can outlive a whole range).
    return campaign_cmd(binary, state_dir, out, small) + [
        "--lease-claim", f"--lease-ttl-ms={LEASE_TTL_MS}",
        "--lease-heartbeat-ms=25",
        f"--lease-range-cells={range_cells}", f"--worker-id=w{worker}"]


def plant_expired_leases(state_dir, range_cells, cell_count):
    """Ghost leases from a fleet that was SIGKILLed wholesale: one expired
    lease file per range, so every worker's first claim goes through the
    steal path (the only way to make lease.steal fire deterministically).
    """
    lease_dir = os.path.join(state_dir, "leases")
    os.makedirs(lease_dir, exist_ok=True)
    ranges = (cell_count + range_cells - 1) // range_cells
    long_ago = time.time() - 60
    for index in range(ranges):
        path = os.path.join(lease_dir, f"range-{index}.lease")
        with open(path, "w") as stream:
            stream.write("ghost-fleet\n")
        os.utime(path, (long_ago, long_ago))


def campaign_sharded_kill(binary, workdir, small):
    """3 lease workers, one killed at every lease site; survivors reclaim."""
    label = "small" if small else "275-cell"
    cell_count = 14 if small else 275
    range_cells = 2 if small else 16
    ref_dir = os.path.join(workdir, "shard_ref")
    ref_out = os.path.join(workdir, "shard_ref.json")
    proc = run_campaign(binary, ref_dir, ref_out, small=small)
    if proc.returncode != 0:
        fail(f"sharded reference failed: rc={proc.returncode}\n{proc.stderr}")
    reference_json = read_bytes(ref_out)
    reference_ledger = read_bytes(os.path.join(ref_dir, "cells.jsonl"))

    for site in LEASE_SITES:
        tag = site.replace(".", "_")
        state_dir = os.path.join(workdir, f"shard_{tag}")
        if site == "lease.steal":
            plant_expired_leases(state_dir, range_cells, cell_count)
        # Arm the failpoint in worker w0 only; w1/w2 run clean.  nth:2 for
        # renew (the first renewal happens mid-range, after real work has
        # been appended — the dead worker leaves a partial shard ledger).
        nth = 2 if site == "lease.renew" else 1
        procs = []
        for worker in range(SHARD_WORKERS):
            env = dict(os.environ, ALIC_SCALE="smoke")
            env.pop("ALIC_FAILPOINTS", None)
            if worker == 0:
                env["ALIC_FAILPOINTS"] = f"{site}=nth:{nth},mode:crash"
            out = os.path.join(workdir, f"shard_{tag}_w{worker}.json")
            procs.append(subprocess.Popen(
                lease_worker_cmd(binary, state_dir, out, small, worker,
                                 range_cells),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                text=True))
        codes = []
        for worker, proc in enumerate(procs):
            try:
                stdout, stderr = proc.communicate(timeout=900)
            except subprocess.TimeoutExpired:
                for p in procs:
                    p.kill()
                fail(f"{site}: worker w{worker} wedged (survivors failed "
                     f"to reclaim the dead worker's leases?)")
            codes.append(proc.returncode)
            if worker and proc.returncode != 0:
                fail(f"{site}: survivor w{worker} exited {proc.returncode}"
                     f"\n{stderr}")
        if codes[0] != CRASH_EXIT:
            fail(f"{site}: armed worker w0 exited {codes[0]}, want "
                 f"{CRASH_EXIT} (the failpoint never fired?)")

        # Merge the survivors' (and the victim's partial) shard ledgers:
        # the canonical ledger must be byte-identical to the
        # single-process reference, and so must the re-aggregated JSON.
        merge = subprocess.run(
            [binary, f"--state-dir={state_dir}", "--merge-ledgers"]
            + spec_flags(small),
            env=dict(os.environ, ALIC_SCALE="smoke"), capture_output=True,
            text=True)
        if merge.returncode != 0:
            fail(f"{site}: merge exited {merge.returncode}\n{merge.stderr}")
        merged_ledger = read_bytes(os.path.join(state_dir, "cells.jsonl"))
        if merged_ledger != reference_ledger:
            fail(f"{site}: merged ledger diverged from the single-process "
                 f"reference ({state_dir}/cells.jsonl)")
        out = os.path.join(workdir, f"shard_{tag}.json")
        proc = run_campaign(binary, state_dir, out, small=small)
        if proc.returncode != 0:
            fail(f"{site}: aggregate over merged ledger exited "
                 f"{proc.returncode}\n{proc.stderr}")
        if read_bytes(out) != reference_json:
            fail(f"{site}: aggregate diverged from reference after merge")
        print(f"chaos_smoke: campaign sharded ({label}) {site}: w0 killed, "
              f"survivors reclaimed, merge byte-identical")


# ---------------------------------------------------------------------------
# Serve chaos
# ---------------------------------------------------------------------------

class DaemonDied(Exception):
    """The daemon crashed mid-request (the injected failpoint fired)."""


class ChaosDaemon:
    """One alic_serve process; request() raises DaemonDied on a crash."""

    def __init__(self, binary, sock_path, state_dir, failpoints=None):
        env = dict(os.environ, ALIC_SCALE="smoke")
        env.pop("ALIC_FAILPOINTS", None)
        if failpoints:
            env["ALIC_FAILPOINTS"] = failpoints
        self.proc = subprocess.Popen(
            [binary, f"--socket={sock_path}", f"--state-dir={state_dir}",
             "--threads=0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            text=True)
        ready = self.proc.stdout.readline()
        if not ready.startswith("READY"):
            fail(f"daemon did not print READY (got {ready!r})")
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        for _ in range(50):
            try:
                self.conn.connect(sock_path)
                break
            except OSError:
                time.sleep(0.1)
        else:
            fail(f"could not connect to {sock_path}")
        self.reader = self.conn.makefile("r")

    def request(self, obj):
        try:
            self.conn.sendall((json.dumps(obj) + "\n").encode())
            line = self.reader.readline()
        except OSError:
            line = ""
        if not line:
            raise DaemonDied()
        return line.rstrip("\n"), json.loads(line)

    def must(self, obj):
        line, reply = self.request(obj)
        if not reply.get("ok"):
            fail(f"{obj.get('op')} failed: {line}")
        return line, reply

    def reap(self, expect_crash):
        self.conn.close()
        rc = self.proc.wait(timeout=30)
        if expect_crash and rc != CRASH_EXIT:
            fail(f"daemon exited {rc}, want crash exit {CRASH_EXIT}")
        return rc

    def terminate(self):
        self.proc.terminate()
        rc = self.proc.wait(timeout=30)
        self.conn.close()
        if rc != 0:
            fail(f"daemon SIGTERM drain exited {rc}, want 0")


def serve_cost(round_index, slot):
    return 0.4 + ((round_index * 31 + slot * 7) % 97) * 1e-3


def serve_reference(binary, workdir):
    sock = os.path.join(workdir, "serve_ref.sock")
    daemon = ChaosDaemon(binary, sock, os.path.join(workdir, "serve_ref"))
    daemon.must({"op": "open", "session": "s", "spec": SERVE_SPEC})
    suggestions = []
    for round_index in range(SERVE_ROUNDS):
        line, reply = daemon.must({"op": "suggest", "session": "s"})
        suggestions.append(line)
        count = len(reply["configs"]) * reply["observations_per_config"]
        costs = [serve_cost(round_index, s) for s in range(count)]
        daemon.must({"op": "observe", "session": "s",
                     "ticket": reply["ticket"], "costs": costs})
    daemon.terminate()
    return suggestions


def serve_crash_loop(binary, workdir, reference, site):
    """Crash the daemon at the K-th hit of `site` for K = 1, 2, ...

    The client follows the at-least-once rule the protocol documents:
    after a restart it re-suggests.  A reply byte-equal to the round
    whose observe went unanswered means that observe was lost: re-send
    the same costs.  A different reply means it landed (the crash came
    after the write, before the reply): the round counts, and the reply
    is the next round, checked against the reference.
    """
    tag = site.replace(".", "_")
    sock = os.path.join(workdir, f"serve_{tag}.sock")
    state_dir = os.path.join(workdir, f"serve_{tag}")
    suggestions = []  # every round's suggestion seen so far
    acked = 0  # rounds whose observe is known to have landed
    crashes = 0
    iteration = 0
    while acked < SERVE_ROUNDS:
        iteration += 1
        if iteration > MAX_CRASH_ITERATIONS:
            fail(f"serve {site} made no progress "
                 f"({acked}/{SERVE_ROUNDS} rounds after {crashes} crashes)")
        daemon = ChaosDaemon(binary, sock, state_dir,
                             failpoints=f"{site}=nth:{iteration},mode:crash")
        try:
            _, ping = daemon.must({"op": "ping"})
            if ping.get("sessions") == 0:
                # Crashed before the open's header landed: open again.
                if acked or suggestions:
                    fail(f"serve {site}: the session vanished after "
                         f"{acked} acknowledged round(s)")
                daemon.must({"op": "open", "session": "s",
                             "spec": SERVE_SPEC})
            while acked < SERVE_ROUNDS:
                line, reply = daemon.must({"op": "suggest", "session": "s"})
                if acked < len(suggestions) and line != suggestions[acked]:
                    acked += 1  # the unanswered observe landed
                    if acked == SERVE_ROUNDS:
                        break
                if acked == len(suggestions):
                    if line != reference[acked]:
                        fail(f"serve {site}: round {acked} diverged:\n"
                             f"  reference: {reference[acked]}\n"
                             f"  chaos:     {line}")
                    suggestions.append(line)
                count = (len(reply["configs"]) *
                         reply["observations_per_config"])
                costs = [serve_cost(acked, s) for s in range(count)]
                daemon.must({"op": "observe", "session": "s",
                             "ticket": reply["ticket"], "costs": costs})
                acked += 1
        except DaemonDied:
            daemon.reap(expect_crash=True)
            crashes += 1
            continue
        daemon.terminate()
    if crashes == 0:
        fail(f"serve {site}: the failpoint never fired")

    # A final clean restart still restores the fully-observed session.
    daemon = ChaosDaemon(binary, sock, state_dir)
    _, info = daemon.must({"op": "info", "session": "s"})
    if info.get("observes") != SERVE_ROUNDS:
        fail(f"serve {site}: restored session has {info.get('observes')} "
             f"observes, want {SERVE_ROUNDS}")
    daemon.terminate()
    print(f"chaos_smoke: serve {site}: {SERVE_ROUNDS} rounds "
          f"byte-identical across {crashes} crash(es)")


def campaign_scale_typo(binary, workdir):
    """An unknown ALIC_SCALE is refused before any work."""
    state_dir = os.path.join(workdir, "scale_typo")
    out = os.path.join(workdir, "scale_typo.json")
    env = dict(os.environ, ALIC_SCALE="smok")
    env.pop("ALIC_FAILPOINTS", None)
    proc = subprocess.run(
        [binary, "--benchmarks=atax", "--models=dynatree", "--scorers=alm",
         "--seeds=1", "--no-noise", f"--state-dir={state_dir}",
         f"--out={out}"], env=env, capture_output=True, text=True)
    lines = proc.stderr.splitlines()
    if proc.returncode != 2:
        fail(f"ALIC_SCALE=smok campaign exited {proc.returncode}, want 2\n"
             f"{proc.stderr}")
    if len(lines) != 1 or "smoke|bench|paper" not in lines[0]:
        fail(f"ALIC_SCALE=smok wants one line naming smoke|bench|paper, "
             f"got {proc.stderr!r}")
    if proc.stdout or os.path.exists(state_dir) or os.path.exists(out):
        fail("ALIC_SCALE=smok campaign did work before refusing the scale")
    print("chaos_smoke: campaign ALIC_SCALE=smok: exit 2 before any work")


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--campaign-binary", required=True,
                        help="path to the alic_campaign executable")
    parser.add_argument("--serve-binary", required=True,
                        help="path to the alic_serve executable")
    parser.add_argument("--workdir", default="chaos-smoke",
                        help="scratch directory (wiped)")
    parser.add_argument("--small-enospc", action="store_true",
                        help="run the ENOSPC probe on the 8-cell spec "
                             "instead of the 275-cell smoke spec")
    parser.add_argument("--small-shard", action="store_true",
                        help="run the sharded kill loop on the small spec "
                             "instead of the 275-cell smoke spec")
    args = parser.parse_args()
    campaign = os.path.abspath(args.campaign_binary)
    serve = os.path.abspath(args.serve_binary)
    for binary in (campaign, serve):
        if not os.path.exists(binary):
            print(f"chaos_smoke: no such binary: {binary}", file=sys.stderr)
            sys.exit(2)

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)

    campaign_crash_loops(campaign, args.workdir)
    campaign_enospc_quarantine(campaign, args.workdir,
                               small=args.small_enospc)
    campaign_sharded_kill(campaign, args.workdir, small=args.small_shard)
    campaign_scale_typo(campaign, args.workdir)
    reference = serve_reference(serve, args.workdir)
    for site in SESSION_SITES:
        serve_crash_loop(serve, args.workdir, reference, site)

    print("chaos_smoke: OK")
    shutil.rmtree(args.workdir, ignore_errors=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
