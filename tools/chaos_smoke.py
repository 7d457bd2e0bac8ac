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

3. *sharded kill loop* — `--lease-claim` worker w0 runs the 275-cell
   smoke spec alone and is killed at one of two sites: at `lease.acquire`
   (its first claim), and at its second `ledger.append`, which kills it
   while it holds a range and leaves a one-line `cells.w0.jsonl`.  Two
   survivors start at once: the kernel dropped the dead worker's range
   locks when it died, so they claim its ranges with no expiry and
   finish.  The complete lines of every `cells*.jsonl` must then be the
   single-process reference ledger's lines, each exactly once (no cell
   ran twice), and a plain run over the state dir must run nothing and
   render a BENCH_campaign.json byte-identical to the reference.  w0
   runs alone so that no cell cost lets the survivors drain the spec
   before its armed site is reached.

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

5. *refused input* — `ALIC_SCALE=smok alic_campaign ...` exits 2 with one
   line naming smoke|bench|paper; `--models=gp_sor` (a retired model
   token) exits 2 with usage text naming dynatree,gp; the two retired
   lease-expiry flags and the retired `--shard=0/3` each exit 2 with the
   usage text, and so do `--lease-range-cells=0`, and `--worker-id=w0` or
   `--lease-range-cells=4` without `--lease-claim`.  None writes anything.
   A finished campaign whose `--out` cannot be written (`/dev/full`: the
   write lands in the stdio buffer, the close fails) exits 1 naming it.

stdlib-only by design: CI runs it with a bare python3.  The serve
client and its synthetic costs come from tools/serve_smoke.py.

Exit codes: 0 ok, 1 contract violation, 2 usage error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

from serve_smoke import Daemon, fail, synthetic_cost

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


def read_bytes(path):
    with open(path, "rb") as stream:
        return stream.read()


def union_lines(state_dir):
    """The complete lines of every cells*.jsonl in state_dir, sorted.  A
    killed worker's torn tail has no newline and is left out."""
    lines = []
    for name in os.listdir(state_dir):
        if name.startswith("cells") and name.endswith(".jsonl"):
            data = read_bytes(os.path.join(state_dir, name))
            lines += data[:data.rfind(b"\n") + 1].split(b"\n")[:-1]
    return sorted(lines)


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

# Where the armed w0 dies: on its first claim, or at its second ledger
# append, holding a range with one cell appended.
LEASE_KILLS = ["lease.acquire=nth:1,mode:crash",
               "ledger.append=nth:2,mode:crash"]
SHARD_WORKERS = 3


def start_lease_worker(binary, state_dir, workdir, tag, small, worker,
                       range_cells, failpoints=None):
    env = dict(os.environ, ALIC_SCALE="smoke")
    env.pop("ALIC_FAILPOINTS", None)
    if failpoints:
        env["ALIC_FAILPOINTS"] = failpoints
    out = os.path.join(workdir, f"shard_{tag}_w{worker}.json")
    return subprocess.Popen(
        campaign_cmd(binary, state_dir, out, small)
        + ["--lease-claim", f"--lease-range-cells={range_cells}",
           f"--worker-id=w{worker}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)


def wait_worker(proc, site, worker, procs):
    try:
        _, stderr = proc.communicate(timeout=900)
    except subprocess.TimeoutExpired:
        for p in procs:
            p.kill()
        fail(f"{site}: worker w{worker} wedged (survivors failed to claim "
             f"the dead worker's ranges?)")
    return proc.returncode, stderr


def campaign_sharded_kill(binary, workdir, small):
    """Lease worker w0 killed at each kill site; two survivors reclaim."""
    label = "small" if small else "275-cell"
    # Small: 2 benchmarks x 3 plans + 2 noise cells, in 4 ranges.
    range_cells = 2 if small else 16
    ref_dir = os.path.join(workdir, "shard_ref")
    ref_out = os.path.join(workdir, "shard_ref.json")
    proc = run_campaign(binary, ref_dir, ref_out, small=small)
    if proc.returncode != 0:
        fail(f"sharded reference failed: rc={proc.returncode}\n{proc.stderr}")
    reference_json = read_bytes(ref_out)
    reference_lines = union_lines(ref_dir)

    for failpoints in LEASE_KILLS:
        site = failpoints.split("=")[0]
        tag = site.replace(".", "_")
        state_dir = os.path.join(workdir, f"shard_{tag}")
        # Arm the failpoint in w0, which runs alone until it dies.
        w0 = start_lease_worker(binary, state_dir, workdir, tag, small, 0,
                                range_cells, failpoints=failpoints)
        code, _ = wait_worker(w0, site, 0, [w0])
        if code != CRASH_EXIT:
            fail(f"{site}: armed worker w0 exited {code}, want "
                 f"{CRASH_EXIT} (the failpoint never fired?)")
        if site == "ledger.append":
            ledger = os.path.join(state_dir, "cells.w0.jsonl")
            if (not os.path.exists(ledger)
                    or read_bytes(ledger).count(b"\n") != 1):
                fail(f"{site}: the dead worker did not leave a one-line "
                     f"worker ledger")
        # The survivors start at once: w0's locks died with it.
        procs = [start_lease_worker(binary, state_dir, workdir, tag, small,
                                    worker, range_cells)
                 for worker in range(1, SHARD_WORKERS)]
        for worker, proc in enumerate(procs, start=1):
            code, stderr = wait_worker(proc, site, worker, procs)
            if code != 0:
                fail(f"{site}: survivor w{worker} exited {code}\n{stderr}")

        # The survivors' (and the victim's partial) worker ledgers hold
        # the single-process lines, each once: every claim rescans the
        # ledgers under its lock, so no cell ran twice, not even the dead
        # worker's.
        if union_lines(state_dir) != reference_lines:
            fail(f"{site}: the worker ledgers in {state_dir} are not the "
                 f"single-process ledger's {len(reference_lines)} lines, "
                 f"each once")
        # A plain run reads the union: it runs nothing and renders the
        # reference aggregate.
        out = os.path.join(workdir, f"shard_{tag}.json")
        proc = run_campaign(binary, state_dir, out, small=small)
        if proc.returncode != 0:
            fail(f"{site}: aggregate over the worker ledgers exited "
                 f"{proc.returncode}\n{proc.stderr}")
        if ", 0 run now" not in proc.stdout:
            fail(f"{site}: the plain run reran cells: {proc.stdout}")
        if read_bytes(out) != reference_json:
            fail(f"{site}: aggregate diverged from reference")
        print(f"chaos_smoke: campaign sharded ({label}) {site}: w0 killed, "
              f"survivors reclaimed, union byte-identical, 0 duplicates")


# ---------------------------------------------------------------------------
# Serve chaos
# ---------------------------------------------------------------------------

class DaemonDied(Exception):
    """The daemon crashed mid-request (the injected failpoint fired)."""


class ChaosDaemon(Daemon):
    """A serial alic_serve that a failpoint may crash: request() raises
    DaemonDied instead of failing the run."""

    def __init__(self, binary, sock_path, state_dir, failpoints=None):
        super().__init__(binary, sock_path, state_dir, "serve", threads=0,
                         failpoints=failpoints)

    def request(self, obj):
        try:
            self.conn.sendall((json.dumps(obj) + "\n").encode())
            line = self.reader.readline()
        except OSError:
            line = ""
        if not line:
            raise DaemonDied()
        return line.rstrip("\n"), json.loads(line)

    def reap(self, expect_crash):
        self.conn.close()
        rc = self.proc.wait(timeout=30)
        if expect_crash and rc != CRASH_EXIT:
            fail(f"daemon exited {rc}, want crash exit {CRASH_EXIT}")
        return rc


def serve_reference(binary, workdir):
    sock = os.path.join(workdir, "serve_ref.sock")
    daemon = ChaosDaemon(binary, sock, os.path.join(workdir, "serve_ref"))
    daemon.must({"op": "open", "session": "s", "spec": SERVE_SPEC})
    suggestions = []
    for round_index in range(SERVE_ROUNDS):
        line, reply = daemon.must({"op": "suggest", "session": "s"})
        suggestions.append(line)
        count = len(reply["configs"]) * reply["observations_per_config"]
        costs = [synthetic_cost(round_index, s) for s in range(count)]
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
                costs = [synthetic_cost(acked, s) for s in range(count)]
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


def campaign_refusals(binary, workdir):
    """Bad input is refused with exit 2 before any work."""
    def usage_naming(text):
        return lambda err: text in err and "usage:" in err

    probes = [
        # (name, ALIC_SCALE, extra flags, stderr check, its wording)
        ("ALIC_SCALE=smok", "smok", [],
         lambda err: (len(err.splitlines()) == 1 and
                      "smoke|bench|paper" in err),
         "one line naming smoke|bench|paper"),
        ("--models=gp_sor", "smoke", ["--models=gp_sor"],
         lambda err: ("unknown --models entry 'gp_sor'" in err and
                      "dynatree,gp" in err),
         "usage text naming dynatree,gp"),
        # Lease expiry flags, retired: the kernel frees a dead worker's
        # ranges, so nothing expires.
        *[(flag, "smoke", ["--lease-claim", flag],
           usage_naming(f"unknown option: {flag}"),
           "usage text naming the unknown option")
          for flag in ("--lease-ttl-ms=1", "--lease-heartbeat-ms=1")],
        ("--lease-range-cells=0", "smoke",
         ["--lease-claim", "--lease-range-cells=0"],
         usage_naming("bad --lease-range-cells value '0'"),
         "usage text naming the bad value"),
        # Static sharding, retired: lease workers run every sharded
        # campaign.
        ("--shard=0/3", "smoke", ["--shard=0/3"],
         usage_naming("unknown option: --shard=0/3"),
         "usage text naming the unknown option"),
        # Lease-worker flags mean nothing without --lease-claim.
        *[(flag, "smoke", [flag],
           usage_naming(f"{flag.split('=')[0]} needs --lease-claim"),
           "usage text naming the flag")
          for flag in ("--worker-id=w0", "--lease-range-cells=4")],
    ]
    for index, (name, scale, extra, check, wanted) in enumerate(probes):
        state_dir = os.path.join(workdir, f"refused{index}")
        out = os.path.join(workdir, f"refused{index}.json")
        env = dict(os.environ, ALIC_SCALE=scale)
        env.pop("ALIC_FAILPOINTS", None)
        proc = subprocess.run(
            [binary, "--benchmarks=atax", "--scorers=alm", "--seeds=1",
             "--no-noise", f"--state-dir={state_dir}", f"--out={out}"]
            + extra,
            env=env, capture_output=True, text=True)
        if proc.returncode != 2:
            fail(f"{name} campaign exited {proc.returncode}, want 2\n"
                 f"{proc.stderr}")
        if not check(proc.stderr):
            fail(f"{name} wants {wanted}, got {proc.stderr!r}")
        if proc.stdout or os.path.exists(state_dir) or os.path.exists(out):
            fail(f"{name} campaign did work before refusing")
        print(f"chaos_smoke: campaign {name}: exit 2 before any work")

    # An --out that cannot be written fails the run, even when the write
    # only fails at the close's flush.  The crash loops' reference state
    # dir is complete, so this run computes nothing.
    if os.path.exists("/dev/full"):
        proc = run_campaign(binary, os.path.join(workdir, "ref"),
                            "/dev/full", small=True)
        if proc.returncode != 1 or "cannot write /dev/full" not in proc.stderr:
            fail(f"--out=/dev/full campaign exited {proc.returncode}, want 1 "
                 f"naming the path\n{proc.stdout}{proc.stderr}")
        if "written:" in proc.stdout:
            fail(f"--out=/dev/full campaign claims a write: {proc.stdout}")
        print("chaos_smoke: campaign --out=/dev/full: exit 1, nothing "
              "claimed written")
    else:
        print("chaos_smoke: campaign --out=/dev/full: skipped (no /dev/full)")


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
    campaign_refusals(campaign, args.workdir)
    reference = serve_reference(serve, args.workdir)
    for site in SESSION_SITES:
        serve_crash_loop(serve, args.workdir, reference, site)

    print("chaos_smoke: OK")
    shutil.rmtree(args.workdir, ignore_errors=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
