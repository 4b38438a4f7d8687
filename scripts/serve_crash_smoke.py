#!/usr/bin/env python3
"""CI crash smoke for `esl serve`: kill it, restart it, byte-diff the resume.

Phase 1 (SIGKILL + durable recovery): a daemon with --spool-dir/--durable
hosts three sessions across backends (interpreted, compiled, compiled x
sharded). It is SIGKILLed between command rounds and again in the middle of
a long step (that client must exit 5, "connection lost"). After each
restart on the same spool directory every session must re-attach
(stats recovered=N) at the state of its last completed operation — the
mid-step kill loses exactly the op in flight — and each session's next
cumulative report must be byte-identical to a one-shot
`esl <design> --sim <total>` CLI run.

Phase 2 (SIGTERM drain): a long step is aborted at a quantum boundary with
a structured "draining" error, the daemon spools every session and exits 0,
leaving exactly one record per session in the spool directory (it is its
own index: no journal beside the records); a restarted daemon resumes the
partial progress (cut at an exact quantum multiple) byte-identically, and
closing the session leaves the directory empty.

Phase 3 (client exit codes): no daemon -> exit 3 (cannot connect, after
retries); a reply deadline on a huge step -> exit 4 (timeout).

Exit 1 on any mismatch.

Usage: serve_crash_smoke.py [--esl build/esl]
"""

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

QUANTUM = 200
ROUND = 500
# Far more cycles than any phase waits for: the mid-step kill must always
# land while the step is in flight.
HUGE = 500_000_000

# (sid, design, client option words, one-shot CLI flags)
SESSIONS = [
    ("a", "fig1a", "", []),
    ("b", "fig1d", "compiled", ["--backend", "compiled"]),
    ("c", "secded-spec", "compiled shards 2",
     ["--backend", "compiled", "--shards", "2"]),
]


def start_daemon(esl, sock, spool, extra=()):
    daemon = subprocess.Popen(
        [esl, "serve", "--socket", sock, "--quantum", str(QUANTUM),
         "--spool-dir", spool] + list(extra),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    line = daemon.stdout.readline()
    if b"listening on" not in line:
        raise RuntimeError(f"daemon did not come up: {line!r}")
    return daemon


def run_client(esl, sock, script, flags=()):
    return subprocess.run(
        [esl, "client", "--socket", sock] + list(flags),
        input=script.encode(),
        capture_output=True,
        timeout=300,
    )


def one_shot(esl, design, cycles, extra):
    return subprocess.run(
        [esl, design, "--sim", str(cycles)] + extra,
        capture_output=True,
        timeout=300,
    )


def stat_field(stats_stdout, name):
    for field in stats_stdout.decode().split():
        if field.startswith(name + "="):
            return int(field.split("=")[1])
    return -1


def check_round(esl, sock, total, failures, tag):
    """Steps every session by ROUND and byte-diffs the cumulative report."""
    for sid, design, _, flags in SESSIONS:
        got = run_client(esl, sock, f"step {sid} {ROUND}\n")
        want = one_shot(esl, design, total, flags)
        label = f"{tag}: {sid} ({design} at cycle {total})"
        if got.returncode != 0:
            failures.append(f"{label}: exit {got.returncode}: "
                            f"{got.stderr.decode()}")
        elif want.returncode != 0:
            failures.append(f"{label}: one-shot CLI failed: "
                            f"{want.stderr.decode()}")
        elif got.stdout != want.stdout:
            failures.append(
                f"{label}: resumed report differs from one-shot CLI\n"
                f"--- serve ---\n{got.stdout.decode()}"
                f"--- cli ---\n{want.stdout.decode()}")


def background_step(esl, sock, sid, cycles):
    """Starts a client stepping `cycles` and returns (popen, result-slot)."""
    proc = subprocess.Popen(
        [esl, "client", "--socket", sock],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdin.write(f"step {sid} {cycles}\n".encode())
    proc.stdin.close()
    return proc


def expect_recovered(esl, sock, want, failures, tag):
    stats = run_client(esl, sock, "stats\n")
    got = stat_field(stats.stdout, "recovered")
    if got != want:
        failures.append(f"{tag}: recovered={got}, want {want} "
                        f"({stats.stdout.decode().strip()})")


def expect_listing(spool, want, failures, tag):
    got = sorted(os.listdir(spool))
    if got != want:
        failures.append(f"{tag}: spool directory lists {got}, want {want}")


def sigkill_phase(esl, tmp, failures):
    sock = os.path.join(tmp, "crash.sock")
    spool = os.path.join(tmp, "crash-spool")
    durable = ("--durable",)

    daemon = start_daemon(esl, sock, spool, durable)
    try:
        opens = run_client(esl, sock, "".join(
            f"open {sid} {design} {words}\n" for sid, design, words, _ in
            SESSIONS))
        if opens.returncode != 0:
            failures.append(f"kill phase opens: exit {opens.returncode}: "
                            f"{opens.stderr.decode()}")
            return
        check_round(esl, sock, ROUND, failures, "kill phase round 1")
        daemon.kill()  # SIGKILL between rounds: checkpoints are the state
        daemon.wait(timeout=60)

        daemon = start_daemon(esl, sock, spool, durable)
        expect_recovered(esl, sock, len(SESSIONS), failures,
                         "kill phase restart 1")
        check_round(esl, sock, 2 * ROUND, failures, "kill phase round 2")

        # SIGKILL mid-step: the client must report the lost connection
        # (exit 5) and the durable restart must resume at the last completed
        # op — the huge step in flight is lost entirely.
        walker = background_step(esl, sock, "a", HUGE)
        time.sleep(0.5)
        daemon.kill()
        daemon.wait(timeout=60)
        code = walker.wait(timeout=60)
        walker.stdout.read()
        err = walker.stderr.read().decode()
        if code != 5:
            failures.append(f"mid-step kill: client exit {code}, want 5 "
                            f"(connection lost): {err}")

        daemon = start_daemon(esl, sock, spool, durable)
        expect_recovered(esl, sock, len(SESSIONS), failures,
                         "kill phase restart 2")
        cyc = run_client(esl, sock, "cycle a\n")
        if cyc.stdout.strip() != str(2 * ROUND).encode():
            failures.append(
                f"mid-step kill: session 'a' resumed at cycle "
                f"{cyc.stdout.decode().strip()}, want {2 * ROUND} "
                f"(the op in flight must be lost, nothing else)")
        check_round(esl, sock, 3 * ROUND, failures, "kill phase round 3")

        closes = run_client(esl, sock, "".join(
            f"close {sid}\n" for sid, _, _, _ in SESSIONS))
        if closes.returncode != 0:
            failures.append(f"kill phase closes: exit {closes.returncode}: "
                            f"{closes.stderr.decode()}")
        stats = run_client(esl, sock, "stats\n")
        if stat_field(stats.stdout, "sessions") != 0:
            failures.append(
                f"kill phase: leaked sessions: {stats.stdout.decode().strip()}")
        down = run_client(esl, sock, "shutdown\n")
        if down.returncode != 0:
            failures.append(f"kill phase shutdown: exit {down.returncode}")
        code = daemon.wait(timeout=60)
        if code != 0:
            failures.append(f"kill phase: daemon exited {code}, want 0")
    finally:
        daemon.kill()


def sigterm_phase(esl, tmp, failures):
    sock = os.path.join(tmp, "drain.sock")
    spool = os.path.join(tmp, "drain-spool")

    daemon = start_daemon(esl, sock, spool)
    try:
        prep = run_client(esl, sock, "open a fig1a\nstep a 700\n")
        if prep.returncode != 0:
            failures.append(f"drain phase prep: exit {prep.returncode}: "
                            f"{prep.stderr.decode()}")
            return
        walker = background_step(esl, sock, "a", HUGE)
        time.sleep(0.5)
        daemon.send_signal(signal.SIGTERM)
        code = walker.wait(timeout=60)
        walker.stdout.read()
        err = walker.stderr.read().decode()
        if code != 2 or "draining" not in err:
            failures.append(
                f"drain phase: in-flight step client exit {code} "
                f"(want 2 with a structured 'draining' error): {err}")
        code = daemon.wait(timeout=60)
        if code != 0:
            failures.append(f"drain phase: daemon exited {code} on SIGTERM, "
                            f"want 0 after draining")
        expect_listing(spool, ["a.spool"], failures,
                       "drain phase: after the SIGTERM drain")

        daemon = start_daemon(esl, sock, spool)
        expect_recovered(esl, sock, 1, failures, "drain phase restart")
        cyc = run_client(esl, sock, "cycle a\n")
        cycle = int(cyc.stdout.strip() or b"-1")
        if cycle < 700 or (cycle - 700) % QUANTUM != 0:
            failures.append(
                f"drain phase: resumed at cycle {cycle}; want >= 700 and "
                f"cut at a quantum boundary (700 + k*{QUANTUM})")
        else:
            got = run_client(esl, sock, f"step a {ROUND}\n")
            want = one_shot(esl, "fig1a", cycle + ROUND, [])
            if got.returncode != 0 or got.stdout != want.stdout:
                failures.append(
                    f"drain phase: resumed report differs from one-shot CLI "
                    f"at cycle {cycle + ROUND}\n"
                    f"--- serve ---\n{got.stdout.decode()}"
                    f"--- cli ---\n{want.stdout.decode()}")
        run_client(esl, sock, "close a\n")
        expect_listing(spool, [], failures, "drain phase: after close a")
        down = run_client(esl, sock, "shutdown\n")
        if down.returncode != 0:
            failures.append(f"drain phase shutdown: exit {down.returncode}")
        code = daemon.wait(timeout=60)
        if code != 0:
            failures.append(f"drain phase: daemon exited {code}, want 0")
    finally:
        daemon.kill()


def exit_code_phase(esl, tmp, failures):
    # 3: never reached a daemon, after bounded retries.
    gone = run_client(esl, os.path.join(tmp, "nobody-home.sock"), "stats\n",
                      flags=["--retries", "1", "--backoff", "10"])
    if gone.returncode != 3:
        failures.append(f"exit codes: no daemon -> exit {gone.returncode}, "
                        f"want 3: {gone.stderr.decode()}")

    # 4: the reply deadline fires while a huge step grinds.
    sock = os.path.join(tmp, "deadline.sock")
    spool = os.path.join(tmp, "deadline-spool")
    daemon = start_daemon(esl, sock, spool)
    try:
        slow = run_client(esl, sock, f"open t fig1a\nstep t {HUGE}\n",
                          flags=["--timeout", "500"])
        if slow.returncode != 4:
            failures.append(f"exit codes: reply deadline -> exit "
                            f"{slow.returncode}, want 4: "
                            f"{slow.stderr.decode()}")
        down = run_client(esl, sock, "shutdown\n")
        if down.returncode != 0:
            failures.append(f"exit codes shutdown: exit {down.returncode}")
        code = daemon.wait(timeout=60)
        if code != 0:
            failures.append(f"exit codes: daemon exited {code} on shutdown "
                            f"with a step in flight, want 0")
    finally:
        daemon.kill()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--esl", default="build/esl")
    args = ap.parse_args()
    failures = []
    with tempfile.TemporaryDirectory(prefix="esl-crash-smoke-") as tmp:
        sigkill_phase(args.esl, tmp, failures)
        sigterm_phase(args.esl, tmp, failures)
        exit_code_phase(args.esl, tmp, failures)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("OK: crash smoke clean (SIGKILL x2 + SIGTERM drain recovered "
          f"{len(SESSIONS)} sessions byte-identically; client exit codes "
          "3/4/5 as documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
