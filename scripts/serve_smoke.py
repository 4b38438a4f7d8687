#!/usr/bin/env python3
"""CI smoke for `esl serve`: concurrent sessions must match the one-shot CLI.

Phase 1 (concurrency): start a daemon, drive 8+ scripted `esl client`
processes at once — mixed golden designs, backends and shard counts, a
small scheduler quantum so long steps interleave — and byte-diff each
session's stdout against the equivalent one-shot `esl <design> --sim N` run.
This is the end-to-end determinism contract over the real wire.

The same daemon then checks that `esl client snapshot` of a fig1d session
after 1000 cycles, interpreted and compiled with 2 shards, writes exactly
the file `esl fig1d.esl --sim 1000 --save-state` writes.

Phase 2 (residency): a second daemon with --max-resident 2 is driven
serially through step cycles over four sessions, so LRU spool eviction and
transparent restore are on the measured path; outputs are byte-diffed the
same way and the eviction/restore counters are asserted. One session runs
a design that breaks the SELF protocol, 250 cycles per touch, so a
violation that spans an eviction must survive the spool.

Both daemons must exit 0 on `shutdown` with no leaked sessions
(stats sessions=0 before shutdown). Exit 1 on any mismatch.

Usage: serve_smoke.py [--esl build/esl] [--clients 8]
"""

import argparse
import os
import subprocess
import sys
import tempfile
import threading

DESIGNS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "examples", "designs")

# Breaks the SELF protocol: the broken-eb overwrites a token its stalling sink
# has stopped (125 violations in 500 cycles, as the CI identity step checks).
BROKEN_EB = """esl 1;
node source src width=8 gen=counting;
node broken-eb bad width=8;
node sink sink width=8 ready=period ready.period=2;
channel src.out0 -> bad.in0;
channel bad.out0 -> sink.in0;
"""


def wait_listening(daemon):
    line = daemon.stdout.readline()
    if b"listening on" not in line:
        raise RuntimeError(f"daemon did not come up: {line!r}")


def run_client(esl, sock, script):
    return subprocess.run(
        [esl, "client", "--socket", sock],
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


def shutdown_daemon(esl, sock, daemon, failures):
    stats = run_client(esl, sock, "stats\n")
    if stats.returncode != 0:
        failures.append(f"stats client failed: {stats.stderr.decode()}")
    elif b"sessions=0 " not in stats.stdout:
        failures.append(f"leaked sessions: {stats.stdout.decode().strip()}")
    down = run_client(esl, sock, "shutdown\n")
    if down.returncode != 0:
        failures.append(f"shutdown client failed: {down.stderr.decode()}")
    code = daemon.wait(timeout=60)
    if code != 0:
        failures.append(f"daemon exited {code}, want 0")
    return stats.stdout.decode()


def concurrency_phase(esl, tmp, clients, failures):
    # (design, cycles, client option words, one-shot CLI flags)
    shapes = [
        ("fig1a", 2000, "", []),
        ("fig1b", 1500, "", []),
        ("fig1c", 1200, "", []),
        ("fig1d", 2000, "compiled shards 2",
         ["--backend", "compiled", "--shards", "2"]),
        ("table1", 1000, "", []),
        ("vlu-stall", 1500, "compiled", ["--backend", "compiled"]),
        ("vlu-spec", 1500, "", []),
        ("secded-spec", 2000, "compiled shards 2", ["--backend", "compiled", "--shards", "2"]),
    ]
    sock = os.path.join(tmp, "serve-conc.sock")
    daemon = subprocess.Popen(
        [esl, "serve", "--socket", sock, "--quantum", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        wait_listening(daemon)
        results = [None] * clients

        def drive(i):
            design, cycles, words, _ = shapes[i % len(shapes)]
            sid = f"smoke{i}"
            script = (
                f"open {sid} {design} {words}\n"
                f"step {sid} {cycles}\n"
                f"close {sid}\n"
            )
            results[i] = run_client(esl, sock, script)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for i, got in enumerate(results):
            design, cycles, _, flags = shapes[i % len(shapes)]
            tag = f"client {i} ({design} x{cycles} {' '.join(flags)})"
            if got.returncode != 0:
                failures.append(f"{tag}: exit {got.returncode}: {got.stderr.decode()}")
                continue
            want = one_shot(esl, design, cycles, flags)
            if want.returncode != 0:
                failures.append(f"{tag}: one-shot CLI failed: {want.stderr.decode()}")
            elif got.stdout != want.stdout:
                failures.append(
                    f"{tag}: serve output differs from one-shot CLI\n"
                    f"--- serve ---\n{got.stdout.decode()}"
                    f"--- cli ---\n{want.stdout.decode()}"
                )
        snapshot_files_match(esl, tmp, sock, failures)
        shutdown_daemon(esl, sock, daemon, failures)
    finally:
        daemon.kill()


def snapshot_files_match(esl, tmp, sock, failures):
    fig1d = os.path.join(DESIGNS, "fig1d.esl")
    cli = os.path.join(tmp, "cli.snap")
    want = subprocess.run(
        [esl, fig1d, "--sim", "1000", "--save-state", cli],
        capture_output=True, timeout=300)
    if want.returncode != 0:
        failures.append(f"snapshot: one-shot CLI failed: {want.stderr.decode()}")
        return
    for i, words in enumerate(("", "compiled shards 2")):
        served = os.path.join(tmp, f"served{i}.snap")
        got = run_client(
            esl, sock,
            f"open-esl snap{i} {fig1d} {words}\n"
            f"step snap{i} 1000\n"
            f"snapshot snap{i} {served}\n"
            f"close snap{i}\n")
        tag = f"snapshot ({words or 'interpreted'})"
        if got.returncode != 0:
            failures.append(f"{tag}: exit {got.returncode}: {got.stderr.decode()}")
        elif open(served, "rb").read() != open(cli, "rb").read():
            failures.append(f"{tag}: `esl client snapshot` differs from --save-state")


def residency_phase(esl, tmp, failures):
    sock = os.path.join(tmp, "serve-evict.sock")
    daemon = subprocess.Popen(
        [esl, "serve", "--socket", sock, "--max-resident", "2", "--quantum", "250"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        wait_listening(daemon)
        # Four sessions through two resident slots, touched round-robin:
        # every revisit pages one session out and another back in. A serve
        # step's report is cumulative, so the Nth touch of a session must be
        # byte-identical to a one-shot CLI run of N times its step — reports
        # carry across the spool or this diff catches it. The broken-eb
        # session has a Retry+ violation spanning cycle 250: the spool must
        # carry the protocol monitor's last cycle for its count to match.
        # Each step rides its own client process: sessions are daemon state,
        # not connection state, and that persistence is part of what this
        # phase checks.
        broken = os.path.join(tmp, "broken-eb.esl")
        with open(broken, "w") as f:
            f.write(BROKEN_EB)
        # (sid, open command, one-shot CLI design, cycles per touch)
        sessions = [("a", "open a fig1a", "fig1a", 500),
                    ("b", "open b fig1d", "fig1d", 500),
                    ("c", "open c table1", "table1", 500),
                    ("e", f"open-esl e {broken}", broken, 250)]
        opens = run_client(esl, sock, "".join(f"{o}\n" for _, o, _, _ in sessions))
        if opens.returncode != 0:
            failures.append(f"eviction opens: exit {opens.returncode}: "
                            f"{opens.stderr.decode()}")
        for round_ in (1, 2):
            for sid, _, design, cycles in sessions:
                got = run_client(esl, sock, f"step {sid} {cycles}\n")
                want = one_shot(esl, design, cycles * round_, [])
                tag = f"eviction {sid} ({design}, touch {round_})"
                if got.returncode != 0:
                    failures.append(
                        f"{tag}: exit {got.returncode}: {got.stderr.decode()}")
                elif got.stdout != want.stdout:
                    failures.append(
                        f"{tag}: serve report differs from one-shot CLI\n"
                        f"--- serve ---\n{got.stdout.decode()}"
                        f"--- cli ---\n{want.stdout.decode()}")
        closes = run_client(
            esl, sock, "".join(f"close {sid}\n" for sid, _, _, _ in sessions))
        if closes.returncode != 0:
            failures.append(f"eviction closes: exit {closes.returncode}: "
                            f"{closes.stderr.decode()}")
        stats = shutdown_daemon(esl, sock, daemon, failures)
        for needle in ("evictions=", "restores="):
            field = next((f for f in stats.split() if f.startswith(needle)), "=0")
            if int(field.split("=")[1]) == 0:
                failures.append(
                    f"eviction phase: expected nonzero {needle} "
                    f"got '{stats.strip()}'")
    finally:
        daemon.kill()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--esl", default="build/esl")
    ap.add_argument("--clients", type=int, default=8)
    args = ap.parse_args()
    failures = []
    with tempfile.TemporaryDirectory(prefix="esl-serve-smoke-") as tmp:
        concurrency_phase(args.esl, tmp, args.clients, failures)
        residency_phase(args.esl, tmp, failures)
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"OK: serve smoke clean ({args.clients} concurrent clients, "
          "eviction phase byte-identical, daemons exited 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
