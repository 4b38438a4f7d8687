#!/usr/bin/env python3
"""Repository benchmark: builds esl from this checkout and runs one workload.

    python3 perfbench/run.py --workload sim-sparse --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md; `--workload all` runs each in turn):
  sim-speculative  ~10k-node early-evaluation speculation ladder, saturated
  sim-sparse       64k-node fork/join tree, one token every 64 cycles

The script builds the library, the `esl` CLI and the harness with CMake into
$CARGO_TARGET_DIR (default `.bench_build`, relative to the checkout root),
writes the seeded `.esl` input there, and runs the harness. The harness
prints a table and, as the last stdout line, the JSON result. The exit code is
nonzero when the build fails or any correctness check fails.
"""

import argparse
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-speculative", "sim-sparse")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures and builds into `out`; returns the build tree path."""
    tree = os.path.join(out, "cmake")
    os.makedirs(tree, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", tree, "-j", jobs,
         "--target", "perfbench_harness", "esl_cli"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                sys.exit(2)
    return tree


def u64(rng):
    return rng.getrandbits(64)


def spec_ladder(seed, rungs=1249, width=16):
    """Speculation ladder: per rung a fork into two buffered, function-stage
    branches, an early-evaluation mux choosing one by a hash select stream
    (anti-tokens kill the other copy), and an output buffer. A saturated
    source feeds rung 0; the last rung feeds the sink."""
    rng = random.Random(seed * 2 + 1)
    nodes = ["node source src width=%d gen=hash gen.salt=%d;" % (width, u64(rng))]
    chans = []
    tail = "src.out0"
    for r in range(rungs):
        t = "r%d" % r
        nodes += [
            "node fork %s.fork width=%d branches=2;" % (t, width),
            "node eb %s.ebA width=%d;" % (t, width),
            "node eb %s.ebB width=%d;" % (t, width),
            "node func %s.fA in=%d out=%d fn=addk fn.k=%d delay=1 area=1;"
            % (t, width, width, u64(rng) | 1),
            "node func %s.fB in=%d out=%d fn=addk fn.k=%d delay=1 area=1;"
            % (t, width, width, u64(rng) | 1),
            "node source %s.sel width=1 gen=hash gen.salt=%d;" % (t, u64(rng)),
            "node ee-mux %s.mux n=2 width=%d;" % (t, width),
            "node eb %s.ebOut width=%d;" % (t, width),
        ]
        for a, b in ((tail, t + ".fork.in0"), (t + ".fork.out0", t + ".ebA.in0"),
                     (t + ".fork.out1", t + ".ebB.in0"), (t + ".ebA.out0", t + ".fA.in0"),
                     (t + ".ebB.out0", t + ".fB.in0"), (t + ".sel.out0", t + ".mux.in0"),
                     (t + ".fA.out0", t + ".mux.in1"), (t + ".fB.out0", t + ".mux.in2"),
                     (t + ".mux.out0", t + ".ebOut.in0")):
            chans.append((a, b))
        tail = t + ".ebOut.out0"
    nodes.append("node sink sink width=%d;" % width)
    chans.append((tail, "sink.in0"))
    return render(nodes, chans)


def spec_forkjoin(seed, depth=14, width=16, period=64):
    """Binary fork tree of `depth` levels, a buffer and a function stage per
    leaf, and a mirrored XOR join tree. The source offers one token every
    `period` cycles, so about 1.6% of the channels carry an event per cycle."""
    rng = random.Random(seed * 2)
    nodes = ["node source src width=%d gen=hash gen.salt=%d gate=period "
             "gate.period=%d gate.phase=%d;" % (width, u64(rng), period, seed % 97)]
    chans = []
    layer = [("src.out0", None)]
    prefixes = ["fork"]
    for _ in range(depth):
        nxt, nxt_prefixes = [], []
        for (src, _), p in zip(layer, prefixes):
            nodes.append("node fork %s width=%d branches=2;" % (p, width))
            chans.append((src, p + ".in0"))
            for i in range(2):
                nxt.append(("%s.out%d" % (p, i), None))
                nxt_prefixes.append("%s.%d" % (p, i))
        layer, prefixes = nxt, nxt_prefixes
    ports = []
    for i, (src, _) in enumerate(layer):
        t = "leaf%d" % i
        nodes.append("node eb %s.eb width=%d;" % (t, width))
        nodes.append("node func %s.f in=%d out=%d fn=addk fn.k=%d delay=1 area=1;"
                     % (t, width, width, u64(rng) | 1))
        chans.append((src, t + ".eb.in0"))
        chans.append((t + ".eb.out0", t + ".f.in0"))
        ports.append(t + ".f.out0")
    level = 0
    while len(ports) > 1:
        nxt = []
        for g in range(0, len(ports), 2):
            j = "join%d.%d" % (level, g // 2)
            nodes.append("node func %s in=%d,%d out=%d fn=xor delay=1 area=1;"
                         % (j, width, width, width))
            chans.append((ports[g], j + ".in0"))
            chans.append((ports[g + 1], j + ".in1"))
            nxt.append(j + ".out0")
        ports = nxt
        level += 1
    nodes.append("node sink sink width=%d;" % width)
    chans.append((ports[0], "sink.in0"))
    return render(nodes, chans)


def render(nodes, chans):
    lines = ["esl 1;"] + nodes
    lines += ["channel %s -> %s name=%s;" % (a, b, a) for a, b in chans]
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or `all` to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    tree = build(out)
    if args.workload != "all":
        sys.exit(run(tree, out, args.workload, args))
    failed = [w for w in WORKLOADS if run(tree, out, w, args) != 0]
    if failed:
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(failed))
    sys.exit(1 if failed else 0)


def run(tree, out, workload, args):
    """Writes the workload's input and runs the harness; returns its exit code."""
    work = os.path.join(out, "work", workload)
    os.makedirs(work, exist_ok=True)
    gen = spec_ladder if workload == "sim-speculative" else spec_forkjoin
    design = os.path.join(work, "input.esl")
    with open(design, "w") as f:
        f.write(gen(args.seed))

    cmd = [os.path.join(tree, "perfbench_harness"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--esl", os.path.join(tree, "esl", "esl"), "--work", work,
           "--design", design]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    main()
