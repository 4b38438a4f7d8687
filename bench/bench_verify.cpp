// Reproduces the §4.2 verification campaign and benchmarks the parallel
// model-checker frontier.
//
// Part 1 — the paper's table: "all elastic controllers have been verified
// ... the absence of deadlocks has been verified for any scheduler that
// complies with the leads-to property. In addition, it has been verified that
// all controllers comply with the SELF protocol." The paper used NuSMV/SMV;
// this harness runs the built-in explicit-state checker over the same
// controller compositions with nondeterministic (bounded-fair) environments
// and prints the property table. A negative control (starving scheduler)
// shows the checker actually bites.
//
// Part 2 — frontier sharding: explores a >=10^5-state synthetic instance
// serially and with 2/4 worker lanes, gates on bit-identical results
// (states, transitions, graph fingerprint — exit 1 on mismatch with --check)
// and reports the wall-clock speedup (advisory: CI machines vary). Results
// land in BENCH_verify.json via --out.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/shared.h"
#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "verify/checker.h"

using namespace esl;

namespace {

Netlist ebHarness(bool zeroLb, bool anti) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  Node* buf = zeroLb ? static_cast<Node*>(&nl.make<ElasticBuffer0>("buf", 1))
                     : static_cast<Node*>(&nl.make<ElasticBuffer>("buf", 1));
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2, anti);
  nl.connect(src, 0, *buf, 0, "up");
  nl.connect(*buf, 0, sink, 0, "down");
  return nl;
}

Netlist forkHarness() {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  auto& eb = nl.make<ElasticBuffer>("eb", 1);
  auto& fork = nl.make<ForkNode>("fork", 1, 2);
  auto& s0 = nl.make<NondetSink>("env.s0", 1, 2);
  auto& s1 = nl.make<NondetSink>("env.s1", 1, 2);
  nl.connect(src, 0, eb, 0, "up");
  nl.connect(eb, 0, fork, 0, "stem");
  nl.connect(fork, 0, s0, 0, "br0");
  nl.connect(fork, 1, s1, 0, "br1");
  return nl;
}

Netlist joinHarness() {
  Netlist nl;
  auto& a = nl.make<NondetSource>("env.a", 1);
  auto& b = nl.make<NondetSource>("env.b", 1);
  auto& join = nl.make<FuncNode>("join", std::vector<unsigned>{1, 1}, 1,
                                 [](const std::vector<BitVec>& in) {
                                   return in[0] & in[1];
                                 });
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(a, 0, join, 0, "ina");
  nl.connect(b, 0, join, 1, "inb");
  nl.connect(join, 0, sink, 0, "out");
  return nl;
}

Netlist sharedHarness(std::unique_ptr<sched::Scheduler> sched) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1, 2, /*dataBits=*/1);
  auto& fork = nl.make<ForkNode>("fork", 1, 3);
  auto& shared = nl.make<SharedModule>(
      "shared", 2, 1, 1, [](const BitVec& x) { return x; }, std::move(sched));
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 1);
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(src, 0, fork, 0, "stem");
  nl.connect(fork, 0, shared, 0, "in0");
  nl.connect(fork, 1, shared, 1, "in1");
  nl.connect(fork, 2, mux, 0, "sel");
  nl.connect(shared, 0, mux, 1, "out0");
  nl.connect(shared, 1, mux, 2, "out1");
  nl.connect(mux, 0, sink, 0, "muxout");
  return nl;
}

void runSuite(const char* label, Netlist nl, NodeId sharedId = kNoNode) {
  auto report = verify::checkSelfProtocol(nl);
  std::size_t props = report.propertiesChecked;
  std::size_t violations = report.violations.size();
  std::size_t states = report.explore.states;

  if (sharedId != kNoNode) {
    auto leadsTo = verify::checkSchedulerLeadsTo(nl, sharedId);
    props += leadsTo.propertiesChecked;
    violations += leadsTo.violations.size();
  }
  std::printf("%-34s %8zu %8zu %6zu   %s\n", label, states, props, violations,
              violations == 0 ? "PASS" : "FAIL");
}

void runControllerTable() {
  std::printf("=== Section 4.2: controller verification (explicit-state) ===\n\n");
  std::printf("%-34s %8s %8s %6s   %s\n", "composition (with nondet envs)", "states",
              "props", "viol", "verdict");

  runSuite("EB (Lf=1,Lb=1,C=2)", ebHarness(false, false));
  runSuite("EB + anti-token environment", ebHarness(false, true));
  runSuite("EB0 (Lf=1,Lb=0,C=1, Fig.5)", ebHarness(true, true));
  runSuite("eager fork (2-way)", forkHarness());
  runSuite("lazy join (2-way)", joinHarness());
  {
    Netlist nl = sharedHarness(std::make_unique<sched::BoundedFairScheduler>(2));
    const NodeId id = nl.findNode("shared")->id();
    runSuite("shared+EEmux, fair nondet sched", std::move(nl), id);
  }
  {
    Netlist nl = sharedHarness(std::make_unique<sched::StaticScheduler>(2, 0));
    const NodeId id = nl.findNode("shared")->id();
    runSuite("shared+EEmux, static+correction", std::move(nl), id);
  }
  {
    Netlist nl = sharedHarness(std::make_unique<sched::RoundRobinScheduler>(2));
    const NodeId id = nl.findNode("shared")->id();
    runSuite("shared+EEmux, round-robin", std::move(nl), id);
  }

  std::printf("\nnegative control (must FAIL leads-to / liveness):\n");
  {
    Netlist nl = sharedHarness(std::make_unique<sched::StarvingScheduler>(2));
    const NodeId id = nl.findNode("shared")->id();
    auto leadsTo = verify::checkSchedulerLeadsTo(nl, id);
    std::printf("%-34s %8zu %8zu %6zu   %s\n", "shared+EEmux, starving sched",
                leadsTo.explore.states, leadsTo.propertiesChecked,
                leadsTo.violations.size(),
                leadsTo.violations.empty() ? "PASS (BAD!)" : "FAIL (expected)");
    if (!leadsTo.violations.empty()) {
      const verify::Violation& v = leadsTo.violations.front();
      std::printf("  first violation: %s\n", v.str().c_str());
      std::printf("  counterexample: %zu steps to the starved state, lasso at "
                  "step %zu\n",
                  v.combos.size(), v.lassoStart);
    }
  }

  std::printf("\nproperties per channel: Invariant (kill/stop exclusion), Retry+\n"
              "(persistent channels only, §4.2 exemption downstream of shared\n"
              "modules), Retry-, global liveness GF(progress), deadlock freedom,\n"
              "and eq. (1) leads-to per shared-module input.\n");
}

// ---------------------------------------------------------------------------
// Parallel frontier benchmark
// ---------------------------------------------------------------------------

struct FrontierRun {
  unsigned workers = 1;
  double seconds = 0.0;
  std::size_t states = 0;
  std::size_t transitions = 0;
  std::uint64_t fingerprint = 0;
};

FrontierRun exploreOnce(const synth::SynthConfig& cfg, unsigned workers) {
  verify::CheckerOptions opts;
  opts.maxStates = 2000000;
  opts.maxChoiceBits = 16;
  opts.workers = workers;
  // The netlist is built from the serializable IR, round-tripped through the
  // `.esl` text form — so the gated fingerprints certify the parsed spec, not
  // just the C++ builder.
  const Netlist nl =
      frontend::parseEsl(frontend::printEsl(synth::spec(cfg)), "<bench_verify>").build();
  verify::ModelChecker mc(nl, opts);
  // One representative label so edges carry masks like the real suites do.
  const auto channels = nl.channelIds();
  const ChannelId watch = channels.back();
  mc.addLabel("progress",
              [watch](const SimContext& c) { return fwdTransfer(c.sig(watch)); });

  FrontierRun run;
  run.workers = workers;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = mc.explore();
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
  run.states = result.states;
  run.transitions = result.transitions;
  run.fingerprint = mc.graphFingerprint();
  return run;
}

int runFrontierBench(const std::string& outPath, bool check, std::size_t nodes) {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kPipeline;
  cfg.targetNodes = nodes;
  cfg.width = 1;
  cfg.seed = 3;
  cfg.nondetEnv = true;

  std::printf("\n=== Parallel model-checker frontier (%s) ===\n\n",
              synth::describe(cfg).c_str());
  std::printf("%8s %10s %12s %10s %9s\n", "workers", "states", "transitions",
              "time (s)", "speedup");

  std::vector<FrontierRun> runs;
  for (const unsigned workers : {1u, 2u, 4u}) {
    runs.push_back(exploreOnce(cfg, workers));
    const FrontierRun& r = runs.back();
    std::printf("%8u %10zu %12zu %10.3f %8.2fx\n", r.workers, r.states,
                r.transitions, r.seconds, runs.front().seconds / r.seconds);
  }

  bool identical = true;
  for (const FrontierRun& r : runs)
    identical &= r.states == runs.front().states &&
                 r.transitions == runs.front().transitions &&
                 r.fingerprint == runs.front().fingerprint;
  const double speedup4 = runs.front().seconds / runs.back().seconds;

  std::printf("\ndeterminism: %s (graph fingerprints %s)\n",
              identical ? "OK" : "FAILED", identical ? "identical" : "DIFFER");
  std::printf("speedup at 4 workers: %.2fx (advisory; needs >=4 hardware "
              "threads to show)\n", speedup4);

  if (!outPath.empty()) {
    FILE* f = std::fopen(outPath.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"instance\": \"%s\",\n", synth::describe(cfg).c_str());
    std::fprintf(f, "  \"states\": %zu,\n  \"transitions\": %zu,\n",
                 runs.front().states, runs.front().transitions);
    std::fprintf(f, "  \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(f, "  \"speedup_4_workers\": %.3f,\n", speedup4);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i)
      std::fprintf(f, "    {\"workers\": %u, \"seconds\": %.6f}%s\n",
                   runs[i].workers, runs[i].seconds,
                   i + 1 < runs.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", outPath.c_str());
  }

  if (check && !identical) {
    std::fprintf(stderr,
                 "FAIL: parallel exploration is not bit-identical to serial\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath;
  bool check = false;
  std::size_t nodes = 32;  // ~160k states, ~640k transitions
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE.json] [--check] [--nodes N]\n",
                   argv[0]);
      return 2;
    }
  }

  runControllerTable();
  return runFrontierBench(outPath, check, nodes);
}
