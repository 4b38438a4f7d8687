// Tests of the synthetic netlist generator (src/netlist/synth.*).
//
// The generator is the scale-bench workload factory, so its guarantees are
// load-bearing: bit-identical netlists from identical configs (golden DOT
// exports + rebuild comparisons), valid elastic behaviour on every topology
// family (kernel cross-check, which also audits the EdgeActivity
// declarations), correct end-to-end datapath values, and — at small sizes
// with nondeterministic environments — full SELF-protocol model-checker
// passes.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "netlist/dot.h"
#include "netlist/synth.h"
#include "sim/simulator.h"
#include "verify/checker.h"

namespace esl {
namespace {

using synth::SynthConfig;
using synth::SynthSystem;
using synth::Topology;

constexpr Topology kAllTopologies[] = {Topology::kPipeline, Topology::kForkJoin,
                                       Topology::kSpecLadder, Topology::kRandomDag};

SynthConfig smallConfig(Topology t, std::uint64_t seed = 3) {
  SynthConfig cfg;
  cfg.topology = t;
  cfg.targetNodes = 8;
  cfg.width = 4;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Golden DOT exports: one per family, small enough to eyeball
// ---------------------------------------------------------------------------

TEST(Synth, GoldenDotPipeline) {
  SynthConfig cfg = smallConfig(Topology::kPipeline);
  cfg.targetNodes = 7;
  EXPECT_EQ(netlist::toDot(synth::build(cfg).nl, "pipeline"),
            R"dot(digraph "pipeline" {
  rankdir=LR;
  n0 [label="src\n(source)", shape=ellipse];
  n1 [label="s0.eb\n(eb)", shape=box];
  n2 [label="s0.f\n(func)", shape=ellipse];
  n3 [label="s1.eb\n(eb)", shape=box];
  n4 [label="s1.f\n(func)", shape=ellipse];
  n5 [label="sink\n(sink)", shape=ellipse];
  n0 -> n1 [label="src.out0 [4]"];
  n1 -> n2 [label="s0.eb.out0 [4]"];
  n2 -> n3 [label="s0.f.out0 [4]"];
  n3 -> n4 [label="s1.eb.out0 [4]"];
  n4 -> n5 [label="s1.f.out0 [4]"];
}
)dot");
}

TEST(Synth, GoldenDotForkJoin) {
  EXPECT_EQ(netlist::toDot(synth::build(smallConfig(Topology::kForkJoin)).nl,
                           "forkjoin"),
            R"dot(digraph "forkjoin" {
  rankdir=LR;
  n0 [label="src\n(source)", shape=ellipse];
  n1 [label="fork\n(fork)", shape=ellipse];
  n2 [label="leaf0.f\n(func)", shape=ellipse];
  n3 [label="leaf1.f\n(func)", shape=ellipse];
  n4 [label="join0.0\n(func)", shape=ellipse];
  n5 [label="sink\n(sink)", shape=ellipse];
  n0 -> n1 [label="src.out0 [4]"];
  n1 -> n2 [label="fork.out0 [4]"];
  n1 -> n3 [label="fork.out1 [4]"];
  n2 -> n4 [label="leaf0.f.out0 [4]"];
  n3 -> n4 [label="leaf1.f.out0 [4]"];
  n4 -> n5 [label="join0.0.out0 [4]"];
}
)dot");
}

TEST(Synth, GoldenDotSpecLadder) {
  EXPECT_EQ(netlist::toDot(synth::build(smallConfig(Topology::kSpecLadder)).nl,
                           "ladder"),
            R"dot(digraph "ladder" {
  rankdir=LR;
  n0 [label="src\n(source)", shape=ellipse];
  n1 [label="r0.fork\n(fork)", shape=ellipse];
  n2 [label="r0.ebA\n(eb)", shape=box];
  n3 [label="r0.ebB\n(eb)", shape=box];
  n4 [label="r0.sel\n(source)", shape=ellipse];
  n5 [label="r0.mux\n(ee-mux)", shape=ellipse];
  n6 [label="sink\n(sink)", shape=ellipse];
  n0 -> n1 [label="src.out0 [4]"];
  n1 -> n2 [label="r0.fork.out0 [4]"];
  n1 -> n3 [label="r0.fork.out1 [4]"];
  n4 -> n5 [label="r0.sel.out0 [1]"];
  n2 -> n5 [label="r0.ebA.out0 [4]"];
  n3 -> n5 [label="r0.ebB.out0 [4]"];
  n5 -> n6 [label="r0.mux.out0 [4]"];
}
)dot");
}

TEST(Synth, GoldenDotRandomDag) {
  EXPECT_EQ(netlist::toDot(synth::build(smallConfig(Topology::kRandomDag, 5)).nl,
                           "dag"),
            R"dot(digraph "dag" {
  rankdir=LR;
  n0 [label="src0\n(source)", shape=ellipse];
  n1 [label="d0.f\n(func)", shape=ellipse];
  n2 [label="d1.eb\n(eb)", shape=box];
  n3 [label="d2.fork\n(fork)", shape=ellipse];
  n4 [label="d3.fork\n(fork)", shape=ellipse];
  n5 [label="d4.join\n(func)", shape=ellipse];
  n6 [label="d5.join\n(func)", shape=ellipse];
  n7 [label="sink0\n(sink)", shape=ellipse];
  n0 -> n1 [label="src0.out0 [4]"];
  n1 -> n2 [label="d0.f.out0 [4]"];
  n2 -> n3 [label="d1.eb.out0 [4]"];
  n3 -> n4 [label="d2.fork.out0 [4]"];
  n3 -> n5 [label="d2.fork.out1 [4]"];
  n4 -> n5 [label="d3.fork.out0 [4]"];
  n5 -> n6 [label="d4.join.out0 [4]"];
  n4 -> n6 [label="d3.fork.out1 [4]"];
  n6 -> n7 [label="d5.join.out0 [4]"];
}
)dot");
}

// ---------------------------------------------------------------------------
// Determinism and budget discipline
// ---------------------------------------------------------------------------

TEST(Synth, SameConfigSameNetlistDifferentSeedDifferentDag) {
  for (const Topology t : kAllTopologies) {
    SynthConfig cfg;
    cfg.topology = t;
    cfg.targetNodes = 64;
    cfg.seed = 42;
    const std::string a = netlist::toDot(synth::build(cfg).nl);
    const std::string b = netlist::toDot(synth::build(cfg).nl);
    EXPECT_EQ(a, b) << synth::describe(cfg);
  }
  SynthConfig dag;
  dag.topology = Topology::kRandomDag;
  dag.targetNodes = 64;
  dag.seed = 1;
  const std::string one = netlist::toDot(synth::build(dag).nl);
  dag.seed = 2;
  EXPECT_NE(one, netlist::toDot(synth::build(dag).nl));
}

TEST(Synth, NodeBudgetRespected) {
  for (const Topology t : kAllTopologies) {
    for (const std::size_t target : {8u, 50u, 400u}) {
      SynthConfig cfg;
      cfg.topology = t;
      cfg.targetNodes = target;
      const SynthSystem sys = synth::build(cfg);
      EXPECT_LE(sys.nodeCount, target) << synth::describe(cfg);
      // The budget is approached, not just undershot: at least half used.
      EXPECT_GE(sys.nodeCount, target / 2) << synth::describe(cfg);
      EXPECT_NE(sys.outChannel, kNoChannel);
      ASSERT_NE(sys.mainSink, nullptr);
    }
  }
}

// ---------------------------------------------------------------------------
// Behaviour: kernel cross-check (settle equivalence + EdgeActivity audit)
// ---------------------------------------------------------------------------

TEST(Synth, CrossCheckPassesOnAllTopologies) {
  for (const Topology t : kAllTopologies) {
    for (const unsigned inject : {1u, 8u}) {
      SynthConfig cfg;
      cfg.topology = t;
      cfg.targetNodes = 60;
      cfg.width = 8;
      cfg.seed = 7;
      cfg.injectPeriod = inject;
      SynthSystem sys = synth::build(cfg);
      SCOPED_TRACE(synth::describe(cfg));
      sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true,
                                .crossCheckKernels = true});
      ASSERT_NO_THROW(s.run(250));
      EXPECT_GT(sys.mainSink->received(s.ctx()), 0u);
    }
  }
}

TEST(Synth, CrossCheckPassesOnVluPipeline) {
  SynthConfig cfg;
  cfg.topology = Topology::kPipeline;
  cfg.targetNodes = 40;
  cfg.width = 8;
  cfg.seed = 11;
  cfg.vluPermille = 500;
  SynthSystem sys = synth::build(cfg);
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true,
                            .crossCheckKernels = true});
  ASSERT_NO_THROW(s.run(300));
  EXPECT_GT(sys.mainSink->received(s.ctx()), 0u);
}

TEST(Synth, KernelsProduceIdenticalTransferStreams) {
  for (const Topology t : kAllTopologies) {
    SynthConfig cfg;
    cfg.topology = t;
    cfg.targetNodes = 80;
    cfg.seed = 13;
    cfg.injectPeriod = 4;    // sparse: exercises the dirty-tracked edge phase
    cfg.bufferCapacity = 3;  // non-default EB capacity
    const auto runWith = [&](SimContext::SettleKernel kernel) {
      SynthSystem sys = synth::build(cfg);
      sim::Simulator s(sys.nl, {.checkProtocol = false, .kernel = kernel});
      s.ctx().logTransfers(sys.mainSink->input(0));
      s.run(400);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      for (const auto& tr : s.ctx().transfers(sys.mainSink->input(0)))
        out.emplace_back(tr.cycle, tr.data.toUint64());
      return out;
    };
    const auto sweep = runWith(SimContext::SettleKernel::kSweep);
    const auto event = runWith(SimContext::SettleKernel::kEventDriven);
    EXPECT_GT(sweep.size(), 0u) << synth::describe(cfg);
    EXPECT_EQ(sweep, event) << synth::describe(cfg);
  }
}

// ---------------------------------------------------------------------------
// Datapath correctness: pipeline output values are predictable in closed form
// ---------------------------------------------------------------------------

TEST(Synth, PipelineComputesExpectedValues) {
  SynthConfig cfg;
  cfg.topology = Topology::kPipeline;
  cfg.targetNodes = 30;
  cfg.width = 16;
  cfg.seed = 21;
  SynthSystem sys = synth::build(cfg);

  std::size_t stages = 0;
  for (const NodeId id : sys.nl.nodeIds())
    if (sys.nl.node(id).kindName() == "func") ++stages;

  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  s.ctx().logTransfers(sys.mainSink->input(0));
  s.run(200);
  ASSERT_GT(sys.mainSink->received(s.ctx()), 10u);

  std::uint64_t sumConsts = 0;
  for (std::size_t i = 0; i < stages; ++i) sumConsts += mix64(cfg.seed + i) | 1;
  const std::uint64_t mask = (1ULL << cfg.width) - 1;
  for (std::size_t j = 0; j < sys.mainSink->received(s.ctx()); ++j) {
    const std::uint64_t expect = (mix64(j, cfg.seed) + sumConsts) & mask;
    EXPECT_EQ(s.ctx().transfers(sys.mainSink->input(0))[j].data.toUint64(), expect)
        << "token " << j;
  }
}

TEST(Synth, RandomDagDeliversToEverySink) {
  SynthConfig cfg;
  cfg.topology = Topology::kRandomDag;
  cfg.targetNodes = 64;
  cfg.seed = 9;
  SynthSystem sys = synth::build(cfg);
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(400);
  ASSERT_FALSE(sys.sinks.empty());
  for (const TokenSink* sink : sys.sinks)
    EXPECT_GT(sink->received(s.ctx()), 0u) << synth::describe(cfg);
}

// ---------------------------------------------------------------------------
// Model checker: small nondet-environment instances pass the SELF suite
// ---------------------------------------------------------------------------

TEST(Synth, ModelCheckerPassesSmallInstances) {
  for (const Topology t : kAllTopologies) {
    SynthConfig cfg;
    cfg.topology = t;
    cfg.targetNodes = 8;
    cfg.width = 1;
    cfg.seed = 3;
    cfg.nondetEnv = true;
    SynthSystem sys = synth::build(cfg);
    ASSERT_LE(sys.nodeCount, 8u);
    SCOPED_TRACE(synth::describe(cfg));

    verify::CheckerOptions opts;
    opts.maxStates = 200000;
    const auto report = verify::checkSelfProtocol(sys.nl, opts);
    EXPECT_FALSE(report.explore.truncated);
    EXPECT_GT(report.explore.states, 1u);
    EXPECT_TRUE(report.ok())
        << report.firstViolation();
  }
}

}  // namespace
}  // namespace esl
