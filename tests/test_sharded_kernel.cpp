// Sharded single-netlist simulation: bit-identity against the serial kernels.
//
// The sharded cycle mode (SimContext::setShards) partitions ONE netlist
// across worker lanes: level-synchronous settle rounds with staged boundary
// exchange, shard-parallel dirty-tracked clock edges. Its contract is strict:
// settled signals and packed state are bit-identical to the serial
// event-driven kernel for EVERY shard count — enforced here over all four
// synthetic topology families (with the diff_kernels_util shrink-on-failure
// harness), the paper patterns, wide (multi-word) payloads, and cross-check
// mode, which under shards compares the sharded settle against the reference
// sweep every cycle.
//
// This suite carries the `sharded-kernel` CTest label so the ThreadSanitizer
// CI leg can select it: the staged boundary writes, the ownership-filtered
// edge marks and the executor handoff must all be clean under real threads.
#include <gtest/gtest.h>

#include "diff_kernels_util.h"
#include "netlist/patterns.h"
#include "test_util.h"

namespace esl {
namespace {

const unsigned kShardCounts[] = {1, 2, 8};

synth::SynthConfig famConfig(synth::Topology topo, std::size_t nodes,
                             unsigned inject, std::uint64_t seed,
                             unsigned width = 16) {
  synth::SynthConfig cfg;
  cfg.topology = topo;
  cfg.targetNodes = nodes;
  cfg.seed = seed;
  cfg.injectPeriod = inject;
  cfg.width = width;
  return cfg;
}

TEST(ShardedKernel, AllSynthFamiliesBitIdentical) {
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const unsigned shards : kShardCounts) {
      for (const unsigned inject : {1u, 8u}) {
        const synth::SynthConfig cfg = famConfig(topo, 240, inject, 7);
        SCOPED_TRACE(synth::describe(cfg) + " shards=" + std::to_string(shards));
        auto mismatch = test::diffShardedOnce(cfg, 300, shards);
        if (mismatch) {
          // Shrink the offending config before reporting (same harness as the
          // event-vs-sweep differential fuzz).
          synth::SynthConfig bad = cfg;
          std::uint64_t cycles = 300;
          test::shrinkSynthConfig(
              bad, cycles,
              [shards](const synth::SynthConfig& cand, std::uint64_t n) {
                return test::diffShardedOnce(cand, n, shards).has_value();
              });
          FAIL() << "sharded divergence on " << synth::describe(bad) << " ("
                 << cycles
                 << " cycles): " << *test::diffShardedOnce(bad, cycles, shards);
        }
      }
    }
  }
}

TEST(ShardedKernel, WidePayloadsSpillCleanly) {
  // >64-bit payloads exercise the SignalBoard's multi-word arena paths,
  // including the boundary back-buffer when the channel crosses a shard cut.
  for (const unsigned shards : kShardCounts) {
    const synth::SynthConfig cfg =
        famConfig(synth::Topology::kPipeline, 120, 2, 3, /*width=*/80);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const auto mismatch = test::diffShardedOnce(cfg, 200, shards);
    EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  }
}

TEST(ShardedKernel, NondetEnvironmentsDrawIdenticalChoices) {
  // The stateless (seed, cycle, node, index) choice provider is what makes
  // the sharded pre-resolution identical to the serial lazy resolution; run
  // a nondet-environment system across shard counts and compare end state.
  auto run = [](unsigned shards, std::uint64_t seed) {
    synth::SynthConfig cfg = famConfig(synth::Topology::kPipeline, 60, 1, seed);
    cfg.nondetEnv = true;
    synth::SynthSystem sys = synth::build(cfg);
    sim::SimOptions opts;
    opts.checkProtocol = false;
    opts.seed = seed;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(250);
    return s.ctx().packState();
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto ref = run(1, seed);
    for (const unsigned shards : {2u, 8u})
      EXPECT_EQ(ref, run(shards, seed)) << "seed " << seed << ", " << shards
                                        << " shards";
  }
}

TEST(ShardedKernel, PaperPatternsUnderCrossCheck) {
  // Cross-check mode with shards settles sharded AND with the reference
  // sweep from the same pre-settle signals every cycle, throwing on any
  // per-channel disagreement — running is the assertion.
  for (const unsigned shards : {2u, 8u}) {
    for (const auto variant :
         {patterns::Fig1Variant::kNonSpeculative, patterns::Fig1Variant::kSpeculative}) {
      auto sys = patterns::buildFig1(variant);
      sim::SimOptions opts;
      opts.checkProtocol = true;
      opts.throwOnViolation = false;
      opts.crossCheckKernels = true;
      opts.shards = shards;
      sim::Simulator s(sys.nl, opts);
      ASSERT_NO_THROW(s.run(300)) << shards << " shards";
    }
  }
}

TEST(ShardedKernel, SecdedPipelineAcrossShardCounts) {
  // A real datapath (72-bit SECDED words) rather than a synthetic family:
  // identical sink streams and stats for every shard count.
  auto run = [](unsigned shards) {
    auto sys = patterns::buildSecdedSpeculative();
    sim::SimOptions opts;
    opts.checkProtocol = false;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(400);
    return s.ctx().packState();
  };
  const auto ref = run(1);
  for (const unsigned shards : {2u, 3u, 8u}) EXPECT_EQ(ref, run(shards));
}

TEST(ShardedKernel, ShardCountChangeMidRunPreservesSignals) {
  // setShards re-partitions and re-lays the SignalBoard mid-simulation; the
  // per-channel values must survive the slot permutation so the stream
  // continues exactly where it left off — also back at one shard, whose
  // settle seeds from the one shard's clocked list again.
  auto reference = [] {
    synth::SynthSystem sys =
        synth::build(famConfig(synth::Topology::kPipeline, 80, 2, 5));
    sim::SimOptions opts;
    opts.checkProtocol = false;
    sim::Simulator s(sys.nl, opts);
    s.run(320);
    return s.ctx().packState();
  }();

  synth::SynthSystem sys =
      synth::build(famConfig(synth::Topology::kPipeline, 80, 2, 5));
  sim::SimOptions opts;
  opts.checkProtocol = false;
  sim::Simulator s(sys.nl, opts);
  s.run(80);
  s.ctx().setShards(4);
  s.run(80);
  s.ctx().setShards(2);
  s.run(80);
  s.ctx().setShards(1);
  s.run(80);
  EXPECT_EQ(s.ctx().packState(), reference);
}

/// Ill-formed node oscillating on its own output (the read-back is stale
/// under staging, so the oscillation surfaces as round-to-round flapping).
class ShardOscillator : public Node {
 public:
  explicit ShardOscillator(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "shard-oscillator"; }
};

TEST(ShardedKernel, CombinationalCycleDetectedUnderShards) {
  // The per-node eval budget is shard-local too: an oscillator must raise
  // CombinationalCycleError (after finitely many rounds), not hang the
  // round loop — or, at one shard, the single drain.
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    Netlist nl;
    auto& osc = nl.make<ShardOscillator>("osc");
    auto& sink = nl.make<TokenSink>("sink", 1);
    nl.connect(osc, 0, sink, 0);
    SimContext ctx(nl);
    ctx.setShards(shards);
    EXPECT_THROW(ctx.settle(), CombinationalCycleError);
    // The aborted settle must not leave boundary staging active: a fallback
    // to the reference sweep kernel (or any external write) must hit the
    // front planes, so the sweep detects the same oscillation instead of
    // silently converging on stale signals.
    ctx.setKernel(SimContext::SettleKernel::kSweep);
    EXPECT_THROW(ctx.settle(), CombinationalCycleError);
  }
}

TEST(ShardedKernel, ShardedStatsMatchSerial) {
  // Channel statistics are a post-settle bitplane sweep, so they must be
  // oblivious to the shard count as well.
  auto run = [](unsigned shards) {
    synth::SynthSystem sys =
        synth::build(famConfig(synth::Topology::kForkJoin, 120, 2, 9));
    sim::SimOptions opts;
    opts.checkProtocol = false;
    opts.shards = shards;
    sim::Simulator s(sys.nl, opts);
    s.run(300);
    std::vector<std::uint64_t> counts;
    for (const ChannelId ch : sys.nl.channelIds()) {
      counts.push_back(s.channelStats(ch).fwdTransfers);
      counts.push_back(s.channelStats(ch).kills);
      counts.push_back(s.channelStats(ch).bwdTransfers);
    }
    return counts;
  };
  const auto ref = run(1);
  for (const unsigned shards : {2u, 8u}) EXPECT_EQ(ref, run(shards));
}

}  // namespace
}  // namespace esl
