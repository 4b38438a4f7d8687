// Node-state records: one home for every kind's sequential state, shared by
// the interpreter and the compiled VM, and sharded composition.
//
// Each node's sequential state (EB rings, fork done bits, source cursors,
// ee-mux anti counters, VLU operands) is its record in the SimContext's
// state arena (elastic/context.h). Both backends read and write those
// records in place; packState/unpackState go through the kinds' own record
// accessors. These tests pin that:
//   * per-kind round trips: for every stateful node kind, a compiled run's
//     packState() restored into a fresh compiled instance repacks byte-equal
//     and resumes in lockstep — unpack decodes into the records the next
//     compiled phase runs over;
//   * three-way sweep/event/compiled lockstep over the shared records;
//   * program-cache keying on the (topologyVersion, board layout) pair: a
//     shard-count flip re-lays the board and the records without a topology
//     bump and must trigger recompilation (regression: the cache used to key
//     on topologyVersion alone and would run stale SlotAddrs into the new
//     layout);
//   * compiled×sharded composition: packState bit-identical to the serial
//     compiled backend for every tested shard count.
//
// This suite carries the `compiled-kernel` CTest label (ASan/UBSan legs: raw
// record addressing) and the `sharded-kernel` label (TSan leg: shard-sliced
// records under real threads).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "diff_kernels_util.h"
#include "netlist/patterns.h"
#include "netlist/synth.h"
#include "test_util.h"

namespace esl {
namespace {

sim::SimOptions compiledOpts() {
  sim::SimOptions o;
  o.checkProtocol = false;
  o.backend = SimContext::Backend::kCompiled;
  return o;
}

/// Runs `build`'s netlist on the compiled backend; every cycle of the window,
/// restores the live snapshot into a second compiled instance, requires the
/// repack to be byte-equal (records → bytes → records is the identity), then
/// steps both and requires them to stay equal (the snapshot's cycle field
/// keeps the probe's choice stream aligned).
void expectArenaRoundTrip(const std::function<Netlist()>& build,
                          std::uint64_t warmup, std::uint64_t window) {
  Netlist liveNl = build();
  sim::Simulator live(liveNl, compiledOpts());
  Netlist probeNl = build();
  sim::Simulator probe(probeNl, compiledOpts());
  live.run(warmup);
  for (std::uint64_t c = 0; c < window; ++c) {
    const std::vector<std::uint8_t> snap = live.ctx().packState();
    probe.ctx().unpackState(snap);
    ASSERT_EQ(probe.ctx().packState(), snap)
        << "arena round trip lossy at cycle " << c;
    live.step();
    probe.step();
    ASSERT_EQ(live.ctx().packState(), probe.ctx().packState())
        << "restored instance diverged at cycle " << c;
  }
}

TEST(StateArena, BufferKindsRoundTrip) {
  // kEb (ring mid-wrap under anti-tokens), kEb0, kBrokenEb.
  expectArenaRoundTrip(
      [] {
        Netlist nl;
        auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
        auto& eb = nl.make<ElasticBuffer>("eb", 8, 3u);
        auto& z = nl.make<ElasticBuffer0>("z", 8);
        auto& broken = nl.make<BrokenBuffer>("broken", 8);
        auto& sink = nl.make<TokenSink>(
            "sink", 8,
            [](std::uint64_t c) { return hashChancePermille(c, 550, 5); },
            /*antiBudget=*/3,
            [](std::uint64_t c) { return hashChancePermille(c, 180, 9); });
        nl.connect(src, 0, eb, 0);
        nl.connect(eb, 0, z, 0);
        nl.connect(z, 0, broken, 0);
        nl.connect(broken, 0, sink, 0);
        return nl;
      },
      17, 50);
}

TEST(StateArena, ForkDoneBitsRoundTrip) {
  // kFork with straggling branches: done bits are mid-flight most cycles.
  expectArenaRoundTrip(
      [] {
        Netlist nl;
        auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
        auto& fork = nl.make<ForkNode>("fork", 8, 3);
        nl.connect(src, 0, fork, 0);
        for (unsigned b = 0; b < 3; ++b) {
          auto& sink = nl.make<TokenSink>(
              "sink" + std::to_string(b), 8, [b](std::uint64_t c) {
                return hashChancePermille(c, 400 + 150 * b, 3 + b);
              });
          nl.connect(fork, b, sink, 0);
        }
        return nl;
      },
      13, 50);
}

TEST(StateArena, EeMuxAntiCountersRoundTrip) {
  // kEeMux with a chronically late input: pendingAnti_ counters stay hot.
  expectArenaRoundTrip(
      [] {
        Netlist nl;
        auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
        auto& d1 =
            nl.make<TokenSource>("d1", 8, TokenSource::counting(8, 101),
                                 [](std::uint64_t c) { return c % 5 == 4; });
        auto& sel = nl.make<TokenSource>(
            "sel", 1, [](std::uint64_t c) -> std::optional<BitVec> {
              return BitVec(1, hashChancePermille(c, 250, 2) ? 1 : 0);
            });
        auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 8);
        auto& sink = nl.make<TokenSink>("sink", 8);
        nl.connect(sel, 0, mux, 0);
        nl.connect(d0, 0, mux, 1);
        nl.connect(d1, 0, mux, 2);
        nl.connect(mux, 0, sink, 0);
        return nl;
      },
      11, 50);
}

TEST(StateArena, NondetEnvironmentsRoundTrip) {
  // kNondetSource/kNondetSink: offering/killCredit/idleStreak and
  // antiActive/consecutiveStops words, driven by the seeded choice stream.
  expectArenaRoundTrip(
      [] {
        Netlist nl;
        auto& src = nl.make<NondetSource>("src", 4, 2, /*dataBits=*/4);
        auto& eb = nl.make<ElasticBuffer>("eb", 4);
        auto& sink = nl.make<NondetSink>("sink", 4, 2, /*emitsAnti=*/true);
        nl.connect(src, 0, eb, 0);
        nl.connect(eb, 0, sink, 0);
        return nl;
      },
      15, 50);
}

TEST(StateArena, VluPipelineRoundTrip) {
  // kVlu: pending/result operand words sampled mid-latency.
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kPipeline;
  cfg.targetNodes = 24;
  cfg.width = 8;
  cfg.seed = 7;
  cfg.vluPermille = 600;
  expectArenaRoundTrip([cfg] { return synth::buildNetlist(cfg); }, 11, 40);
}

TEST(StateArena, SpeculativeLoopFullCatalogRoundTrip) {
  // Fig. 1 speculative loop: SharedModule scheduler, ee-mux, forks and
  // buffers under anti-token traffic — the densest arena population.
  expectArenaRoundTrip(
      [] {
        return std::move(
            patterns::buildFig1(patterns::Fig1Variant::kSpeculative).nl);
      },
      23, 50);
}

TEST(StateArena, ThreeWayLockstepUnderArena) {
  // Sweep vs event vs compiled, packState after every cycle (the compiled
  // instance runs the arena view; the oracle pair runs the object view).
  for (const synth::Topology topo :
       {synth::Topology::kForkJoin, synth::Topology::kSpecLadder}) {
    synth::SynthConfig cfg;
    cfg.topology = topo;
    cfg.targetNodes = 120;
    cfg.seed = 13;
    cfg.injectPeriod = 2;
    cfg.width = 16;
    cfg.vluPermille = 150;
    SCOPED_TRACE(synth::describe(cfg));
    const auto mismatch = test::diffKernelsOnce(cfg, 200);
    EXPECT_FALSE(mismatch.has_value()) << *mismatch;
  }
}

TEST(StateArena, RecompilesOnBoardRelayoutWithoutTopologyBump) {
  // setShards() re-lays the SignalBoard (boundary slots migrate to the top)
  // WITHOUT bumping the netlist's topologyVersion. The op table is built in
  // the same step that lays out the board, so it never outlives its layout;
  // one kept across the relayout would replay stale SlotAddrs into the
  // permuted slots. Flip the layout mid-run, twice, against an interpreted
  // reference.
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kRandomDag;
  cfg.targetNodes = 160;
  cfg.seed = 21;
  cfg.injectPeriod = 2;
  cfg.width = 16;
  synth::SynthSystem interp = synth::build(cfg);
  synth::SynthSystem comp = synth::build(cfg);
  sim::SimOptions interpOpts;
  interpOpts.checkProtocol = false;
  sim::Simulator si(interp.nl, interpOpts);
  sim::Simulator sc(comp.nl, compiledOpts());
  for (std::uint64_t c = 0; c < 180; ++c) {
    if (c == 60) {
      si.ctx().setShards(2);
      sc.ctx().setShards(2);
    }
    if (c == 120) {
      si.ctx().setShards(1);
      sc.ctx().setShards(1);
    }
    si.step();
    sc.step();
    ASSERT_EQ(si.ctx().packState(), sc.ctx().packState())
        << "diverged at cycle " << c;
  }
}

TEST(StateArena, SurgeryKeepsSurvivorsAndResetsTheJoiner) {
  // Splicing a node in re-lays the record arena mid-run: every surviving
  // node keeps its record, and the new buffer (highest id, so packed last)
  // starts from its reset record — its initial token, not a zeroed one.
  for (const auto backend :
       {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
    Netlist nl = patterns::designSpec("fig1d").build();
    sim::SimOptions opts = compiledOpts();
    opts.backend = backend;
    sim::Simulator s(nl, opts);
    s.run(137);
    std::vector<std::uint8_t> expect, after;
    s.ctx().packStateInto(expect);
    const ChannelId ch = nl.channelIds().front();
    const unsigned width = nl.channel(ch).width;
    auto& joiner = nl.make<ElasticBuffer>("joiner", width, 2u,
                                          std::vector<BitVec>{BitVec(width, 1)});
    nl.insertOnChannel(ch, joiner);
    StateWriter tail;  // count, token, anti-token count
    tail.writeU32(1);
    tail.writeBitVec(BitVec(width, 1));
    tail.writeU32(0);
    const std::vector<std::uint8_t> joined = tail.take();
    expect.insert(expect.end(), joined.begin(), joined.end());
    s.ctx().packStateInto(after);
    EXPECT_EQ(after, expect);
    EXPECT_NO_THROW(s.run(50));
  }
}

TEST(StateArena, CompiledShardedBitIdentical) {
  // `--backend compiled --shards N`: serial compiled vs sharded compiled,
  // packState after every cycle, across topology families and shard counts.
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kSpecLadder,
        synth::Topology::kRandomDag}) {
    for (const unsigned shards : {2u, 8u}) {
      synth::SynthConfig cfg;
      cfg.topology = topo;
      cfg.targetNodes = 240;
      cfg.seed = 7;
      cfg.injectPeriod = 2;
      cfg.width = 16;
      cfg.vluPermille = 120;
      SCOPED_TRACE(synth::describe(cfg) + " shards=" + std::to_string(shards));
      auto mismatch = test::diffCompiledShardedOnce(cfg, 250, shards);
      if (mismatch) {
        synth::SynthConfig bad = cfg;
        std::uint64_t cycles = 250;
        test::shrinkSynthConfig(
            bad, cycles,
            [shards](const synth::SynthConfig& cand, std::uint64_t n) {
              return test::diffCompiledShardedOnce(cand, n, shards).has_value();
            });
        FAIL() << "compiled-sharded divergence on " << synth::describe(bad)
               << " (" << cycles << " cycles): "
               << *test::diffCompiledShardedOnce(bad, cycles, shards);
      }
    }
  }
}

TEST(StateArena, CompiledShardedNondetEnvironments) {
  // Pre-resolved choice bits + shard-sliced arena under nondet environments:
  // end state must match the serial compiled run for every seed.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    synth::SynthConfig cfg;
    cfg.topology = synth::Topology::kPipeline;
    cfg.targetNodes = 80;
    cfg.seed = seed;
    cfg.injectPeriod = 1;
    cfg.width = 16;
    cfg.nondetEnv = true;
    auto run = [&](unsigned shards) {
      synth::SynthSystem sys = synth::build(cfg);
      sim::SimOptions opts = compiledOpts();
      opts.seed = seed;
      opts.shards = shards;
      sim::Simulator s(sys.nl, opts);
      s.run(200);
      return s.ctx().packState();
    };
    const auto serial = run(1);
    EXPECT_EQ(serial, run(2)) << "seed " << seed << " shards 2";
    EXPECT_EQ(serial, run(8)) << "seed " << seed << " shards 8";
  }
}

TEST(StateArena, CrossCheckAuditsThroughTheArena) {
  // Cross-check mode runs the interpreted kernels over the compiled run's
  // records (reference settle, per-node edge replay from a rewound record);
  // running clean is the assertion.
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kSpecLadder;
  cfg.targetNodes = 60;
  cfg.seed = 17;
  cfg.width = 8;
  cfg.vluPermille = 200;
  synth::SynthSystem sys = synth::build(cfg);
  sim::SimOptions opts = compiledOpts();
  opts.crossCheckKernels = true;
  sim::Simulator s(sys.nl, opts);
  ASSERT_NO_THROW(s.run(200));
}

}  // namespace
}  // namespace esl
