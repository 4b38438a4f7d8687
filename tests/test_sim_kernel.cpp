// Tests of the settle kernels and the parallel sweep runner.
//
// The event-driven kernel must be observationally identical to the reference
// sweep kernel: same settled signals every cycle, same statistics, same
// protocol-violation log, on every paper topology and on randomized pipelines.
// SimFarm must produce bit-identical merged results regardless of thread
// count.
#include <gtest/gtest.h>

#include "netlist/patterns.h"
#include "netlist/synth.h"
#include "sim/farm.h"
#include "test_util.h"

namespace esl {
namespace {

using sim::SimFarm;
using sim::SimOptions;
using sim::Simulator;
using Kernel = SimContext::SettleKernel;

// ---------------------------------------------------------------------------
// Kernel equivalence on the paper topologies
// ---------------------------------------------------------------------------

struct RunSummary {
  std::vector<sim::ChannelStats> stats;
  std::vector<ChannelSignals> finalSignals;
  std::vector<std::string> violations;
};

bool operator==(const sim::ChannelStats& a, const sim::ChannelStats& b) {
  return a.fwdTransfers == b.fwdTransfers && a.kills == b.kills &&
         a.bwdTransfers == b.bwdTransfers;
}

template <typename BuildFn>
RunSummary runWith(BuildFn build, Kernel kernel, std::uint64_t cycles) {
  auto sys = build();
  Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = false,
                       .kernel = kernel});
  s.run(cycles);
  RunSummary out;
  for (const ChannelId ch : sys.nl.channelIds()) {
    out.stats.push_back(s.channelStats(ch));
    out.finalSignals.push_back(s.ctx().sig(ch));
  }
  out.violations = s.ctx().protocolViolations();
  return out;
}

template <typename BuildFn>
void expectKernelsAgree(BuildFn build, std::uint64_t cycles = 300) {
  const RunSummary sweep = runWith(build, Kernel::kSweep, cycles);
  const RunSummary event = runWith(build, Kernel::kEventDriven, cycles);
  ASSERT_EQ(sweep.stats.size(), event.stats.size());
  for (std::size_t i = 0; i < sweep.stats.size(); ++i) {
    EXPECT_TRUE(sweep.stats[i] == event.stats[i]) << "stats differ on channel " << i;
    EXPECT_EQ(sweep.finalSignals[i], event.finalSignals[i])
        << "final signals differ on channel " << i;
  }
  EXPECT_EQ(sweep.violations, event.violations);

  // And the per-cycle cross-check (both kernels from the same pre-settle
  // state, compared channel by channel) must hold throughout.
  auto sys = build();
  Simulator s(sys.nl, {.checkProtocol = false, .crossCheckKernels = true});
  EXPECT_NO_THROW(s.run(cycles));
}

TEST(SimKernel, Fig1VariantsAgree) {
  for (const auto variant :
       {patterns::Fig1Variant::kNonSpeculative, patterns::Fig1Variant::kBubble,
        patterns::Fig1Variant::kShannon, patterns::Fig1Variant::kSpeculative}) {
    expectKernelsAgree([variant] {
      return patterns::buildFig1(variant);
    });
  }
}

TEST(SimKernel, Fig1SchedulersAgree) {
  for (const auto sched :
       {patterns::Fig1Scheduler::kStatic0, patterns::Fig1Scheduler::kLastServed,
        patterns::Fig1Scheduler::kTwoBit, patterns::Fig1Scheduler::kOracle,
        patterns::Fig1Scheduler::kRoundRobin}) {
    expectKernelsAgree([sched] {
      patterns::Fig1Config cfg;
      cfg.scheduler = sched;
      cfg.takenPermille = 400;
      return patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);
    });
  }
}

TEST(SimKernel, Table1Agrees) {
  expectKernelsAgree([] { return patterns::buildTable1({0, 1, 1, 0, 0, 1}); }, 40);
}

TEST(SimKernel, VluVariantsAgree) {
  expectKernelsAgree([] { return patterns::buildStallingVlu(); });
  expectKernelsAgree([] { return patterns::buildSpeculativeVlu(); });
}

TEST(SimKernel, SecdedVariantsAgree) {
  expectKernelsAgree([] { return patterns::buildSecdedPipeline(); });
  expectKernelsAgree([] { return patterns::buildSecdedSpeculative(); });
}

// ---------------------------------------------------------------------------
// Randomized pipelines: both kernels, nondeterministic environments
// ---------------------------------------------------------------------------

/// Random linear pipeline with forks rejoined through an adder, stages drawn
/// from {EB, EB0, wire, fork+join}, and a throttled sink that also injects
/// anti-tokens. Topology and gates are a pure function of `seed`.
struct RandomPipeline {
  Netlist nl;
};

RandomPipeline buildRandomPipeline(std::uint64_t seed) {
  RandomPipeline sys;
  Rng rng(seed);
  const unsigned w = 8;
  Netlist& nl = sys.nl;

  auto& src = nl.make<TokenSource>(
      "src", w, TokenSource::counting(w, rng.below(100)),
      [seed](std::uint64_t c) { return hashChancePermille(c, 800, seed); });

  Node* tail = &src;
  unsigned tailPort = 0;
  const unsigned stages = 2 + static_cast<unsigned>(rng.below(5));
  for (unsigned i = 0; i < stages; ++i) {
    const std::uint64_t pick = rng.below(4);
    const std::string tag = std::to_string(i);
    if (pick == 0) {
      auto& eb = nl.make<ElasticBuffer>("eb" + tag, w);
      nl.connect(*tail, tailPort, eb, 0);
      tail = &eb;
      tailPort = 0;
    } else if (pick == 1) {
      auto& eb0 = nl.make<ElasticBuffer0>("eb0_" + tag, w);
      nl.connect(*tail, tailPort, eb0, 0);
      tail = &eb0;
      tailPort = 0;
    } else if (pick == 2) {
      auto& wire = makeWire(nl, "wire" + tag, w);
      nl.connect(*tail, tailPort, wire, 0);
      tail = &wire;
      tailPort = 0;
    } else {
      // Fork into two branches (one buffered) and rejoin through an adder.
      auto& fork = nl.make<ForkNode>("fork" + tag, w, 2);
      auto& eb = nl.make<ElasticBuffer>("forkEb" + tag, w);
      auto& join = makeBinary(nl, "join" + tag, w, w, w,
                              [](const BitVec& a, const BitVec& b) { return a + b; });
      nl.connect(*tail, tailPort, fork, 0);
      nl.connect(fork, 0, join, 0);
      nl.connect(fork, 1, eb, 0);
      nl.connect(eb, 0, join, 1);
      tail = &join;
      tailPort = 0;
    }
  }

  const bool wantAnti = rng.below(2) == 0;
  auto& sink = nl.make<TokenSink>(
      "sink", w, [seed](std::uint64_t c) { return hashChancePermille(c, 700, seed + 1); },
      wantAnti ? 2u : 0u,
      [seed](std::uint64_t c) { return hashChancePermille(c, 100, seed + 2); });
  nl.connect(*tail, tailPort, sink, 0);
  return sys;
}

TEST(SimKernel, RandomPipelinesAgreeUnderCrossCheck) {
  // The cross-check throws InternalError on the first per-channel mismatch,
  // so simply running is the assertion. Protocol logs are compared too.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto sys = buildRandomPipeline(seed);
    Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = false,
                         .seed = seed, .crossCheckKernels = true});
    ASSERT_NO_THROW(s.run(200));

    const RunSummary sweep =
        runWith([&] { return buildRandomPipeline(seed); }, Kernel::kSweep, 200);
    const RunSummary event =
        runWith([&] { return buildRandomPipeline(seed); }, Kernel::kEventDriven, 200);
    ASSERT_EQ(sweep.stats.size(), event.stats.size());
    for (std::size_t i = 0; i < sweep.stats.size(); ++i)
      ASSERT_TRUE(sweep.stats[i] == event.stats[i])
          << "seed " << seed << " stats differ on channel " << i;
    ASSERT_EQ(sweep.violations, event.violations) << "seed " << seed;
  }
}

TEST(SimKernel, NondetEnvironmentsAgreeSeedBySeed) {
  auto run = [](Kernel kernel, std::uint64_t seed) {
    Netlist nl;
    auto& src = nl.make<NondetSource>("src", 4);
    auto& eb = nl.make<ElasticBuffer>("eb", 4);
    auto& sink = nl.make<NondetSink>("sink", 4, 2, true);
    nl.connect(src, 0, eb, 0);
    nl.connect(eb, 0, sink, 0, "down");
    Simulator s(nl, {.seed = seed, .kernel = kernel});
    s.run(200);
    return s.channelStats(nl.findChannel("down")->id).fwdTransfers;
  };
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    EXPECT_EQ(run(Kernel::kSweep, seed), run(Kernel::kEventDriven, seed))
        << "seed " << seed;
}

// ---------------------------------------------------------------------------
// Combinational-cycle detection and rewiring interplay
// ---------------------------------------------------------------------------

/// Ill-formed node oscillating on its own output; the event kernel must
/// detect it via the eval budget exactly like the sweep does. (It keeps the
/// default kUnaudited purity, so the kernel re-checks it after every change.)
class OscillatorNode : public Node {
 public:
  explicit OscillatorNode(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    // Deliberate contract violation: oscillates on its own output.
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "oscillator"; }
};

/// Node with a deliberately WRONG EdgeActivity declaration: it claims its
/// clockEdge is event-triggered but actually counts every cycle. The
/// cross-check edge audit must catch the state change on the first quiet
/// cycle instead of letting the sparse edge silently skip it.
class LyingEdgeNode : public Node {
 public:
  explicit LyingEdgeNode(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    Sig out = ctx.sig(output(0));
    out.setVf(false);  // never offers: its channel never carries an event
    out.setSb(false);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  /// Record: a cycle counter.
  std::uint32_t recordWords() const override { return 1; }
  void reset(std::uint64_t* record) const override { record[0] = 0; }
  void clockEdge(SimContext& ctx) const override { ++ctx.record(id())[0]; }
  void packState(const std::uint64_t* record, StateWriter& w) const override {
    w.writeU64(record[0]);
  }
  void unpackState(std::uint64_t* record, StateReader& r) const override {
    record[0] = r.readU64();
  }
  std::string kindName() const override { return "lying-edge"; }
};

TEST(SimKernel, CrossCheckAuditsEdgeActivityDeclarations) {
  Netlist nl;
  auto& bad = nl.make<LyingEdgeNode>("bad");
  auto& sink = nl.make<TokenSink>("sink", 1);
  nl.connect(bad, 0, sink, 0);
  SimContext ctx(nl);
  ctx.setCrossCheck(true);
  ctx.settle();
  EXPECT_THROW(ctx.edge(), InternalError);
}

/// Node that reads the cycle counter in evalComb while declaring (via the
/// evalReadsPerCycleInputs default) that it does not. On a quiet cycle the
/// sparse settle seeding skips it, so its output goes stale — the cross-check
/// must surface that as a kernel disagreement.
class UndeclaredCycleReaderNode : public Node {
 public:
  explicit UndeclaredCycleReaderNode(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    Sig out = ctx.sig(output(0));
    const bool offer = (ctx.cycle() / 4) % 2 == 1;  // illegal: undeclared read
    out.setVf(offer);
    if (offer) out.setData(BitVec(1, 1));
    out.setSb(false);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  std::string kindName() const override { return "cycle-reader"; }
};

TEST(SimKernel, CrossCheckAuditsUndeclaredPerCycleReads) {
  Netlist nl;
  auto& bad = nl.make<UndeclaredCycleReaderNode>("bad");
  // A sink that never accepts keeps every cycle event-free, so the sparse
  // seeding legitimately skips `bad` — until its output flips at cycle 4.
  auto& sink = nl.make<TokenSink>("sink", 1, [](std::uint64_t) { return false; });
  nl.connect(bad, 0, sink, 0);
  SimContext ctx(nl);
  ctx.setCrossCheck(true);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) ctx.step();
      },
      InternalError);
}

TEST(SimKernel, SparseEdgeMatchesFullEdgeOnGatedSources) {
  // A long pipeline with rare injection: most cycles most nodes are quiet,
  // so the event kernel's dirty-tracked edge skips them. Both kernels must
  // still deliver the identical transfer stream.
  auto build = [](SimContext::SettleKernel kernel) {
    Netlist nl;
    auto& src = nl.make<TokenSource>(
        "src", 8, TokenSource::counting(8),
        [](std::uint64_t c) { return c % 13 == 0; });
    Node* tail = &src;
    for (unsigned i = 0; i < 20; ++i) {
      auto& eb = nl.make<ElasticBuffer>("eb" + std::to_string(i), 8);
      nl.connect(*tail, 0, eb, 0);
      tail = &eb;
    }
    auto& sink = nl.make<TokenSink>("sink", 8);
    nl.connect(*tail, 0, sink, 0);
    sim::Simulator s(nl, {.checkProtocol = false, .kernel = kernel});
    test::logSinks(s);
    s.run(300);
    return test::receivedValues(s, sink);
  };
  const auto sweep = build(Kernel::kSweep);
  const auto event = build(Kernel::kEventDriven);
  ASSERT_GT(sweep.size(), 10u);
  EXPECT_EQ(sweep, event);
}

TEST(SimKernel, BothKernelsDetectCombinationalCycles) {
  for (const Kernel kernel : {Kernel::kSweep, Kernel::kEventDriven}) {
    Netlist nl;
    auto& osc = nl.make<OscillatorNode>("osc");
    auto& sink = nl.make<TokenSink>("sink", 1);
    nl.connect(osc, 0, sink, 0);
    SimContext ctx(nl);
    ctx.setKernel(kernel);
    EXPECT_THROW(ctx.settle(), CombinationalCycleError);
  }
}

/// A wire (comb-pure, so the event kernel evaluates it only when an input
/// changes) whose evalComb throws once, at cycle `throwAt`, before it drives
/// anything. It stays generic under the compiled backend (a subclass of a
/// catalog kind never specializes).
class ThrowOnceWire : public FuncNode {
 public:
  ThrowOnceWire(std::string name, unsigned width, std::uint64_t throwAt)
      : FuncNode(std::move(name), {width}, width, FnOp{FnOp::Kind::kId}),
        throwAt_(throwAt) {}
  void evalComb(SimContext& ctx) const override {
    if (armed_ && ctx.cycle() == throwAt_) {
      armed_ = false;
      throw EslError("wire '" + name() + "' failed");
    }
    FuncNode::evalComb(ctx);
  }

 private:
  std::uint64_t throwAt_;
  mutable bool armed_ = true;
};

TEST(SimKernel, StepRetriedAfterAThrowMatchesAnUninterruptedRun) {
  // The throw leaves a partial settle on the board: the source has driven
  // token 5 onto `a`, and the wire, its only reader, never ran. A retried
  // step must not trust that board — if it only re-seeds the clocked nodes,
  // the source re-drives the same token (no change, so no push), `b` keeps
  // token 4, and the sink takes it twice while token 5 is lost.
  using Log = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const auto run = [](unsigned shards, SimContext::Backend backend,
                      std::uint64_t throwAt, unsigned& throws) {
    Netlist nl;
    auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
    auto& wire = nl.make<ThrowOnceWire>("t", 8, throwAt);
    auto& sink = nl.make<TokenSink>("sink", 8);
    nl.connect(src, 0, wire, 0);
    const ChannelId b = nl.connect(wire, 0, sink, 0);
    SimContext ctx(nl);
    ctx.setShards(shards);
    ctx.setBackend(backend);
    ctx.logTransfers(b);
    throws = 0;
    while (ctx.cycle() < 20) {
      try {
        ctx.step();
      } catch (const EslError&) {
        ++throws;
      }
    }
    Log log;
    for (const SimContext::Transfer& t : ctx.transfers(b))
      log.emplace_back(t.cycle, t.data.toUint64());
    return log;
  };
  for (const unsigned shards : {1u, 2u}) {
    for (const auto backend :
         {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
      unsigned throws = 0;
      const Log uninterrupted = run(shards, backend, ~std::uint64_t{0}, throws);
      ASSERT_EQ(throws, 0u);
      const Log retried = run(shards, backend, 5, throws);
      EXPECT_EQ(throws, 1u);
      EXPECT_EQ(retried, uninterrupted)
          << shards << " shard(s), "
          << (backend == SimContext::Backend::kCompiled ? "compiled" : "interpreted");
    }
  }
}

TEST(SimKernel, WorklistSearchStaysBelowEvaluations) {
  // Stops and kills travel against the data, so on a fork/join tree each
  // forward wave pushes work behind the drain's cursor. Finding the next
  // pending node after such a jump must not walk the empty worklist words in
  // between: the search may examine at most one word per evaluation.
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kForkJoin;
  cfg.targetNodes = 10000;
  cfg.injectPeriod = 64;
  for (const auto backend :
       {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
    synth::SynthSystem sys = synth::build(cfg);
    Simulator s(sys.nl, {.checkProtocol = false, .backend = backend});
    s.run(1000);
    const SimContext::SettleWork before = s.ctx().settleWork();
    s.run(1000);
    const SimContext::SettleWork after = s.ctx().settleWork();
    const std::uint64_t evaluations = after.evaluations - before.evaluations;
    const std::uint64_t words = after.wordsSearched - before.wordsSearched;
    EXPECT_GT(evaluations, 100000u);
    EXPECT_LE(words, evaluations);
  }
}

TEST(SimKernel, EventKernelSurvivesRewiring) {
  // Regression: the context's adjacency and the retained-signal seeding must
  // notice netlist surgery between simulations (topologyVersion bump).
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  {
    sim::Simulator s(nl, {.kernel = Kernel::kEventDriven});
    s.run(5);
    EXPECT_EQ(sink.received(s.ctx()), 4u);  // one cycle of EB latency
  }
  nl.bypassNode(eb.id());
  nl.removeNode(eb.id());
  nl.validate();
  {
    sim::Simulator s(nl, {.kernel = Kernel::kEventDriven});
    test::logSinks(s);
    s.run(5);
    EXPECT_EQ(test::receivedValues(s, sink), test::iota(5));  // latency gone
  }
}

TEST(SimKernel, ChannelAddedAfterConstructionGetsSignalSlots) {
  // Regression: a channel created after the context's last reset() (shell
  // surgery, insertOnChannel) must get signal storage before either kernel
  // touches it — the event kernel's shadow refresh used to read out of
  // bounds here.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 8);
  const ChannelId ch = nl.connect(src, 0, sink, 0);
  SimContext ctx(nl);
  ctx.setCrossCheck(true);  // exercise both kernels every settle
  ctx.settle();
  ctx.edge();

  auto& eb = nl.make<ElasticBuffer>("eb", 8);  // the context resets joiners
  nl.insertOnChannel(ch, eb);
  nl.validate();
  for (int i = 0; i < 5; ++i) {
    ASSERT_NO_THROW(ctx.settle());
    ctx.edge();
  }
  EXPECT_GT(sink.received(ctx), 0u);
}

// ---------------------------------------------------------------------------
// SimFarm
// ---------------------------------------------------------------------------

SimFarm makeFig1Farm() {
  SimFarm farm(
      [](const SimFarm::Task& task, SimFarm::Instance& inst) {
        patterns::Fig1Config cfg;
        cfg.takenPermille = static_cast<unsigned>(task.config);
        auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);
        inst.nl = std::move(sys.nl);
        inst.watch.emplace_back("loop", sys.loopChannel);
        SharedModule* shared = sys.shared;
        inst.harvest = [shared](Simulator& s,
                                std::vector<std::pair<std::string, double>>& m) {
          m.emplace_back("demandCycles",
                         static_cast<double>(shared->demandCycles(s.ctx())));
        };
      },
      SimOptions{.checkProtocol = true, .throwOnViolation = false});
  farm.addSeedSweep(8, /*seed0=*/1, /*cycles=*/400, /*config=*/300);
  farm.addSeedSweep(8, /*seed0=*/100, /*cycles=*/400, /*config=*/700);
  return farm;
}

TEST(SimFarm, DeterministicAcrossThreadCounts) {
  auto ref = makeFig1Farm().run(1);
  for (const unsigned threads : {2u, 4u, 16u}) {
    auto got = makeFig1Farm().run(threads);
    ASSERT_EQ(ref.size(), got.size()) << threads << " threads";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << got[i].error;
      EXPECT_EQ(ref[i].task.seed, got[i].task.seed);
      EXPECT_EQ(ref[i].cycles, got[i].cycles);
      ASSERT_EQ(ref[i].channels.size(), got[i].channels.size());
      for (std::size_t c = 0; c < ref[i].channels.size(); ++c)
        EXPECT_TRUE(ref[i].channels[c].second == got[i].channels[c].second)
            << "task " << i << ", " << threads << " threads";
      EXPECT_EQ(ref[i].metrics, got[i].metrics);
    }
    const SimFarm::Merged a = SimFarm::merge(ref);
    const SimFarm::Merged b = SimFarm::merge(got);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.channels.at("loop").stats.fwdTransfers,
              b.channels.at("loop").stats.fwdTransfers);
    EXPECT_EQ(a.metricTotals.at("demandCycles"), b.metricTotals.at("demandCycles"));
  }
}

TEST(SimFarm, MergesByChannelLabel) {
  auto results = makeFig1Farm().run(4);
  const SimFarm::Merged m = SimFarm::merge(results);
  EXPECT_EQ(m.tasks, 16u);
  EXPECT_EQ(m.failures, 0u);
  EXPECT_EQ(m.totalCycles, 16u * 400u);
  ASSERT_EQ(m.channels.count("loop"), 1u);
  const auto& loop = m.channels.at("loop");
  EXPECT_EQ(loop.cycles, m.totalCycles);
  EXPECT_GT(loop.stats.fwdTransfers, 0u);
  EXPECT_GT(loop.throughput(), 0.3);
  EXPECT_LE(loop.throughput(), 1.0);
}

TEST(SimFarm, FailedTasksAreReportedNotThrown) {
  SimFarm farm([](const SimFarm::Task& task, SimFarm::Instance& inst) {
    if (task.config == 1) throw EslError("recipe exploded");
    auto sys = patterns::buildFig1(patterns::Fig1Variant::kBubble);
    inst.nl = std::move(sys.nl);
    inst.watch.emplace_back("loop", sys.loopChannel);
  });
  farm.add({.seed = 1, .cycles = 50, .config = 0});
  farm.add({.seed = 2, .cycles = 50, .config = 1});
  farm.add({.seed = 3, .cycles = 50, .config = 0});
  auto results = farm.run(2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("recipe exploded"), std::string::npos);
  EXPECT_TRUE(results[2].ok);
  const SimFarm::Merged m = SimFarm::merge(results);
  EXPECT_EQ(m.tasks, 3u);
  EXPECT_EQ(m.failures, 1u);
}

}  // namespace
}  // namespace esl
