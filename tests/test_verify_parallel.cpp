// Parallel model-checker tests (CTest label: verify-parallel; the CI
// sanitizer leg runs this binary explicitly, so the frontier sharding is
// exercised under ASan+UBSan with real threads).
//
// The contract under test: for EVERY worker count, exploration produces the
// exact object the serial checker produces — state numbering, transition
// counts, label bitmasks, truncation point, property verdicts and
// counterexample traces. Plus the scale-up the sharding buys: synth families
// that were verified at <=8 nodes now model-check clean at 12-20 nodes.
#include <gtest/gtest.h>

#include "netlist/synth.h"
#include "test_util.h"
#include "verify/checker.h"

namespace esl {
namespace {

using verify::CheckerOptions;
using verify::ModelChecker;
using verify::Violation;

// ---------------------------------------------------------------------------
// Harnesses
// ---------------------------------------------------------------------------

Netlist bufferHarness(bool sinkEmitsAnti) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  auto& buf = nl.make<ElasticBuffer>("buf", 1);
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2, sinkEmitsAnti);
  nl.connect(src, 0, buf, 0, "up");
  nl.connect(buf, 0, sink, 0, "down");
  return nl;
}

Netlist sharedMuxHarness() {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1, 2, /*dataBits=*/1);
  auto& fork = nl.make<ForkNode>("fork", 1, 3);
  auto& shared = nl.make<SharedModule>(
      "shared", 2, 1, 1, [](const BitVec& x) { return x; },
      std::make_unique<sched::BoundedFairScheduler>(2));
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

/// A deliberately broken 1-place buffer: a token stalled for one cycle is
/// dropped — the canonical Retry+ violation the checker must pin with the
/// same property name and counterexample under every worker count.
class DroppingBuffer : public Node {
 public:
  DroppingBuffer(std::string name, unsigned width)
      : Node(std::move(name)), width_(width) {
    declareInput(width);
    declareOutput(width);
  }

  /// Record: the full flag, then the held payload.
  std::uint32_t recordWords() const override { return 1 + payloadWords(width_); }
  void reset(std::uint64_t* record) const override {
    std::fill(record, record + recordWords(), 0);
  }

  void evalComb(SimContext& ctx) const override {
    const std::uint64_t* record = ctx.record(id());
    Sig in = ctx.sig(input(0));
    Sig out = ctx.sig(output(0));
    out.setVf(record[0] != 0);
    out.setData(BitVec::fromWords(width_, record + 1));
    out.setSb(false);
    in.setSf(record[0] != 0);  // can only hold one token
    in.setVb(false);
  }
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }

  void clockEdge(SimContext& ctx) const override {
    std::uint64_t* record = ctx.record(id());
    const ChannelSignals in = ctx.sig(input(0));
    const ChannelSignals out = ctx.sig(output(0));
    bool full = record[0] != 0;
    if (full && out.vf && out.sf && !out.vb) full = false;  // the bug: drop
    if (full && fwdTransfer(out)) full = false;
    if (fwdTransfer(in)) {
      full = true;
      in.data.toWords(record + 1);
    }
    record[0] = full;
  }

  void packState(const std::uint64_t* record, StateWriter& w) const override {
    w.writeBool(record[0] != 0);
    w.writeBitVec(BitVec::fromWords(width_, record + 1));
  }
  void unpackState(std::uint64_t* record, StateReader& r) const override {
    record[0] = r.readBool();
    r.readPayload(width_, name()).toWords(record + 1);
  }

  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;  // claims Retry+, hence checkable lie
  }
  std::string kindName() const override { return "dropping-buffer"; }

 private:
  unsigned width_;
};

Netlist droppingBufferHarness() {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  auto& buf = nl.make<DroppingBuffer>("bad", 1);
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(src, 0, buf, 0, "up");
  nl.connect(buf, 0, sink, 0, "down");
  return nl;
}

constexpr unsigned kWorkerCounts[] = {1, 2, 8};

void expectSameViolation(const Violation& a, const Violation& b,
                         const std::string& context) {
  EXPECT_EQ(a.property, b.property) << context;
  EXPECT_EQ(a.diagnostic, b.diagnostic) << context;
  EXPECT_EQ(a.inconclusive, b.inconclusive) << context;
  EXPECT_EQ(a.states, b.states) << context;
  EXPECT_EQ(a.combos, b.combos) << context;
  EXPECT_EQ(a.lassoStart, b.lassoStart) << context;
}

// ---------------------------------------------------------------------------
// Bit-identity of the explored graph on the full SELF suite
// ---------------------------------------------------------------------------

TEST(VerifyParallel, ExploredGraphIsBitIdenticalAcrossWorkerCounts) {
  // Every lane is a context over the checker's one netlist.
  const std::pair<const char*, Netlist (*)()> harnesses[] = {
      {"eb", [] { return bufferHarness(false); }},
      {"eb+anti", [] { return bufferHarness(true); }},
      {"shared-mux", sharedMuxHarness},
      {"dropping-buffer", droppingBufferHarness},
  };
  for (const auto& [name, build] : harnesses) {
    Netlist nl = build();
    std::uint64_t serialFingerprint = 0;
    verify::ExploreResult serialResult;
    for (const unsigned workers : kWorkerCounts) {
      CheckerOptions opts;
      opts.workers = workers;
      ModelChecker mc(nl, opts);
      const auto channels = mc.netlist().channelIds();
      const ChannelId watch = channels.front();
      mc.addLabel("vf", [watch](const SimContext& c) { return c.sig(watch).vf(); });
      const auto result = mc.explore();
      if (workers == 1) {
        serialResult = result;
        serialFingerprint = mc.graphFingerprint();
        EXPECT_GT(result.states, 1u) << name;
        continue;
      }
      EXPECT_EQ(result.states, serialResult.states) << name << " w" << workers;
      EXPECT_EQ(result.transitions, serialResult.transitions)
          << name << " w" << workers;
      EXPECT_EQ(result.truncated, serialResult.truncated) << name << " w" << workers;
      EXPECT_EQ(mc.graphFingerprint(), serialFingerprint) << name << " w" << workers;
    }
  }
}

TEST(VerifyParallel, SelfSuiteVerdictsIdenticalAcrossWorkerCounts) {
  Netlist nl = sharedMuxHarness();
  std::optional<verify::ProtocolReport> serial;
  for (const unsigned workers : kWorkerCounts) {
    CheckerOptions opts;
    opts.workers = workers;
    const auto report = verify::checkSelfProtocol(nl, opts);
    EXPECT_TRUE(report.ok()) << report.firstViolation();
    if (!serial) {
      serial = report;
      continue;
    }
    EXPECT_EQ(report.explore.states, serial->explore.states);
    EXPECT_EQ(report.explore.transitions, serial->explore.transitions);
    EXPECT_EQ(report.propertiesChecked, serial->propertiesChecked);
  }
}

// ---------------------------------------------------------------------------
// Negative paths: truncation and injected violations must match serial
// ---------------------------------------------------------------------------

TEST(VerifyParallel, TruncationIsReportedIdenticallyToSerial) {
  Netlist nl = bufferHarness(true);
  verify::ExploreResult serialResult;
  std::uint64_t serialFingerprint = 0;
  for (const unsigned workers : kWorkerCounts) {
    CheckerOptions opts;
    opts.workers = workers;
    opts.maxStates = 3;
    ModelChecker mc(nl, opts);
    const auto result = mc.explore();
    EXPECT_TRUE(result.truncated) << "w" << workers;
    EXPECT_TRUE(mc.truncated()) << "w" << workers;
    if (workers == 1) {
      serialResult = result;
      serialFingerprint = mc.graphFingerprint();
      continue;
    }
    EXPECT_EQ(result.states, serialResult.states) << "w" << workers;
    EXPECT_EQ(result.transitions, serialResult.transitions) << "w" << workers;
    EXPECT_EQ(mc.graphFingerprint(), serialFingerprint) << "w" << workers;
  }
}

TEST(VerifyParallel, TruncatedSuiteInconclusiveDiagnosticsMatchSerial) {
  Netlist nl = bufferHarness(true);
  std::optional<verify::ProtocolReport> serial;
  for (const unsigned workers : kWorkerCounts) {
    CheckerOptions opts;
    opts.workers = workers;
    opts.maxStates = 3;
    const auto report = verify::checkSelfProtocol(nl, opts);
    EXPECT_TRUE(report.explore.truncated);
    EXPECT_FALSE(report.ok());
    if (!serial) {
      serial = report;
      continue;
    }
    ASSERT_EQ(report.violations.size(), serial->violations.size());
    for (std::size_t i = 0; i < report.violations.size(); ++i)
      expectSameViolation(report.violations[i], serial->violations[i],
                          "w" + std::to_string(workers));
  }
}

TEST(VerifyParallel, InjectedViolationYieldsSamePropertyAndTraceUnderAllWorkers) {
  Netlist nl = droppingBufferHarness();
  std::optional<Violation> serial;
  for (const unsigned workers : kWorkerCounts) {
    CheckerOptions opts;
    opts.workers = workers;
    const auto report = verify::checkSelfProtocol(nl, opts);
    ASSERT_FALSE(report.ok()) << "w" << workers;
    const Violation& v = report.violations.front();
    // The dropped token is a Retry+ persistence violation on the buffer's
    // output channel, caught by the step property.
    EXPECT_EQ(v.property, "G(down.retryF => X down.vf)") << "w" << workers;
    EXPECT_FALSE(v.inconclusive);
    // A valid counterexample: starts at reset, k combos / k+1 states; the
    // suite replay-validated it against the real transition system before
    // reporting (InternalError otherwise).
    ASSERT_GE(v.states.size(), 2u) << "w" << workers;
    EXPECT_EQ(v.states.front(), 0u);
    EXPECT_EQ(v.states.size(), v.combos.size() + 1);
    if (!serial) {
      serial = v;
      continue;
    }
    expectSameViolation(v, *serial, "w" + std::to_string(workers));
  }
}

TEST(VerifyParallel, BorrowedNetlistAcceptsWorkers) {
  Netlist nl = bufferHarness(false);
  const std::uint64_t version = nl.topologyVersion();
  CheckerOptions opts;
  opts.workers = 2;
  ModelChecker mc(nl, opts);
  EXPECT_GT(mc.explore().states, 1u);
  EXPECT_EQ(nl.topologyVersion(), version);  // the lanes only read it
}

// ---------------------------------------------------------------------------
// Scale-up: synth families clean at >=12 nodes (previously capped at <=8)
// ---------------------------------------------------------------------------

TEST(VerifyParallel, SynthFamiliesModelCheckCleanAtTwelvePlusNodes) {
  // The sizes are README's "Verified sizes per synth family" table.
  struct Case {
    synth::Topology topology;
    std::size_t nodes;
    std::size_t states;
    std::size_t transitions;
  };
  const Case cases[] = {
      {synth::Topology::kPipeline, 20, 3292, 13168},
      {synth::Topology::kForkJoin, 16, 22, 88},
      {synth::Topology::kSpecLadder, 12, 725, 46400},
      {synth::Topology::kRandomDag, 20, 1713, 6852},
  };
  for (const Case& c : cases) {
    synth::SynthConfig cfg;
    cfg.topology = c.topology;
    cfg.targetNodes = c.nodes;
    cfg.width = 1;
    cfg.seed = 3;
    cfg.nondetEnv = true;
    SCOPED_TRACE(synth::describe(cfg));
    // The netlists really are >=12 nodes (the generator respects its budget,
    // but pin it here so the scale-up claim stays honest).
    EXPECT_GE(synth::build(cfg).nodeCount, 12u);

    CheckerOptions opts;
    opts.maxStates = 500000;
    opts.maxChoiceBits = 16;
    opts.workers = 2;
    const Netlist nl = synth::spec(cfg).build();
    const auto report = verify::checkSelfProtocol(nl, opts);
    EXPECT_FALSE(report.explore.truncated);
    EXPECT_TRUE(report.ok()) << report.firstViolation();
    EXPECT_EQ(report.explore.states, c.states);
    EXPECT_EQ(report.explore.transitions, c.transitions);
  }
}

}  // namespace
}  // namespace esl
