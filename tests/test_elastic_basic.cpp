#include <gtest/gtest.h>

#include "test_util.h"

namespace esl {
namespace {

using test::iota;
using test::receivedValues;

TEST(FuncNode, UnaryThroughPipeline) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& inc = makeUnary(nl, "inc", 8, 8,
                        [](const BitVec& x) { return x + BitVec(8, 1); });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, inc, 0);
  nl.connect(inc, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  EXPECT_EQ(receivedValues(s, sink), iota(9, 1));
}

TEST(FuncNode, JoinWaitsForBothInputs) {
  Netlist nl;
  auto& a = nl.make<TokenSource>("a", 8, TokenSource::counting(8));
  // Source b only offers a new token every second cycle.
  auto& b = nl.make<TokenSource>("b", 8, TokenSource::counting(8, 100),
                                 [](std::uint64_t c) { return c % 2 == 0; });
  auto& add = makeBinary(nl, "add", 8, 8, 8,
                         [](const BitVec& x, const BitVec& y) { return x + y; });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(a, 0, add, 0);
  nl.connect(b, 0, add, 1);
  nl.connect(add, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(21);
  const auto vals = receivedValues(s, sink);
  ASSERT_GE(vals.size(), 5u);
  for (std::size_t i = 0; i < vals.size(); ++i)
    EXPECT_EQ(vals[i], (i + (100 + i)) & 0xFF);  // pairwise, in order
  // Throughput limited by the slower input.
  EXPECT_LE(vals.size(), 11u);
}

TEST(FuncNode, WrongWidthResultThrows) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& bad = nl.make<FuncNode>("bad", std::vector<unsigned>{8}, 8,
                                [](const std::vector<BitVec>&) { return BitVec(4); });
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, bad, 0);
  nl.connect(bad, 0, sink, 0);
  sim::Simulator s(nl);
  EXPECT_THROW(s.run(2), EslError);
}

TEST(ForkNode, BothBranchesReceiveStream) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& fork = nl.make<ForkNode>("fork", 8, 2);
  auto& s0 = nl.make<TokenSink>("s0", 8);
  auto& s1 = nl.make<TokenSink>("s1", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, fork, 0);
  nl.connect(fork, 0, s0, 0);
  nl.connect(fork, 1, s1, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  EXPECT_EQ(receivedValues(s, s0), iota(9));
  EXPECT_EQ(receivedValues(s, s1), iota(9));
}

TEST(ForkNode, EagerBranchRunsAheadBoundedly) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& fork = nl.make<ForkNode>("fork", 8, 2);
  auto& fast = nl.make<TokenSink>("fast", 8);
  auto& slow = nl.make<TokenSink>("slow", 8,
                                  [](std::uint64_t c) { return c % 4 == 3; });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, fork, 0);
  nl.connect(fork, 0, fast, 0);
  nl.connect(fork, 1, slow, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(41);
  // Both see the same prefix of the stream, the fast one at most one ahead
  // (the eager fork's done bit lets it take its copy early).
  const auto vf = receivedValues(s, fast);
  const auto vs = receivedValues(s, slow);
  EXPECT_EQ(vs, iota(vs.size()));
  EXPECT_EQ(vf, iota(vf.size()));
  EXPECT_GE(vf.size(), vs.size());
  EXPECT_LE(vf.size(), vs.size() + 1);
}

TEST(ForkNode, ThreeWay) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& fork = nl.make<ForkNode>("fork", 8, 3);
  auto& s0 = nl.make<TokenSink>("s0", 8);
  auto& s1 = nl.make<TokenSink>("s1", 8);
  auto& s2 = nl.make<TokenSink>("s2", 8);
  nl.connect(src, 0, fork, 0);
  nl.connect(fork, 0, s0, 0);
  nl.connect(fork, 1, s1, 0);
  nl.connect(fork, 2, s2, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  EXPECT_EQ(receivedValues(s, s0), iota(10));
  EXPECT_EQ(receivedValues(s, s1), iota(10));
  EXPECT_EQ(receivedValues(s, s2), iota(10));
}

TEST(Netlist, ValidateCatchesUnboundPorts) {
  Netlist nl;
  nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  EXPECT_THROW(nl.validate(), EslError);
}

TEST(Netlist, ConnectChecksWidths) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 16);
  EXPECT_THROW(nl.connect(src, 0, sink, 0), EslError);
}

TEST(Netlist, DoubleConnectRejected) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& s1 = nl.make<TokenSink>("s1", 8);
  auto& s2 = nl.make<TokenSink>("s2", 8);
  nl.connect(src, 0, s1, 0);
  EXPECT_THROW(nl.connect(src, 0, s2, 0), EslError);
}

TEST(Netlist, InsertOnChannelSplices) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 8);
  const ChannelId ch = nl.connect(src, 0, sink, 0);
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  const ChannelId down = nl.insertOnChannel(ch, eb);
  nl.validate();
  EXPECT_EQ(nl.channel(ch).consumer, eb.id());
  EXPECT_EQ(nl.channel(down).producer, eb.id());
  EXPECT_EQ(nl.channel(down).consumer, sink.id());

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(5);
  EXPECT_EQ(receivedValues(s, sink), iota(4));
}

TEST(Netlist, BypassNodeRemovesStage) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  nl.bypassNode(eb.id());
  nl.removeNode(eb.id());
  nl.validate();

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(5);
  EXPECT_EQ(receivedValues(s, sink), iota(5));  // no EB latency anymore
}

// A deliberately ill-formed node whose output oscillates: the settle loop
// must detect non-convergence and raise CombinationalCycleError.
class OscillatorNode : public Node {
 public:
  explicit OscillatorNode(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    // Deliberate contract violation: oscillates on its own output (the
    // serial kernels read back the live value and must flag non-convergence).
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "oscillator"; }
};

TEST(SimContext, DetectsCombinationalCycles) {
  Netlist nl;
  auto& osc = nl.make<OscillatorNode>("osc");
  auto& sink = nl.make<TokenSink>("sink", 1);
  nl.connect(osc, 0, sink, 0);
  SimContext ctx(nl);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
}

TEST(SimContext, StatePackUnpackRoundTrip) {
  auto build = [](Netlist& nl) {
    auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
    auto& eb1 = nl.make<ElasticBuffer>("eb1", 8);
    auto& eb2 = nl.make<ElasticBuffer>("eb2", 8);
    auto& sink = nl.make<TokenSink>(
        "sink", 8, [](std::uint64_t c) { return c % 3 != 1; });
    nl.connect(src, 0, eb1, 0);
    nl.connect(eb1, 0, eb2, 0);
    nl.connect(eb2, 0, sink, 0);
    return &sink;
  };

  Netlist nlA;
  TokenSink* sinkA = build(nlA);
  sim::Simulator simA(nlA);
  test::logSinks(simA);
  simA.run(7);
  const auto snapshot = simA.ctx().packState();
  const std::size_t alreadyReceived = sinkA->received(simA.ctx());

  // Restore into a freshly built identical netlist and continue both.
  Netlist nlB;
  TokenSink* sinkB = build(nlB);
  sim::Simulator simB(nlB, {.checkProtocol = false});
  test::logSinks(simB);
  simB.ctx().unpackState(snapshot);
  EXPECT_EQ(simB.ctx().packState(), snapshot);

  // NOTE: sink gates are cycle-indexed; align simB's cycle by stepping from 7.
  // Instead compare against simA's future stream directly.
  simA.run(9);
  const std::vector<std::uint64_t> valsA = receivedValues(simA, *sinkA);
  const std::vector<std::uint64_t> tailA(valsA.begin() + alreadyReceived, valsA.end());

  // simB starts its cycle counter at 0 but its state is from cycle 7; the
  // ready gate pattern has period 3 and 7 % 3 == 1, so offset the comparison
  // window only over values, which are state- not cycle-determined.
  simB.run(30);
  const auto valsB = receivedValues(simB, *sinkB);
  ASSERT_GE(valsB.size(), tailA.size());
  // The first transferred value after restore must continue the stream.
  EXPECT_EQ(valsB.front(), tailA.front());
}

TEST(SimContext, ProtocolCleanOnHealthyPipelines) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& eb0 = nl.make<ElasticBuffer0>("eb0", 8);
  auto& sink = nl.make<TokenSink>(
      "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 500, 3); });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, eb0, 0);
  nl.connect(eb0, 0, sink, 0);

  sim::Simulator s(nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(300);
  EXPECT_TRUE(s.ctx().protocolViolations().empty());
}

}  // namespace
}  // namespace esl
