#include "elastic/buffer.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace esl {
namespace {

using test::iota;
using test::receivedCycles;
using test::receivedValues;

TEST(ElasticBuffer, ForwardLatencyOne) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  // Token 0 enters the EB at cycle 0 and reaches the sink at cycle 1 (Lf=1);
  // thereafter one token per cycle.
  EXPECT_EQ(receivedValues(s, sink), iota(9));
  EXPECT_EQ(receivedCycles(s, sink), iota(9, 1));
}

TEST(ElasticBuffer, InitialTokenAvailableImmediately) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8, 10));
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2, std::vector<BitVec>{BitVec(8, 99)});
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(5);
  const auto vals = receivedValues(s, sink);
  ASSERT_GE(vals.size(), 2u);
  EXPECT_EQ(vals[0], 99u);  // the initial token, at cycle 0
  EXPECT_EQ(vals[1], 10u);
  EXPECT_EQ(receivedCycles(s, sink)[0], 0u);
}

TEST(ElasticBuffer, BackpressureLosesNothing) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  // Sink accepts only every third cycle.
  auto& sink = nl.make<TokenSink>("sink", 8,
                                  [](std::uint64_t c) { return c % 3 == 0; });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(31);
  EXPECT_EQ(receivedValues(s, sink), iota(10));  // in order, no loss, no dup
}

TEST(ElasticBuffer, ThroughputOneWhenUncontended) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 4, TokenSource::counting(4));
  auto& eb = nl.make<ElasticBuffer>("eb", 4);
  auto& sink = nl.make<TokenSink>("sink", 4);
  const ChannelId up = nl.connect(src, 0, eb, 0);
  const ChannelId down = nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  s.run(100);
  EXPECT_DOUBLE_EQ(s.throughput(up), 1.0);
  EXPECT_NEAR(s.throughput(down), 0.99, 0.011);  // one cycle of fill latency
}

TEST(ElasticBuffer, StopIsRegisteredLb1) {
  // With a never-ready sink, the source can inject exactly C=2 tokens before
  // the (one-cycle-late) stop reaches it; nothing is lost.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, [](std::uint64_t) { return false; });
  const ChannelId up = nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  s.run(10);
  EXPECT_EQ(s.channelStats(up).fwdTransfers, 2u);  // capacity bound
  EXPECT_EQ(eb.occupancy(s.ctx()), 2);
  EXPECT_EQ(sink.received(s.ctx()), 0u);
}

TEST(ElasticBuffer, CapacityBelowTwoRejected) {
  EXPECT_THROW(ElasticBuffer("bad", 8, 1), EslError);
}

TEST(ElasticBuffer, TooManyInitTokensRejected) {
  EXPECT_THROW(
      ElasticBuffer("bad", 8, 2,
                    std::vector<BitVec>{BitVec(8, 0), BitVec(8, 1), BitVec(8, 2)}),
      EslError);
}

TEST(ElasticBuffer, InitTokensAndAntiTokensExclusive) {
  EXPECT_THROW(ElasticBuffer("bad", 8, 2, std::vector<BitVec>{BitVec(8, 0)}, 2, 1),
               EslError);
}

TEST(ElasticBuffer, RecordTooLargeForItsOffsetsRejected) {
  // 2 + 2147483647 x 2 words is 2^32: it would wrap to an empty record.
  try {
    ElasticBuffer("wide", 65, 2147483647);
    FAIL() << "a record of 2^32 words was accepted";
  } catch (const EslError& e) {
    EXPECT_NE(std::string(e.what()).find("'wide'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("4294967296 words"), std::string::npos)
        << e.what();
  }
}

TEST(ElasticBuffer, AntiTokenKillsStoredToken) {
  // Sink emits one anti-token at cycle 0; it reaches the EB and cancels the
  // head token, so the sink's stream starts at the next value.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, TokenSink::Gate{}, 1,
                                  [](std::uint64_t c) { return c == 0; });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  const auto vals = receivedValues(s, sink);
  ASSERT_FALSE(vals.empty());
  EXPECT_EQ(vals.front(), 1u);  // token 0 was annihilated
  EXPECT_EQ(vals, iota(vals.size(), 1));
}

TEST(ElasticBuffer, InitialAntiTokenCancelsFirstArrival) {
  // An EB initialized with one anti-token models "0 = 1 - 1" (paper §3.3).
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2, std::vector<BitVec>{}, 2,
                                    /*initAntiTokens=*/1);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  const auto vals = receivedValues(s, sink);
  ASSERT_FALSE(vals.empty());
  EXPECT_EQ(vals, iota(vals.size(), 1));  // token 0 killed by the anti-token
  EXPECT_EQ(src.killed(s.ctx()), 1u);
}

TEST(ElasticBuffer0, ZeroBackwardLatency) {
  // EB0 passes the anti-token combinationally: emitted at cycle 0, it kills
  // the source's token in the same cycle (with an EB it would take a cycle).
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb0 = nl.make<ElasticBuffer0>("eb0", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, TokenSink::Gate{}, 1,
                                  [](std::uint64_t c) { return c == 0; });
  const ChannelId up = nl.connect(src, 0, eb0, 0);
  nl.connect(eb0, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.step();
  EXPECT_EQ(s.channelStats(up).kills, 1u);  // killed at cycle 0, upstream
  s.run(9);
  EXPECT_EQ(receivedValues(s, sink), iota(8, 1));
}

TEST(ElasticBuffer0, FullThroughput) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb0 = nl.make<ElasticBuffer0>("eb0", 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, eb0, 0);
  nl.connect(eb0, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(20);
  EXPECT_EQ(receivedValues(s, sink), iota(19));  // Lf=1, then 1 token/cycle
}

TEST(ElasticBuffer0, CapacityOneUnderBackpressure) {
  // C = Lf + Lb = 1: with a blocked sink only one token can enter, and the
  // combinational stop (Lb=0) holds the sender without loss.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb0 = nl.make<ElasticBuffer0>("eb0", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, [](std::uint64_t c) { return c >= 5; });
  const ChannelId up = nl.connect(src, 0, eb0, 0);
  nl.connect(eb0, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(5);
  EXPECT_EQ(s.channelStats(up).fwdTransfers, 1u);
  s.run(10);
  EXPECT_EQ(receivedValues(s, sink), iota(10));  // nothing lost once unblocked
}

TEST(BrokenBuffer, ViolatingCapacityTheoremLosesTokens) {
  // C=1 with a registered (Lb=1-style) stop violates C >= Lf+Lb (paper §3.2):
  // the sender overruns the slot and a token is overwritten.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& bad = nl.make<BrokenBuffer>("bad", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, [](std::uint64_t c) { return c >= 4; });
  nl.connect(src, 0, bad, 0);
  nl.connect(bad, 0, sink, 0);

  sim::Simulator s(nl, {.checkProtocol = false});
  test::logSinks(s);
  s.run(20);
  const auto vals = receivedValues(s, sink);
  ASSERT_FALSE(vals.empty());
  // The stream has a gap: token(s) lost to the overrun.
  EXPECT_NE(vals, iota(vals.size()));
}

TEST(ElasticBuffer, ChainPreservesStreamUnderRandomStalls) {
  // Longer pipeline with pseudo-random sink readiness: in-order, lossless.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb1 = nl.make<ElasticBuffer>("eb1", 8);
  auto& eb2 = nl.make<ElasticBuffer>("eb2", 8);
  auto& eb3 = nl.make<ElasticBuffer0>("eb3", 8);
  auto& sink = nl.make<TokenSink>(
      "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 600, 11); });
  nl.connect(src, 0, eb1, 0);
  nl.connect(eb1, 0, eb2, 0);
  nl.connect(eb2, 0, eb3, 0);
  nl.connect(eb3, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(200);
  const auto vals = receivedValues(s, sink);
  EXPECT_GT(vals.size(), 50u);
  EXPECT_EQ(vals, iota(vals.size()));
}

}  // namespace
}  // namespace esl
