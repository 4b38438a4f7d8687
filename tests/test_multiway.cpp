// The paper (§4.1): "The consideration below can be easily generalized for
// sharing of k blocks" / "The implementation of the controller can be
// trivially extended to handle more than two channels." These tests exercise
// the k=3 and k=4 cases end to end.
#include <gtest/gtest.h>

#include "test_util.h"
#include "verify/checker.h"

namespace esl {
namespace {

using test::receivedCycles;
using test::receivedValues;

/// Open k-way system in the style of Table 1: k operand streams, an
/// independent select stream, one shared block, one early-evaluation mux.
struct KWay {
  Netlist nl;
  SharedModule* shared = nullptr;
  EarlyEvalMux* mux = nullptr;
  TokenSink* sink = nullptr;
};

KWay buildKWay(unsigned k, std::vector<std::uint64_t> selStream,
               std::unique_ptr<sched::Scheduler> sched) {
  KWay s;
  const unsigned selW = 2;
  s.shared = &s.nl.make<SharedModule>(
      "F", k, 8, 8, [](const BitVec& x) { return x; }, std::move(sched));
  s.mux = &s.nl.make<EarlyEvalMux>("mux", k, selW, 8);
  s.sink = &s.nl.make<TokenSink>("sink", 8);
  for (unsigned i = 0; i < k; ++i) {
    auto& src = s.nl.make<TokenSource>("src" + std::to_string(i), 8,
                                       TokenSource::counting(8, 10 + 50 * i));
    s.nl.connect(src, 0, *s.shared, i, "in" + std::to_string(i));
    s.nl.connect(*s.shared, i, *s.mux, 1 + i, "out" + std::to_string(i));
  }
  auto& sel = s.nl.make<TokenSource>("sel", selW,
                                     TokenSource::listOf(std::move(selStream), selW));
  s.nl.connect(sel, 0, *s.mux, 0, "sel");
  s.nl.connect(*s.mux, 0, *s.sink, 0, "out");
  s.nl.validate();
  return s;
}

TEST(ThreeWay, RoundRobinServesAllChannels) {
  auto sys =
      buildKWay(3, {0, 1, 2, 0, 1, 2}, std::make_unique<sched::RoundRobinScheduler>(3));
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  s.run(20);
  const auto vals = receivedValues(s, *sys.sink);
  ASSERT_EQ(vals.size(), 6u);
  // Round-robin prediction matches the 0,1,2 select pattern perfectly:
  // every firing takes the head of its stream; each firing also kills the
  // aligned tokens on the two non-selected streams.
  EXPECT_EQ(vals, (std::vector<std::uint64_t>{10, 61, 112, 13, 64, 115}));
}

TEST(ThreeWay, EveryFiringKillsBothOtherStreams) {
  auto sys = buildKWay(3, {0, 0, 0, 0}, std::make_unique<sched::StaticScheduler>(3, 0));
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  s.run(10);
  EXPECT_EQ(receivedValues(s, *sys.sink), (std::vector<std::uint64_t>{10, 11, 12, 13}));
  // 2 anti-tokens per firing.
  EXPECT_EQ(sys.mux->antiTokensEmitted(s.ctx()), 8u);
}

TEST(ThreeWay, MispredictionCorrectsToDemandedChannel) {
  auto sys = buildKWay(3, {2, 2}, std::make_unique<sched::StaticScheduler>(3, 0));
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  s.run(8);
  const auto vals = receivedValues(s, *sys.sink);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], 110u);  // channel 2 after a one-cycle correction
  EXPECT_EQ(vals[1], 111u);
  EXPECT_EQ(receivedCycles(s, *sys.sink)[0], 1u);  // cycle 0 was the mispredict
}

TEST(FourWay, SelectOutOfRangeStillChecked) {
  auto sys = buildKWay(4, {3, 0, 3}, std::make_unique<sched::LastServedScheduler>(4));
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  s.run(12);
  const auto vals = receivedValues(s, *sys.sink);
  ASSERT_EQ(vals.size(), 3u);
  // Each firing consumes one generation from EVERY stream (the non-selected
  // ones via anti-token kills), so the streams advance in lockstep.
  EXPECT_EQ(vals[0], 160u);  // gen 1 from channel 3
  EXPECT_EQ(vals[1], 11u);   // gen 2 from channel 0 (10 was killed by gen 1)
  EXPECT_EQ(vals[2], 162u);  // gen 3 from channel 3 (161 killed by gen 2)
}

TEST(FourWay, LeadsToHoldsWithBoundedFairScheduler) {
  // Model-check the k=4 composition in its aligned form: one nondet source
  // whose 2-bit payload is the select, forked to all four shared inputs.
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 2, 2, /*dataBits=*/2);
  auto& fork = nl.make<ForkNode>("fork", 2, 5);
  auto& shared = nl.make<SharedModule>(
      "shared", 4, 2, 2, [](const BitVec& x) { return x; },
      std::make_unique<sched::BoundedFairScheduler>(4));
  auto& mux = nl.make<EarlyEvalMux>("mux", 4, 2, 2);
  auto& sink = nl.make<NondetSink>("env.sink", 2, 2);
  nl.connect(src, 0, fork, 0, "stem");
  for (unsigned i = 0; i < 4; ++i) {
    nl.connect(fork, i, shared, i, "in" + std::to_string(i));
    nl.connect(shared, i, mux, 1 + i, "out" + std::to_string(i));
  }
  nl.connect(fork, 4, mux, 0, "sel");
  nl.connect(mux, 0, sink, 0, "muxout");

  const auto report = verify::checkSchedulerLeadsTo(nl, shared.id());
  EXPECT_EQ(report.propertiesChecked, 4u);
  EXPECT_FALSE(report.explore.truncated);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(ThreeWay, StarvingSchedulerStillCaughtAtK3) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1, 2, /*dataBits=*/1);
  auto& fork = nl.make<ForkNode>("fork", 1, 4);
  auto& shared = nl.make<SharedModule>(
      "shared", 3, 1, 1, [](const BitVec& x) { return x; },
      std::make_unique<sched::StarvingScheduler>(3));
  auto& mux = nl.make<EarlyEvalMux>("mux", 3, 1, 1);
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(src, 0, fork, 0, "stem");
  for (unsigned i = 0; i < 3; ++i) {
    nl.connect(fork, i, shared, i, "in" + std::to_string(i));
    nl.connect(shared, i, mux, 1 + i, "out" + std::to_string(i));
  }
  nl.connect(fork, 3, mux, 0, "sel");
  nl.connect(mux, 0, sink, 0, "muxout");

  const auto report = verify::checkSchedulerLeadsTo(nl, shared.id());
  EXPECT_FALSE(report.ok());  // channels 1 and 2 starve
}

}  // namespace
}  // namespace esl
