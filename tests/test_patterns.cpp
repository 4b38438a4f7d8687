// Tests of the reusable paper topologies and their golden reference models.
#include "netlist/patterns.h"

#include <gtest/gtest.h>

#include "logic/alu.h"
#include "logic/secded.h"
#include "test_util.h"

namespace esl::patterns {
namespace {

TEST(Fig1Pc, SequenceIsDeterministicAndSteps) {
  const Fig1Config cfg;
  const auto a = fig1PcSequence(cfg, 50);
  const auto b = fig1PcSequence(cfg, 50);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 50u);
  EXPECT_EQ(a[0], cfg.pc0);
  // Consecutive PCs differ (F mixes bits and adds a step).
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_NE(a[i], a[i - 1]);
}

TEST(Fig1Pc, TakenRateChangesTheTrajectory) {
  Fig1Config lo, hi;
  lo.takenPermille = 0;
  hi.takenPermille = 1000;
  EXPECT_NE(fig1PcSequence(lo, 20), fig1PcSequence(hi, 20));
}

TEST(Fig1Build, AllVariantsValidateAndObserveTheSameStream) {
  const auto golden = fig1PcSequence({}, 40);
  for (const auto variant :
       {Fig1Variant::kNonSpeculative, Fig1Variant::kBubble, Fig1Variant::kShannon,
        Fig1Variant::kSpeculative}) {
    auto sys = buildFig1(variant);
    sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
    test::logSinks(s);
    s.run(150);
    const auto vals = test::receivedValues(s, *sys.observer);
    ASSERT_GE(vals.size(), golden.size()) << "variant " << static_cast<int>(variant);
    for (std::size_t i = 0; i < golden.size(); ++i)
      ASSERT_EQ(vals[i], golden[i]) << "variant " << static_cast<int>(variant);
  }
}

TEST(VluGolden, MatchesDirectEvaluation) {
  VluConfig cfg;
  cfg.errPermille = 150;
  const auto golden = vluGolden(cfg, 30);
  EXPECT_EQ(golden.size(), 30u);
  // Spot-check via the logic layer: golden = G(exact(op)) with G = x ^ (x>>1).
  auto sys = buildStallingVlu(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(60);
  const auto vals = test::receivedValues(s, *sys.sink);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_EQ(vals.at(i), golden[i]);
}

TEST(VluOperands, ErrorRateIsControlled) {
  // The generator hits the requested 2-cycle rate closely.
  for (const unsigned p : {0u, 100u, 500u, 1000u}) {
    VluConfig cfg;
    cfg.errPermille = p;
    auto sys = buildStallingVlu(cfg);
    sim::Simulator s(sys.nl);
    s.run(1000);
    const double measured = static_cast<double>(sys.vlu->stalls(s.ctx())) /
                            static_cast<double>(sys.vlu->completed(s.ctx()));
    EXPECT_NEAR(measured, p / 1000.0, 0.05) << "permille " << p;
  }
}

TEST(SecdedGolden, MatchesDecodedStreams) {
  SecdedConfig cfg;
  cfg.flipPermille = 300;
  const auto golden = secdedGolden(cfg, 25);
  auto sys = buildSecdedPipeline(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(40);
  const auto vals = test::receivedValues(s, *sys.sink);
  for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(vals.at(i), golden[i]);
}

TEST(SecdedSpeculative, DoubleErrorsAreDetectedNotSilent) {
  // With double flips enabled, the error detector flags the pair (the replay
  // uses the best-effort corrected word; the flag is what matters).
  SecdedConfig cfg;
  cfg.flipPermille = 0;
  cfg.doublePermille = 200;
  auto sys = buildSecdedSpeculative(cfg);
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(400);
  EXPECT_GT(sys.shared->demandCycles(s.ctx()), 50u);  // every double error replays
}

TEST(Table1Build, CustomSchedulerAndStreams) {
  auto sys = buildTable1({1, 1, 0}, 10, 20,
                         std::make_unique<sched::StaticScheduler>(2, 1));
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(8);
  const auto vals = test::receivedValues(s, *sys.sink);
  // static1 predicts channel 1: sel=1 firings immediate, sel=0 pays a demand.
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(vals[0], 20u);  // ch1 first token
  EXPECT_EQ(vals[1], 21u);
  // Each ch1 firing killed the generation-aligned ch0 token (10, then 11),
  // so the sel=0 firing after correction carries ch0's third token.
  EXPECT_EQ(vals[2], 12u);
}

TEST(Builders, CostsAndTimingAreFinite) {
  auto check = [](const Netlist& nl) {
    const auto cost = nl.totalCost();
    EXPECT_GT(cost.area, 0.0);
  };
  check(buildTable1({0}).nl);
  check(buildFig1(Fig1Variant::kSpeculative).nl);
  check(buildStallingVlu().nl);
  check(buildSpeculativeVlu().nl);
  check(buildSecdedPipeline().nl);
  check(buildSecdedSpeculative().nl);
}

TEST(OracleCache, ExtendsOnDemand) {
  // The oracle scheduler extends its PC cache lazily; a long run must not
  // run past the cache.
  Fig1Config cfg;
  cfg.scheduler = Fig1Scheduler::kOracle;
  auto sys = buildFig1(Fig1Variant::kSpeculative, cfg);
  sim::Simulator s(sys.nl);
  s.run(500);
  EXPECT_NEAR(s.throughput(sys.loopChannel), 1.0, 0.01);
}

}  // namespace
}  // namespace esl::patterns
