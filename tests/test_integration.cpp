// End-to-end tests of the two §5 case studies: the variable-latency ALU
// (Fig. 6) and the SECDED resilient adder (Fig. 7).
#include <gtest/gtest.h>

#include "netlist/patterns.h"
#include "perf/area.h"
#include "perf/throughput.h"
#include "perf/timing.h"
#include "sim/equiv.h"
#include "test_util.h"

namespace esl {
namespace {

using test::receivedCycles;
using test::receivedValues;

// ---------------------------------------------------------------------------
// §5.1 variable-latency ALU
// ---------------------------------------------------------------------------

class VluErrorRateTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(VluErrorRateTest, StallingUnitIsFunctionallyExact) {
  patterns::VluConfig cfg;
  cfg.errPermille = GetParam();
  auto sys = patterns::buildStallingVlu(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(400);
  const auto vals = receivedValues(s, *sys.sink);
  const auto golden = patterns::vluGolden(cfg, vals.size());
  ASSERT_GT(vals.size(), 100u);
  EXPECT_EQ(vals, golden);
}

TEST_P(VluErrorRateTest, SpeculativeUnitIsFunctionallyExact) {
  patterns::VluConfig cfg;
  cfg.errPermille = GetParam();
  auto sys = patterns::buildSpeculativeVlu(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(400);
  const auto vals = receivedValues(s, *sys.sink);
  const auto golden = patterns::vluGolden(cfg, vals.size());
  ASSERT_GT(vals.size(), 100u);
  EXPECT_EQ(vals, golden);
}

TEST_P(VluErrorRateTest, BothVariantsAreTransferEquivalent) {
  patterns::VluConfig cfg;
  cfg.errPermille = GetParam();
  auto a = patterns::buildStallingVlu(cfg);
  auto b = patterns::buildSpeculativeVlu(cfg);
  const auto r = sim::transferEquivalent(a.nl, b.nl, 300, 100);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

TEST_P(VluErrorRateTest, ThroughputMatchesErrorRateModel) {
  // Each error costs exactly one extra cycle in both designs.
  patterns::VluConfig cfg;
  cfg.errPermille = GetParam();
  const double expected = 1000.0 / (1000.0 + cfg.errPermille);

  auto stall = patterns::buildStallingVlu(cfg);
  sim::Simulator ss(stall.nl);
  ss.run(2000);
  EXPECT_NEAR(ss.throughput(stall.outChannel), expected, 0.03) << "stalling";

  auto spec = patterns::buildSpeculativeVlu(cfg);
  sim::Simulator sp(spec.nl);
  sp.run(2000);
  EXPECT_NEAR(sp.throughput(spec.outChannel), expected, 0.03) << "speculative";
}

INSTANTIATE_TEST_SUITE_P(ErrorRates, VluErrorRateTest,
                         ::testing::Values(0u, 50u, 100u, 300u, 1000u));

TEST(Vlu, StallsMatchInjectedErrors) {
  patterns::VluConfig cfg;
  cfg.errPermille = 200;
  auto sys = patterns::buildStallingVlu(cfg);
  sim::Simulator s(sys.nl);
  s.run(1000);
  const double rate = static_cast<double>(sys.vlu->stalls(s.ctx())) /
                      static_cast<double>(sys.vlu->completed(s.ctx()));
  EXPECT_NEAR(rate, 0.2, 0.05);
}

TEST(Vlu, SpeculationRemovesErrFromCriticalPath) {
  // §5.1: "Ferr has become critical in the stalling unit ... but not in the
  // speculative design. The critical path is taken out of the elastic
  // controller." Cycle time must improve.
  const auto stall = patterns::buildStallingVlu();
  const auto spec = patterns::buildSpeculativeVlu();
  const double tStall = perf::analyzeTiming(stall.nl).cycleTime;
  const double tSpec = perf::analyzeTiming(spec.nl).cycleTime;
  EXPECT_LT(tSpec, tStall);
  // Paper reports ~9% effective cycle time improvement; the unit-gate model
  // should land in the same regime.
  const double gain = (tStall - tSpec) / tStall;
  EXPECT_GT(gain, 0.04);
  EXPECT_LT(gain, 0.30);
}

TEST(Vlu, SpeculationAreaOverheadComesFromEbs) {
  // §5.1 reports ~12% overhead amortized over their full pipeline after
  // synthesis; at the isolated-unit level of our structural model the
  // overhead is larger but must stay bounded and be dominated by the EBs
  // that store tokens around the shared unit.
  const auto stall = patterns::buildStallingVlu();
  const auto spec = patterns::buildSpeculativeVlu();
  const auto aStall = perf::areaReport(stall.nl);
  const auto aSpec = perf::areaReport(spec.nl);
  EXPECT_GT(aSpec.total, aStall.total);
  const double overhead = (aSpec.total - aStall.total) / aStall.total;
  EXPECT_LT(overhead, 1.0);
  // The EB contribution explains most of the delta (the paper's explanation:
  // "the area overhead is due to extra EBs storing the results after the
  // shared unit").
  const double ebDelta = aSpec.byKind.at("eb") -
                         (aStall.byKind.count("eb") ? aStall.byKind.at("eb") : 0.0);
  EXPECT_GT(ebDelta, (aSpec.total - aStall.total) * 0.5);
}

TEST(Vlu, ZeroErrorRateGivesFullThroughput) {
  patterns::VluConfig cfg;
  cfg.errPermille = 0;
  auto sys = patterns::buildSpeculativeVlu(cfg);
  sim::Simulator s(sys.nl);
  s.run(500);
  EXPECT_NEAR(s.throughput(sys.outChannel), 1.0, 0.01);
  EXPECT_EQ(sys.shared->demandCycles(s.ctx()), 0u);
}

// ---------------------------------------------------------------------------
// §5.2 SECDED resilient adder
// ---------------------------------------------------------------------------

class SecdedErrorRateTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecdedErrorRateTest, PipelineCorrectsAllSingleErrors) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = GetParam();
  auto sys = patterns::buildSecdedPipeline(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(300);
  const auto vals = receivedValues(s, *sys.sink);
  ASSERT_GT(vals.size(), 100u);
  EXPECT_EQ(vals, patterns::secdedGolden(cfg, vals.size()));
}

TEST_P(SecdedErrorRateTest, SpeculativeCorrectsAllSingleErrors) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = GetParam();
  auto sys = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(300);
  const auto vals = receivedValues(s, *sys.sink);
  ASSERT_GT(vals.size(), 100u);
  EXPECT_EQ(vals, patterns::secdedGolden(cfg, vals.size()));
}

TEST_P(SecdedErrorRateTest, VariantsAreTransferEquivalent) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = GetParam();
  auto a = patterns::buildSecdedPipeline(cfg);
  auto b = patterns::buildSecdedSpeculative(cfg);
  const auto r = sim::transferEquivalent(a.nl, b.nl, 250, 80);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(FlipRates, SecdedErrorRateTest,
                         ::testing::Values(0u, 30u, 100u, 400u));

TEST(Secded, SpeculationRemovesThePipelineStage) {
  // §5.2: "SECDED needs a whole pipeline stage, and thus, the pipeline is
  // deeper" — speculation starts the addition without waiting.
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 0;
  auto pipe = patterns::buildSecdedPipeline(cfg);
  auto spec = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator sp(pipe.nl), ss(spec.nl);
  test::logSinks(sp);
  test::logSinks(ss);
  sp.run(20);
  ss.run(20);
  // First sum arrives one stage earlier in the speculative design.
  EXPECT_EQ(receivedCycles(ss, *spec.sink).front() + 1,
            receivedCycles(sp, *pipe.sink).front());
}

TEST(Secded, NoPenaltyWhenErrorFree) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 0;
  auto sys = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator s(sys.nl);
  s.run(500);
  EXPECT_NEAR(s.throughput(sys.outChannel), 1.0, 0.01);
  EXPECT_EQ(sys.shared->demandCycles(s.ctx()), 0u);
}

TEST(Secded, OneCycleLostPerError) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 250;  // ~44% of pairs have at least one flipped word
  auto sys = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator s(sys.nl);
  s.run(2000);
  const double tput = s.throughput(sys.outChannel);
  // Expected: 1/(1+p_pair) with p_pair = 1-(1-0.25)^2 = 0.4375.
  EXPECT_NEAR(tput, 1.0 / 1.4375, 0.03);
  EXPECT_GT(sys.shared->demandCycles(s.ctx()), 300u);
}

TEST(Secded, AreaOverheadOnTheProtectedStage) {
  // §5.2: ~36% overhead on the stage, dominated by the recovery EBs.
  const auto pipe = patterns::buildSecdedPipeline();
  const auto spec = patterns::buildSecdedSpeculative();
  const double aPipe = perf::areaReport(pipe.nl).total;
  const double aSpec = perf::areaReport(spec.nl).total;
  EXPECT_GT(aSpec, aPipe * 1.05);
  EXPECT_LT(aSpec, aPipe * 1.80);
}

TEST(Secded, ProtocolCleanUnderErrors) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 300;
  auto sys = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(500);
  EXPECT_TRUE(s.ctx().protocolViolations().empty());
}

TEST(Secded, TradeoffUnderModerateErrors) {
  // The paper's trade: the non-speculative pipeline keeps throughput 1 but is
  // one stage deeper on EVERY operation; speculation removes the stage and
  // pays one replay cycle per detected error.
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 100;  // ~19% of pairs flagged
  auto pipe = patterns::buildSecdedPipeline(cfg);
  auto spec = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator sp(pipe.nl), ss(spec.nl);
  test::logSinks(sp);
  test::logSinks(ss);
  sp.run(1000);
  ss.run(1000);
  EXPECT_NEAR(sp.throughput(pipe.outChannel), 1.0, 0.01);
  const double pErr = 1.0 - 0.9 * 0.9;
  EXPECT_NEAR(ss.throughput(spec.outChannel), 1.0 / (1.0 + pErr), 0.03);
  // Latency advantage: the speculative sink sees its first sum a cycle early.
  EXPECT_LT(receivedCycles(ss, *spec.sink).front(),
            receivedCycles(sp, *pipe.sink).front());
}

}  // namespace
}  // namespace esl
