#include "verify/checker.h"

#include <gtest/gtest.h>

#include "netlist/patterns.h"
#include "test_util.h"

namespace esl {
namespace {

/// src(nondet) -> buffer -> sink(nondet) harness for controller verification.
template <typename Buffer, typename... Args>
Netlist bufferHarness(bool sinkEmitsAnti, Args&&... args) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  auto& buf = nl.make<Buffer>("buf", 1u, std::forward<Args>(args)...);
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2, sinkEmitsAnti);
  nl.connect(src, 0, buf, 0, "up");
  nl.connect(buf, 0, sink, 0, "down");
  return nl;
}

TEST(Verify, ElasticBufferSatisfiesSelfProtocol) {
  Netlist nl = bufferHarness<ElasticBuffer>(false);
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_FALSE(report.explore.truncated);
  EXPECT_GT(report.explore.states, 2u);
  EXPECT_GE(report.propertiesChecked, 8u);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, ElasticBufferWithAntiTokensSatisfiesSelfProtocol) {
  Netlist nl = bufferHarness<ElasticBuffer>(true);
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, ElasticBuffer0SatisfiesSelfProtocol) {
  Netlist nl = bufferHarness<ElasticBuffer0>(true);
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, ForkSatisfiesSelfProtocol) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1);
  auto& eb = nl.make<ElasticBuffer>("eb", 1);
  auto& fork = nl.make<ForkNode>("fork", 1, 2);
  auto& s0 = nl.make<NondetSink>("env.s0", 1, 2);
  auto& s1 = nl.make<NondetSink>("env.s1", 1, 2);
  nl.connect(src, 0, eb, 0, "up");
  nl.connect(eb, 0, fork, 0, "stem");
  nl.connect(fork, 0, s0, 0, "br0");
  nl.connect(fork, 1, s1, 0, "br1");
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, JoinSatisfiesSelfProtocol) {
  Netlist nl;
  auto& a = nl.make<NondetSource>("env.a", 1);
  auto& b = nl.make<NondetSource>("env.b", 1);
  auto& join = nl.make<FuncNode>("join", std::vector<unsigned>{1, 1}, 1,
                                 [](const std::vector<BitVec>& in) {
                                   return in[0] ^ in[1];
                                 });
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(a, 0, join, 0, "ina");
  nl.connect(b, 0, join, 1, "inb");
  nl.connect(join, 0, sink, 0, "out");
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

/// The full Fig. 4 composition in its generation-aligned form (as in
/// Fig. 1d): one nondet source whose payload bit doubles as the select,
/// forked to both shared-module inputs and the mux select. Alignment keeps
/// the outstanding-anti-token count — and hence the state space — bounded.
Netlist sharedMuxHarness(std::unique_ptr<sched::Scheduler> sched) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 1, 2, /*dataBits=*/1);
  auto& fork = nl.make<ForkNode>("fork", 1, 3);
  auto& shared = nl.make<SharedModule>(
      "shared", 2, 1, 1, [](const BitVec& x) { return x; }, std::move(sched));
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

TEST(Verify, SharedModuleWithEeMuxSatisfiesSelfProtocol) {
  // §4.2: "all controllers comply with the SELF protocol"; shared-module
  // outputs are exempt from Retry+ persistence (non-persistent by design).
  Netlist nl = sharedMuxHarness(std::make_unique<sched::BoundedFairScheduler>(2));
  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_FALSE(report.explore.truncated);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, LeadsToHoldsForBoundedFairScheduler) {
  // §4.2: a shared module with any leads-to scheduler serves or kills every
  // arriving token (the refinement argument, checked explicitly here).
  Netlist nl = sharedMuxHarness(std::make_unique<sched::BoundedFairScheduler>(2));
  Node* shared = nl.findNode("shared");
  ASSERT_NE(shared, nullptr);
  const auto report = verify::checkSchedulerLeadsTo(nl, shared->id());
  EXPECT_EQ(report.propertiesChecked, 2u);
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, LeadsToHoldsForDemandCorrectingStatic) {
  Netlist nl = sharedMuxHarness(std::make_unique<sched::StaticScheduler>(2, 0));
  Node* shared = nl.findNode("shared");
  const auto report = verify::checkSchedulerLeadsTo(nl, shared->id());
  EXPECT_TRUE(report.ok()) << report.firstViolation();
}

TEST(Verify, StarvingSchedulerViolatesLeadsTo) {
  // Negative test (paper §4.1.1: "starvation of some channels must be
  // avoided"): a scheduler that never corrects starves channel 1.
  Netlist nl = sharedMuxHarness(std::make_unique<sched::StarvingScheduler>(2));
  Node* shared = nl.findNode("shared");
  const auto report = verify::checkSchedulerLeadsTo(nl, shared->id());
  EXPECT_FALSE(report.ok());
}

TEST(Verify, DeadJoinInputViolatesLiveness) {
  // A join whose second input never produces: no transfer is ever possible.
  Netlist nl;
  auto& a = nl.make<NondetSource>("env.a", 1);
  auto& dead = nl.make<TokenSource>(
      "dead", 1, [](std::uint64_t) -> std::optional<BitVec> { return std::nullopt; });
  auto& join = nl.make<FuncNode>("join", std::vector<unsigned>{1, 1}, 1,
                                 [](const std::vector<BitVec>& in) { return in[0]; });
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(a, 0, join, 0, "ina");
  nl.connect(dead, 0, join, 1, "inb");
  nl.connect(join, 0, sink, 0, "out");

  const auto report = verify::checkSelfProtocol(nl);
  EXPECT_FALSE(report.ok());  // liveness + deadlock both fail
}

TEST(Verify, ExplorationIsExhaustiveAndSmall) {
  Netlist nl = bufferHarness<ElasticBuffer>(false);
  verify::ModelChecker mc(nl);
  const auto result = mc.explore();
  EXPECT_FALSE(result.truncated);
  // 2 choice bits/cycle, EB with <=2 tokens + env bits: a handful of states.
  EXPECT_LT(result.states, 64u);
  EXPECT_EQ(result.transitions, result.states * 4);
}

TEST(Verify, TruncationReported) {
  Netlist nl = bufferHarness<ElasticBuffer>(true);
  verify::CheckerOptions opts;
  opts.maxStates = 3;
  verify::ModelChecker mc(nl, opts);
  const auto result = mc.explore();
  EXPECT_TRUE(result.truncated);
}

TEST(Verify, LabelsRegisteredAfterExploreAreRejected) {
  // The explored graph only stores bits for labels that existed at explore()
  // time; querying a later registration must throw, not read stale words.
  Netlist nl = bufferHarness<ElasticBuffer>(false);
  verify::ModelChecker mc(nl);
  mc.addLabel("early", [](const SimContext&) { return true; });
  mc.explore();
  mc.addLabel("late", [](const SimContext&) { return true; });
  EXPECT_TRUE(mc.checkNever("early").has_value());  // fires on every edge
  EXPECT_THROW(mc.checkNever("late"), EslError);
}

TEST(Verify, TooManyChoiceBitsRejected) {
  Netlist nl;
  auto& src = nl.make<NondetSource>("s", 1, 2, /*dataBits=*/1);
  auto& sink = nl.make<NondetSink>("k", 1, 2, true);
  nl.connect(src, 0, sink, 0, "ch");
  verify::CheckerOptions opts;
  opts.maxChoiceBits = 2;  // the pair needs 2 + 2
  verify::ModelChecker mc(nl, opts);
  EXPECT_THROW(mc.explore(), EslError);
}

TEST(Verify, RuntimeMonitorCatchesBrokenBufferPersistence) {
  // The BrokenBuffer overwrites a stalled token: the data changes during a
  // Retry+ cycle, which the runtime protocol monitor must flag.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& bad = nl.make<BrokenBuffer>("bad", 8);
  auto& sink = nl.make<TokenSink>("sink", 8, [](std::uint64_t c) { return c >= 6; });
  nl.connect(src, 0, bad, 0);
  nl.connect(bad, 0, sink, 0);

  sim::Simulator s(nl, {.checkProtocol = true, .throwOnViolation = false});
  s.run(20);
  bool foundPersistenceViolation = false;
  for (const std::string& v : s.ctx().protocolViolations())
    if (v.find("persistence") != std::string::npos) foundPersistenceViolation = true;
  EXPECT_TRUE(foundPersistenceViolation);
}

TEST(Verify, Table1SystemDeterministicExploration) {
  // A fully deterministic netlist explores as a single chain of states.
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  verify::ModelChecker mc(sys.nl);
  const auto result = mc.explore();
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.transitions, result.states);  // one successor per state
}

// ---------------------------------------------------------------------------
// Truncated graphs must not certify liveness-class properties
// ---------------------------------------------------------------------------

TEST(Verify, TruncatedGraphRefusesToCertifyProperties) {
  // Regression: checkRecurrence/checkLeadsTo/checkAlwaysReachable used to
  // run their fixpoints on the partial graph and could return "pass" (or a
  // phantom dead state) when the missing suffix held the counterexample; the
  // safety checks could certify a clean prefix the same way.
  Netlist nl = bufferHarness<ElasticBuffer>(true);
  verify::CheckerOptions opts;
  opts.maxStates = 3;
  verify::ModelChecker mc(nl, opts);
  mc.addLabel("progress", [](const SimContext&) { return false; });
  const auto result = mc.explore();
  ASSERT_TRUE(result.truncated);

  const auto recurrence = mc.checkRecurrence("progress");
  ASSERT_TRUE(recurrence.has_value());
  EXPECT_TRUE(recurrence->inconclusive);
  EXPECT_NE(recurrence->diagnostic.find("inconclusive"), std::string::npos);
  EXPECT_NE(recurrence->diagnostic.find("truncated"), std::string::npos);
  EXPECT_TRUE(recurrence->combos.empty());  // no counterexample attached

  const auto leadsTo = mc.checkLeadsTo("progress", "progress");
  ASSERT_TRUE(leadsTo.has_value());
  EXPECT_TRUE(leadsTo->inconclusive);

  const auto reachable = mc.checkAlwaysReachable("progress");
  ASSERT_TRUE(reachable.has_value());
  EXPECT_TRUE(reachable->inconclusive);

  // Safety checks: a clean explored prefix must NOT read as a pass either
  // ("progress" never fires, so no violation exists in the prefix).
  const auto never = mc.checkNever("progress");
  ASSERT_TRUE(never.has_value());
  EXPECT_TRUE(never->inconclusive);
  const auto step = mc.checkStep("progress", "progress");
  ASSERT_TRUE(step.has_value());
  EXPECT_TRUE(step->inconclusive);
}

TEST(Verify, TruncatedSuiteReportsInconclusiveNotOk) {
  Netlist nl = bufferHarness<ElasticBuffer>(true);
  verify::CheckerOptions opts;
  opts.maxStates = 3;
  const auto report = verify::checkSelfProtocol(nl, opts);
  ASSERT_TRUE(report.explore.truncated);
  EXPECT_FALSE(report.ok());
  bool sawInconclusive = false;
  for (const auto& v : report.violations) sawInconclusive |= v.inconclusive;
  EXPECT_TRUE(sawInconclusive);
}

// ---------------------------------------------------------------------------
// Counterexample traces: replayable paths (and lassos for liveness)
// ---------------------------------------------------------------------------

TEST(Verify, StarvingSchedulerViolationCarriesReplayableLasso) {
  Netlist nl = sharedMuxHarness(std::make_unique<sched::StarvingScheduler>(2));
  Node* shared = nl.findNode("shared");
  const auto report = verify::checkSchedulerLeadsTo(nl, shared->id());
  ASSERT_FALSE(report.ok());
  const verify::Violation& v = report.violations.front();
  EXPECT_FALSE(v.inconclusive);
  EXPECT_EQ(v.property.find("G("), 0u);
  // Path + lasso shape: k combos drive k edges through k+1 states from the
  // initial state, with the lasso re-entry inside the trace.
  ASSERT_GE(v.states.size(), 2u);
  EXPECT_EQ(v.states.size(), v.combos.size() + 1);
  EXPECT_EQ(v.states.front(), 0u);
  ASSERT_NE(v.lassoStart, verify::Violation::kNoLasso);
  EXPECT_LT(v.lassoStart, v.states.size());
  EXPECT_EQ(v.states[v.lassoStart], v.states.back());  // the cycle closes
  // checkSchedulerLeadsTo replay-validated the trace before reporting it
  // (InternalError otherwise), so reaching this point certifies the trace.
}

TEST(Verify, DeadlockViolationTraceLeadsToDeadState) {
  Netlist nl;
  auto& a = nl.make<NondetSource>("env.a", 1);
  auto& dead = nl.make<TokenSource>(
      "dead", 1, [](std::uint64_t) -> std::optional<BitVec> { return std::nullopt; });
  auto& join = nl.make<FuncNode>("join", std::vector<unsigned>{1, 1}, 1,
                                 [](const std::vector<BitVec>& in) { return in[0]; });
  auto& sink = nl.make<NondetSink>("env.sink", 1, 2);
  nl.connect(a, 0, join, 0, "ina");
  nl.connect(dead, 0, join, 1, "inb");
  nl.connect(join, 0, sink, 0, "out");

  const auto report = verify::checkSelfProtocol(nl);
  ASSERT_FALSE(report.ok());
  for (const auto& v : report.violations) {
    EXPECT_FALSE(v.inconclusive);
    EXPECT_EQ(v.states.size(), v.combos.size() + 1);
    EXPECT_EQ(v.states.front(), 0u);
  }
}

}  // namespace
}  // namespace esl
