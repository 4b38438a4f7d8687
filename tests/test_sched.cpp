// Unit tests for the scheduler library (paper §4.1.1), exercised directly
// through the Scheduler interface (no netlist).
#include "sched/scheduler.h"

#include <gtest/gtest.h>

namespace esl::sched {
namespace {

const ChoiceReader kNoChoice = [](unsigned) { return false; };

/// A scheduler and the state words a shared module's record would hold.
struct Driven {
  explicit Driven(const Scheduler& policy)
      : s(policy), state(policy.stateWords()) {
    s.reset(state.data());
  }
  unsigned predict(const ChoiceReader& choice = kNoChoice) const {
    return s.predict(state.data(), choice);
  }
  void observe(const Observation& o) { s.observe(state.data(), o); }

  const Scheduler& s;
  std::vector<std::uint64_t> state;
};

/// The Observation mask with channel `i` set.
constexpr std::uint64_t ch(unsigned i) { return std::uint64_t{1} << i; }

TEST(StaticScheduler, AlwaysPredictsPick) {
  const StaticScheduler policy(2, 1);
  Driven s(policy);
  EXPECT_EQ(s.predict(), 1u);
  Observation o;
  o.served = ch(1);
  s.observe(o);
  EXPECT_EQ(s.predict(), 1u);
}

TEST(StaticScheduler, PickOutOfRangeThrows) {
  EXPECT_THROW(StaticScheduler(2, 2), EslError);
}

TEST(StaticScheduler, DemandLocksUntilServed) {
  const StaticScheduler policy(2, 0);
  Driven s(policy);
  Observation demand1;
  demand1.demand = ch(1);
  s.observe(demand1);
  EXPECT_EQ(s.predict(), 1u);  // corrected
  // Not served yet: the lock holds even over idle cycles.
  s.observe({});
  EXPECT_EQ(s.predict(), 1u);
  Observation served1;
  served1.served = ch(1);
  s.observe(served1);
  EXPECT_EQ(s.predict(), 0u);  // back to the base pick
}

TEST(StaticScheduler, KillReleasesTheLock) {
  const StaticScheduler policy(2, 0);
  Driven s(policy);
  Observation demand1;
  demand1.demand = ch(1);
  s.observe(demand1);
  Observation killed1;
  killed1.killed = ch(1);
  s.observe(killed1);
  EXPECT_EQ(s.predict(), 0u);
}

TEST(StaticScheduler, FalseDemandAgesOut) {
  // A demand that is never served or killed (back-pressure from a full EB
  // masquerading as a demand) must not wedge the scheduler forever.
  const StaticScheduler policy(2, 0);
  Driven s(policy);
  Observation demand1;
  demand1.demand = ch(1);
  s.observe(demand1);
  EXPECT_EQ(s.predict(), 1u);
  for (int i = 0; i < 10; ++i) s.observe({});
  EXPECT_EQ(s.predict(), 0u);  // lock released
}

TEST(RoundRobinScheduler, AlternatesEveryCycle) {
  const RoundRobinScheduler policy(2);
  Driven s(policy);
  EXPECT_EQ(s.predict(), 0u);
  s.observe({});
  EXPECT_EQ(s.predict(), 1u);
  s.observe({});
  EXPECT_EQ(s.predict(), 0u);
}

TEST(RoundRobinScheduler, DemandReanchorsRotation) {
  // This is exactly the Sched row of Table 1.
  const RoundRobinScheduler policy(2);
  Driven s(policy);
  const bool demandAt[] = {false, false, true, false, false, true, false};
  const unsigned expect[] = {0, 1, 0, 1, 0, 1, 0};
  const bool servedAt[] = {true, true, false, true, true, false, true};
  for (int c = 0; c < 7; ++c) {
    EXPECT_EQ(s.predict(), expect[c]) << "cycle " << c;
    Observation o;
    if (demandAt[c]) o.demand = ch(1 - expect[c]);
    if (servedAt[c]) o.served = ch(expect[c]);
    s.observe(o);
  }
}

TEST(LastServedScheduler, TracksLastService) {
  const LastServedScheduler policy(2);
  Driven s(policy);
  EXPECT_EQ(s.predict(), 0u);
  Observation o;
  o.served = ch(1);
  s.observe(o);
  EXPECT_EQ(s.predict(), 1u);
  s.observe({});
  EXPECT_EQ(s.predict(), 1u);  // sticky until contradicted
}

TEST(TwoBitScheduler, SaturatesLikeABranchPredictor) {
  const TwoBitScheduler policy;
  Driven s(policy);
  EXPECT_EQ(s.predict(), 0u);  // weakly 0 initially
  Observation serve1;
  serve1.served = ch(1);
  s.observe(serve1);  // counter 1 -> 2
  EXPECT_EQ(s.predict(), 1u);
  Observation serve0;
  serve0.served = ch(0);
  s.observe(serve0);  // 2 -> 1
  EXPECT_EQ(s.predict(), 0u);
  // One stray service does not flip a saturated counter.
  s.observe(serve0);  // 1 -> 0
  s.observe(serve1);  // 0 -> 1
  EXPECT_EQ(s.predict(), 0u);
}

TEST(OracleScheduler, FollowsTruthPerFiring) {
  const OracleScheduler policy(2, [](std::uint64_t k) { return unsigned(k % 2); });
  Driven s(policy);
  EXPECT_EQ(s.predict(), 0u);
  Observation o;
  o.served = ch(0);
  s.observe(o);
  EXPECT_EQ(s.predict(), 1u);
  // No service -> prediction does not advance.
  s.observe({});
  EXPECT_EQ(s.predict(), 1u);
}

TEST(TimeoutScheduler, RotatesOnlyWhenWorkIsStuck) {
  const TimeoutScheduler policy(2, 1);
  Driven s(policy);
  EXPECT_EQ(s.predict(), 0u);
  // Idle (no valid input): never rotates.
  for (int i = 0; i < 5; ++i) s.observe({});
  EXPECT_EQ(s.predict(), 0u);
  // Valid work but nothing served: rotates after the timeout.
  Observation stuck;
  stuck.valid = ch(1);
  s.observe(stuck);
  EXPECT_EQ(s.predict(), 0u);  // within timeout
  s.observe(stuck);
  EXPECT_EQ(s.predict(), 1u);  // rotated
}

TEST(TimeoutScheduler, ServiceResetsTheTimer) {
  const TimeoutScheduler policy(2, 1);
  Driven s(policy);
  Observation busy;
  busy.valid = ch(0) | ch(1);
  busy.served = ch(0);
  for (int i = 0; i < 6; ++i) s.observe(busy);
  EXPECT_EQ(s.predict(), 0u);  // kept serving channel 0
}

TEST(BoundedFairScheduler, ChoiceBitsDrivePrediction) {
  const BoundedFairScheduler policy(2);
  Driven s(policy);
  EXPECT_EQ(policy.choiceBits(), 1u);
  EXPECT_EQ(s.predict([](unsigned) { return false; }), 0u);
  EXPECT_EQ(s.predict([](unsigned) { return true; }), 1u);
}

TEST(Schedulers, StatePackUnpackRoundTrip) {
  const RoundRobinScheduler policy(2);
  Driven a(policy);
  Observation o;
  o.demand = ch(1);
  a.observe(o);

  StateWriter w;
  policy.packState(a.state.data(), w);
  const auto bytes = w.take();

  Driven b(policy);
  StateReader r(bytes);
  policy.unpackState(b.state.data(), r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a.predict(), b.predict());
}

TEST(Schedulers, Names) {
  EXPECT_EQ(StaticScheduler(2, 0).name(), "static");
  EXPECT_EQ(RoundRobinScheduler(2).name(), "round-robin");
  EXPECT_EQ(LastServedScheduler(2).name(), "last-served");
  EXPECT_EQ(TwoBitScheduler().name(), "two-bit");
  EXPECT_EQ(TimeoutScheduler(2).name(), "timeout");
  EXPECT_EQ(BoundedFairScheduler(2).name(), "bounded-fair");
  EXPECT_EQ(StarvingScheduler(2).name(), "starving");
}

}  // namespace
}  // namespace esl::sched
