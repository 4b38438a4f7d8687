// Property-based randomized tests: token conservation, in-order delivery and
// protocol compliance over randomized pipelines, environments and
// transformation sequences.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "netlist/patterns.h"
#include "sim/equiv.h"
#include "test_util.h"
#include "transform/transform.h"

namespace esl {
namespace {

using test::receivedValues;

/// Random pipeline: source -> {EB | EB0 | inc-func}* -> sink with a pseudo-
/// random readiness pattern and optional anti-token injection.
struct RandomPipeline {
  Netlist nl;
  TokenSource* src = nullptr;
  TokenSink* sink = nullptr;
  unsigned increments = 0;  ///< how many +1 stages were inserted
};

RandomPipeline buildRandomPipeline(std::uint64_t seed, bool withAnti) {
  Rng rng(seed);
  RandomPipeline p;
  const unsigned stages = 1 + static_cast<unsigned>(rng.below(6));
  p.src = &p.nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  Node* prev = p.src;
  for (unsigned i = 0; i < stages; ++i) {
    Node* next = nullptr;
    switch (rng.below(3)) {
      case 0:
        next = &p.nl.make<ElasticBuffer>("eb" + std::to_string(i), 8);
        break;
      case 1:
        next = &p.nl.make<ElasticBuffer0>("eb0_" + std::to_string(i), 8);
        break;
      default:
        next = &makeUnary(p.nl, "inc" + std::to_string(i), 8, 8,
                          [](const BitVec& x) { return x + BitVec(8, 1); });
        ++p.increments;
        break;
    }
    p.nl.connect(*prev, 0, *next, 0);
    prev = next;
  }
  const unsigned readyPermille = 300 + static_cast<unsigned>(rng.below(700));
  const std::uint64_t readySalt = rng.next();
  const unsigned antiBudget = withAnti ? 1 + static_cast<unsigned>(rng.below(4)) : 0;
  const std::uint64_t antiSalt = rng.next();
  p.sink = &p.nl.make<TokenSink>(
      "sink", 8,
      [readyPermille, readySalt](std::uint64_t c) {
        return hashChancePermille(c, readyPermille, readySalt);
      },
      antiBudget,
      [antiSalt](std::uint64_t c) { return hashChancePermille(c, 100, antiSalt); });
  p.nl.connect(*prev, 0, *p.sink, 0);
  p.nl.validate();
  return p;
}

class PipelineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzzTest, InOrderLosslessDeliveryWithoutAntiTokens) {
  RandomPipeline p = buildRandomPipeline(GetParam(), /*withAnti=*/false);
  sim::Simulator s(p.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  s.run(300);
  const auto vals = receivedValues(s, *p.sink);
  ASSERT_GT(vals.size(), 50u);
  // The pipeline applies `increments` many +1 stages to a counting stream.
  for (std::size_t i = 0; i < vals.size(); ++i)
    ASSERT_EQ(vals[i], (i + p.increments) & 0xFF) << "position " << i;
  EXPECT_TRUE(s.ctx().protocolViolations().empty());
}

TEST_P(PipelineFuzzTest, TokenConservationWithAntiTokens) {
  RandomPipeline p = buildRandomPipeline(GetParam(), /*withAnti=*/true);
  sim::Simulator s(p.nl, {.checkProtocol = true, .throwOnViolation = true});
  test::logSinks(s);
  // 200 cycles keeps every observed value below the 8-bit wrap.
  s.run(200);
  const auto vals = receivedValues(s, *p.sink);
  ASSERT_GT(vals.size(), 20u);
  // Anti-tokens may remove tokens, but delivery stays in order without
  // duplication: the received stream is strictly increasing (mod wrap-free
  // prefix) over the transformed counting stream.
  for (std::size_t i = 1; i < vals.size(); ++i)
    ASSERT_GT(vals[i], vals[i - 1]) << "position " << i;
  // Conservation: received + killed-at-source <= emitted-by-generator bound.
  EXPECT_LE(p.src->killed(s.ctx()), 4u);  // at most the sink's anti budget
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 21));

class LoopTransformFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoopTransformFuzzTest, RandomBubbleInsertionPreservesLoopBehaviour) {
  // Insert a bubble on a random channel of the Fig. 1(a) loop: the PC stream
  // seen by the observer must be unchanged (possibly slower).
  const std::uint64_t seed = GetParam();
  auto reference = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
  auto mutated = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);

  const auto channels = mutated.nl.channelIds();
  Rng rng(seed);
  const ChannelId pick = channels[rng.below(channels.size())];
  transform::insertBubble(mutated.nl, pick);
  mutated.nl.validate();

  const auto r = sim::transferEquivalent(reference.nl, mutated.nl, 200, 40);
  EXPECT_TRUE(r.equivalent)
      << "bubble on " << reference.nl.channel(pick).name << ": " << r.reason;
}

TEST_P(LoopTransformFuzzTest, StackedRandomTransformationsStayEquivalent) {
  // Apply 1-3 random legal transformations to the loop and require transfer
  // equivalence throughout — "correct by construction".
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 77 + 13);
  auto reference = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
  auto mutated = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);

  const unsigned steps = 1 + static_cast<unsigned>(rng.below(3));
  for (unsigned i = 0; i < steps; ++i) {
    switch (rng.below(3)) {
      case 0: {  // bubble on a random channel
        const auto chans = mutated.nl.channelIds();
        transform::insertBubble(mutated.nl, chans[rng.below(chans.size())],
                                "fuzzbubble" + std::to_string(i));
        break;
      }
      case 1: {  // speculation recipe, if still applicable
        const auto cands = transform::findSpeculationCandidates(mutated.nl);
        if (!cands.empty())
          transform::speculate(mutated.nl, cands[0].mux, cands[0].func,
                               std::make_unique<sched::LastServedScheduler>(2));
        break;
      }
      default: {  // shannon only
        const auto cands = transform::findSpeculationCandidates(mutated.nl);
        if (!cands.empty())
          transform::shannonDecompose(mutated.nl, cands[0].mux, cands[0].func);
        break;
      }
    }
  }
  mutated.nl.validate();
  const auto r = sim::transferEquivalent(reference.nl, mutated.nl, 250, 30);
  EXPECT_TRUE(r.equivalent) << r.reason;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoopTransformFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(FuzzScheduler, AllSchedulersKeepTheLoopCorrect) {
  // The PC stream must be identical for every scheduler (prediction affects
  // timing only) and must match the analytic sequence.
  using patterns::Fig1Scheduler;
  const auto golden = patterns::fig1PcSequence({}, 80);
  for (const auto sched :
       {Fig1Scheduler::kStatic0, Fig1Scheduler::kLastServed, Fig1Scheduler::kTwoBit,
        Fig1Scheduler::kOracle, Fig1Scheduler::kRoundRobin}) {
    patterns::Fig1Config cfg;
    cfg.scheduler = sched;
    auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);
    sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
    test::logSinks(s);
    s.run(250);
    const auto vals = receivedValues(s, *sys.observer);
    ASSERT_GE(vals.size(), golden.size());
    for (std::size_t i = 0; i < golden.size(); ++i)
      ASSERT_EQ(vals[i], golden[i]) << "scheduler " << static_cast<int>(sched);
  }
}

}  // namespace
}  // namespace esl
