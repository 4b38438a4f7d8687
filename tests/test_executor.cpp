// Tests of the work-stealing executor (src/base/executor.*): full coverage of
// the index space, lane identification, imbalance tolerance (stealing), and
// exception propagation. SimFarm and the parallel model checker both sit on
// top of this, so these invariants are load-bearing for every parallel
// determinism guarantee in the repo.
#include "base/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "base/error.h"

namespace esl {
namespace {

TEST(Executor, RunsEveryIndexExactlyOnce) {
  for (const unsigned lanes : {1u, 2u, 4u, 8u}) {
    Executor ex(lanes);
    EXPECT_EQ(ex.lanes(), lanes);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ex.parallelFor(kN, [&](std::size_t i, unsigned) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " lanes " << lanes;
  }
}

TEST(Executor, SingleLaneRunsInlineOnCaller) {
  Executor ex(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t count = 0;
  ex.parallelFor(64, [&](std::size_t, unsigned lane) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;  // safe: everything runs on this thread
  });
  EXPECT_EQ(count, 64u);
}

TEST(Executor, LaneIdsStayInRange) {
  Executor ex(4);
  std::atomic<unsigned> maxLane{0};
  ex.parallelFor(500, [&](std::size_t, unsigned lane) {
    unsigned seen = maxLane.load(std::memory_order_relaxed);
    while (lane > seen &&
           !maxLane.compare_exchange_weak(seen, lane, std::memory_order_relaxed)) {
    }
  });
  EXPECT_LT(maxLane.load(), 4u);
}

TEST(Executor, StealsFromImbalancedRanges) {
  // The front indices are much heavier than the rest; with static ranges and
  // no stealing this would serialize on lane 0. We can't observe the schedule
  // directly, but every index must still complete under the imbalance.
  Executor ex(4);
  std::vector<std::atomic<int>> hits(64);
  ex.parallelFor(64, [&](std::size_t i, unsigned) {
    if (i < 4) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(Executor, ReusableAcrossLoops) {
  Executor ex(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    ex.parallelFor(round + 1, [&](std::size_t i, unsigned) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    const auto n = static_cast<std::size_t>(round + 1);
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(Executor, EmptyLoopIsANoOp) {
  Executor ex(4);
  ex.parallelFor(0, [](std::size_t, unsigned) { FAIL() << "body must not run"; });
}

TEST(Executor, FirstExceptionPropagatesAndDrains) {
  Executor ex(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      ex.parallelFor(256,
                     [&](std::size_t i, unsigned) {
                       ran.fetch_add(1, std::memory_order_relaxed);
                       if (i == 17) throw EslError("boom at 17");
                     }),
      EslError);
  // Every index was drained (counted or skipped); the executor stays usable.
  std::atomic<std::size_t> after{0};
  ex.parallelFor(32, [&](std::size_t, unsigned) {
    after.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(after.load(), 32u);
}

TEST(Executor, AutoLaneCountIsPositive) {
  Executor ex(0);
  EXPECT_GE(ex.lanes(), 1u);
  std::atomic<std::size_t> count{0};
  ex.parallelFor(10, [&](std::size_t, unsigned) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10u);
}

TEST(Executor, RefusesMoreLanesThanTheLimitBeforeStartingAny) {
  // Each lane past the first is an OS thread, so a count from outside above
  // the limit throws before a single thread starts — and a check on the wide
  // value catches what a narrowing to unsigned would wrap (2^32 + 2 -> 2).
  EXPECT_THROW(Executor(Executor::kMaxLanes + 1), EslError);
  EXPECT_THROW(Executor::checkLaneCount((std::uint64_t{1} << 32) | 2, "workers"),
               EslError);
  EXPECT_NO_THROW(Executor::checkLaneCount(Executor::kMaxLanes, "workers"));
  // The message is what a user reads: the count and the limit, and no
  // source location.
  try {
    Executor::checkLaneCount(Executor::kMaxLanes + 1, "--workers");
    ADD_FAILURE() << "a count above the limit was accepted";
  } catch (const EslError& e) {
    EXPECT_EQ(std::string(e.what()), "--workers 257 is above the limit of 256");
  }
}

// --- External task submission (the serve scheduler's entry point) ----------

TEST(Executor, SubmitFromManyForeignThreadsRunsEveryTask) {
  // The serve daemon submits session turns from connection-handler threads
  // that are not executor lanes; nothing may be lost or run twice. This is
  // also the TSan stress for the submit/steal paths.
  Executor ex(4);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 250;
  std::vector<std::atomic<int>> hits(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t slot = t * kPerThread + i;
        ex.submit([&hits, slot] {
          hits[slot].fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ex.waitIdle();
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(Executor, SubmittedTasksMayResubmitThemselves) {
  // Serve turns chain: each quantum re-submits the next before returning, and
  // waitIdle() must not wake mid-chain.
  Executor ex(2);
  std::atomic<int> ticks{0};
  std::function<void()> chain = [&] {
    if (ticks.fetch_add(1, std::memory_order_relaxed) + 1 < 100)
      ex.submit(chain);
  };
  ex.submit(chain);
  ex.waitIdle();
  EXPECT_EQ(ticks.load(), 100);
}

TEST(Executor, SingleLaneSubmitRunsInlineOnTheCaller) {
  // With one lane there is no worker to hand off to: submit() executes the
  // task on the calling thread before returning. Serve relies on this being
  // transparent (results identical, just synchronous).
  Executor ex(1);
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  ex.submit([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);  // already done — no waitIdle needed
  ex.waitIdle();
}

TEST(Executor, SubmittedTaskExceptionSurfacesFromWaitIdle) {
  Executor ex(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ex.submit([&ran, i] {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 7) throw EslError("submit boom");
    });
  }
  EXPECT_THROW(ex.waitIdle(), EslError);
  // The failure is consumed; the executor keeps working afterwards.
  ex.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  ex.waitIdle();
  EXPECT_EQ(ran.load(), 33);
}

TEST(Executor, SubmitAndParallelForInterleave) {
  // parallelFor (lane-indexed fan-out) and submit (external tasks) share the
  // lanes; running both concurrently must lose neither.
  Executor ex(4);
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> swept{0};
  std::thread feeder([&] {
    for (int i = 0; i < 500; ++i)
      ex.submit([&] { submitted.fetch_add(1, std::memory_order_relaxed); });
  });
  for (int round = 0; round < 20; ++round) {
    ex.parallelFor(64, [&](std::size_t, unsigned) {
      swept.fetch_add(1, std::memory_order_relaxed);
    });
  }
  feeder.join();
  ex.waitIdle();
  EXPECT_EQ(submitted.load(), 500u);
  EXPECT_EQ(swept.load(), 20u * 64u);
}

}  // namespace
}  // namespace esl
