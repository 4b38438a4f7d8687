// Work-stealing parallel executor.
//
// A small persistent thread pool for data-parallel loops: parallelFor(n, body)
// splits [0, n) into one contiguous range per lane; each lane consumes its own
// range from the front and, when it runs dry, steals the back half of the
// fullest remaining range. The calling thread participates as lane 0, so an
// Executor(1) runs everything inline with no threading machinery at all.
//
// This is the shared engine behind SimFarm (independent simulations per
// index) and the parallel model checker (one BFS-frontier state per index);
// both need the same thing: an index space, a lane id to select per-lane
// scratch (a checker lane's SimContext, which only one thread may drive at a
// time), and deterministic by-index result slots so scheduling order never
// leaks into results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace esl {

class Executor {
 public:
  /// Most lanes an executor runs. Each lane past the first is an OS thread,
  /// so every lane count from outside — a sharded context's shards, the
  /// model checker's and the serve daemon's workers, from a flag, a frame or
  /// a spool record — is held to this before any thread starts.
  static constexpr unsigned kMaxLanes = 256;
  /// Returns `n` narrowed to a lane count, or throws EslError ("<what> <n> is
  /// above the limit of 256") if it is above kMaxLanes. Every front end
  /// narrows a lane count through this.
  static unsigned checkLaneCount(std::uint64_t n, const std::string& what);

  /// `threads` is the total number of lanes including the calling thread;
  /// 0 means one lane per hardware thread (at most kMaxLanes). Throws
  /// EslError, starting nothing, if `threads` is above kMaxLanes.
  explicit Executor(unsigned threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  unsigned lanes() const { return lanes_; }

  /// Runs body(index, lane) for every index in [0, n). Lane ids are stable in
  /// [0, lanes()); lane 0 is the calling thread. Blocks until every index has
  /// completed. If the body throws, the first exception is rethrown here after
  /// the remaining indices are drained (without running the body on them).
  /// One loop at a time per Executor: not reentrant, and the lane that calls
  /// parallelFor must be the one thread using this Executor.
  void parallelFor(std::size_t n,
                   const std::function<void(std::size_t, unsigned)>& body);

  // --- External task submission ---------------------------------------------
  // The serve daemon's substrate: connection threads (which are NOT pool
  // lanes) enqueue one-off tasks from outside; worker lanes drain them FIFO,
  // interleaved with any parallelFor jobs the owner thread runs. Unlike
  // parallelFor, submit() is thread-safe and non-blocking.

  /// Enqueues `task` to run on a worker lane. Safe to call from any thread,
  /// including from inside a running task (a task may resubmit itself — the
  /// serve scheduler's per-quantum requeue). With a single lane the task runs
  /// inline on the calling thread before submit() returns. If the task
  /// throws, the first exception is captured and rethrown from waitIdle();
  /// later exceptions (before that waitIdle) are dropped.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished (tasks submitted
  /// concurrently with the wait extend it). Rethrows the first captured task
  /// exception, clearing it — the pool stays usable afterwards. Safe from any
  /// thread that is not a pool lane.
  void waitIdle();

 private:
  struct Impl;
  unsigned lanes_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace esl
