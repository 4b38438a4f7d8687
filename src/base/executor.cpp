#include "base/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "base/error.h"

namespace esl {

namespace {

unsigned resolveLanes(unsigned threads) {
  Executor::checkLaneCount(threads, "executor lane count");
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min(hw, Executor::kMaxLanes);
}

constexpr std::size_t kNoIndex = ~std::size_t{0};

}  // namespace

struct Executor::Impl {
  // One contiguous slice of the index space. Owners pop from the front;
  // thieves split off the back half, so both ends stay cache-friendly and a
  // range is never fragmented into more pieces than there are lanes.
  struct Range {
    std::mutex m;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  struct Job {
    const std::function<void(std::size_t, unsigned)>* body = nullptr;
    std::vector<std::unique_ptr<Range>> ranges;
    std::size_t n = 0;
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::mutex errorMu;
    std::exception_ptr error;
  };

  explicit Impl(unsigned lanes) {
    threads.reserve(lanes - 1);
    for (unsigned lane = 1; lane < lanes; ++lane)
      threads.emplace_back([this, lane] { threadMain(lane); });
  }

  // Tasks queued after shutdown begins — i.e. without an intervening
  // waitIdle() — are dropped unstarted; completion guarantees come from
  // waitIdle(), not the destructor.
  ~Impl() {
    {
      std::lock_guard<std::mutex> lock(m);
      shutdown = true;
    }
    cv.notify_all();
    for (std::thread& t : threads) t.join();
  }

  void threadMain(unsigned lane) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] {
          return shutdown || (jobSeq != seen && current) || !tasks.empty();
        });
        if (shutdown) return;
        if (jobSeq != seen && current) {
          seen = jobSeq;
          job = current;  // shared ownership: the job outlives a late waker
        } else {
          task = std::move(tasks.front());
          tasks.pop_front();
          ++tasksActive;
        }
      }
      if (job) {
        work(*job, lane);
      } else {
        runTask(task);
      }
    }
  }

  void runTask(std::function<void()>& task) {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(m);
      if (!taskError) taskError = std::current_exception();
    }
    task = nullptr;  // release captures before reporting idle
    std::lock_guard<std::mutex> lock(m);
    --tasksActive;
    if (tasksActive == 0 && tasks.empty()) idleCv.notify_all();
  }

  void work(Job& job, unsigned lane) {
    Range& own = *job.ranges[lane];
    for (;;) {
      std::size_t idx = kNoIndex;
      {
        std::lock_guard<std::mutex> lock(own.m);
        if (own.begin < own.end) idx = own.begin++;
      }
      if (idx == kNoIndex) {
        if (!steal(job, own)) return;
        continue;
      }
      runOne(job, idx, lane);
    }
  }

  /// Moves the back half of the fullest other range into `own`. Returns false
  /// when every range is empty — this lane's participation is over (indices
  /// still running on other lanes are tracked by job.done, not by us).
  bool steal(Job& job, Range& own) {
    for (;;) {
      Range* best = nullptr;
      std::size_t bestRemaining = 0;
      for (const auto& r : job.ranges) {
        if (r.get() == &own) continue;
        std::lock_guard<std::mutex> lock(r->m);
        const std::size_t remaining = r->end - r->begin;
        if (remaining > bestRemaining) {
          bestRemaining = remaining;
          best = r.get();
        }
      }
      if (best == nullptr) return false;
      std::size_t b = 0, e = 0;
      {
        std::lock_guard<std::mutex> lock(best->m);
        const std::size_t remaining = best->end - best->begin;
        if (remaining == 0) continue;  // lost a race; rescan
        const std::size_t take = (remaining + 1) / 2;
        e = best->end;
        b = e - take;
        best->end = b;
      }
      {
        std::lock_guard<std::mutex> lock(own.m);
        own.begin = b;
        own.end = e;
      }
      return true;
    }
  }

  void runOne(Job& job, std::size_t idx, unsigned lane) {
    if (!job.failed.load(std::memory_order_acquire)) {
      try {
        (*job.body)(idx, lane);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.errorMu);
        if (!job.error) job.error = std::current_exception();
        job.failed.store(true, std::memory_order_release);
      }
    }
    const std::size_t d = job.done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (d == job.n) {
      std::lock_guard<std::mutex> lock(doneMu);
      doneCv.notify_all();
    }
  }

  std::vector<std::thread> threads;
  std::mutex m;
  std::condition_variable cv;
  std::shared_ptr<Job> current;
  std::uint64_t jobSeq = 0;
  bool shutdown = false;
  std::mutex doneMu;
  std::condition_variable doneCv;

  // External task queue (submit/waitIdle), guarded by m.
  std::deque<std::function<void()>> tasks;
  std::size_t tasksActive = 0;
  bool inlineDraining = false;  ///< single-lane mode: a caller owns the queue
  std::exception_ptr taskError;
  std::condition_variable idleCv;
};

unsigned Executor::checkLaneCount(std::uint64_t n, const std::string& what) {
  ESL_CHECK(n <= kMaxLanes, what + " " + std::to_string(n) +
                                " is above the limit of " + std::to_string(kMaxLanes));
  return static_cast<unsigned>(n);
}

Executor::Executor(unsigned threads)
    : lanes_(resolveLanes(threads)), impl_(std::make_unique<Impl>(lanes_)) {}

Executor::~Executor() = default;

void Executor::submit(std::function<void()> task) {
  ESL_CHECK(static_cast<bool>(task), "Executor::submit: task required");
  if (lanes_ == 1) {
    // No worker threads: the caller drains the queue itself (a trampoline,
    // not a recursive inline call) so a single-lane pool stays a working
    // serial scheduling substrate with the same FIFO order, idle accounting
    // and bounded stack as the threaded pool — a task that re-submits itself
    // unboundedly (the serve scheduler's quantum chain) iterates instead of
    // recursing, and waitIdle() cannot slip between a task and its re-submit.
    {
      std::lock_guard<std::mutex> lock(impl_->m);
      impl_->tasks.push_back(std::move(task));
      if (impl_->inlineDraining) return;  // the active drainer will run it
      impl_->inlineDraining = true;
    }
    for (;;) {
      std::function<void()> next;
      {
        std::lock_guard<std::mutex> lock(impl_->m);
        if (impl_->tasks.empty()) {
          impl_->inlineDraining = false;
          impl_->idleCv.notify_all();
          return;
        }
        next = std::move(impl_->tasks.front());
        impl_->tasks.pop_front();
        ++impl_->tasksActive;
      }
      try {
        next();
      } catch (...) {
        std::lock_guard<std::mutex> lock(impl_->m);
        if (!impl_->taskError) impl_->taskError = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(impl_->m);
      --impl_->tasksActive;
    }
  }
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->tasks.push_back(std::move(task));
  }
  // notify_all, not notify_one: the one woken worker may prefer a concurrent
  // parallelFor job and leave the task queued until it finishes.
  impl_->cv.notify_all();
}

void Executor::waitIdle() {
  std::unique_lock<std::mutex> lock(impl_->m);
  impl_->idleCv.wait(lock, [&] {
    return impl_->tasks.empty() && impl_->tasksActive == 0;
  });
  if (impl_->taskError) {
    std::exception_ptr e;
    std::swap(e, impl_->taskError);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

void Executor::parallelFor(std::size_t n,
                           const std::function<void(std::size_t, unsigned)>& body) {
  ESL_CHECK(static_cast<bool>(body), "Executor::parallelFor: body required");
  if (n == 0) return;
  if (lanes_ == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }

  auto job = std::make_shared<Impl::Job>();
  job->body = &body;
  job->n = n;
  job->ranges.reserve(lanes_);
  const std::size_t chunk = n / lanes_;
  const std::size_t extra = n % lanes_;
  std::size_t at = 0;
  for (unsigned lane = 0; lane < lanes_; ++lane) {
    auto range = std::make_unique<Impl::Range>();
    range->begin = at;
    at += chunk + (lane < extra ? 1 : 0);
    range->end = at;
    job->ranges.push_back(std::move(range));
  }

  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->current = job;
    ++impl_->jobSeq;
  }
  impl_->cv.notify_all();

  impl_->work(*job, 0);  // the calling thread is lane 0

  {
    std::unique_lock<std::mutex> lock(impl_->doneMu);
    impl_->doneCv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == n;
    });
  }
  {
    // Unpublish so a late-waking worker drains an empty job instead of
    // touching the caller's (now dead) loop body on the next spurious wake.
    std::lock_guard<std::mutex> lock(impl_->m);
    if (impl_->current == job) impl_->current.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace esl
