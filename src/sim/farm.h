// SimFarm: parallel Monte Carlo sweep runner.
//
// A farm clones a netlist-building *recipe* across N worker threads to run
// many independent simulations — multi-seed Monte Carlo estimates (throughput
// vs. ALU hit-rate, paper Fig. 9 style), scheduler comparisons (Table 1
// style), or any multi-config sweep — and merges the per-channel statistics.
//
// A netlist could be shared by every task's context (it is read-only while
// simulated), but the recipe varies the netlist by task config, so every task
// builds its own instance; results are independent of thread count: task i
// always runs (recipe(task_i), Simulator seeded with task_i.seed,
// task_i.cycles cycles), and results are returned in task order. Same task
// list ⇒ bit-identical results whether the farm runs on 1 thread or 64.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace esl::sim {

class SimFarm {
 public:
  /// One simulation to run: an RNG seed, a cycle budget and an opaque config
  /// tag the recipe may use to vary the netlist (scheduler kind, error rate…).
  struct Task {
    std::uint64_t seed = 0x5e1fULL;
    std::uint64_t cycles = 1000;
    std::uint64_t config = 0;
  };

  /// What a recipe hands back for one task. Channels to measure are keyed by
  /// a label stable across instances — merging is by label, never ChannelId.
  /// `harvest` (optional) runs after the simulation with the finished
  /// simulator still alive, extracting scalar metrics from nodes (counters,
  /// occupancy…) before the instance is destroyed.
  struct Instance {
    Netlist nl;
    std::vector<std::pair<std::string, ChannelId>> watch;
    std::function<void(Simulator&, std::vector<std::pair<std::string, double>>&)>
        harvest;
  };

  /// Builds a fresh netlist for a task. Must be callable from any worker
  /// thread concurrently (i.e. capture only immutable/shared-safe data).
  using Recipe = std::function<void(const Task&, Instance&)>;

  struct TaskResult {
    Task task;
    bool ok = false;
    std::string error;  ///< exception text when !ok
    std::uint64_t cycles = 0;
    std::vector<std::pair<std::string, ChannelStats>> channels;  ///< watch order
    std::vector<std::pair<std::string, double>> metrics;         ///< from harvest
    std::vector<std::string> protocolViolations;
  };

  struct MergedChannel {
    ChannelStats stats;        ///< summed over contributing tasks
    std::uint64_t cycles = 0;  ///< summed cycle counts of those tasks
    double throughput() const {
      return cycles == 0 ? 0.0
                         : static_cast<double>(stats.fwdTransfers) /
                               static_cast<double>(cycles);
    }
  };

  struct Merged {
    std::uint64_t tasks = 0;
    std::uint64_t failures = 0;
    std::uint64_t totalCycles = 0;
    std::map<std::string, MergedChannel> channels;
    std::map<std::string, double> metricTotals;
    std::vector<std::string> protocolViolations;  ///< prefixed with the seed
  };

  /// `base` supplies everything but the per-task seed (kernel choice,
  /// protocol monitoring; prefer throwOnViolation=false so violations are
  /// reported per task instead of failing it).
  explicit SimFarm(Recipe recipe, SimOptions base = {});

  void add(Task task) { tasks_.push_back(task); }
  /// n tasks identical except for consecutive seeds seed0, seed0+1, …
  void addSeedSweep(std::uint64_t n, std::uint64_t seed0, std::uint64_t cycles,
                    std::uint64_t config = 0);

  /// Runs every queued task on `threads` work-stealing executor lanes
  /// (0 = hardware concurrency; the calling thread is one of the lanes) and
  /// returns results in task order. Tasks whose recipe or simulation throws
  /// come back with ok=false and the exception text; the farm itself only
  /// throws on misuse (no tasks, broken recipe wiring).
  std::vector<TaskResult> run(unsigned threads = 0);

  static Merged merge(const std::vector<TaskResult>& results);

 private:
  TaskResult runOne(const Task& task) const;

  Recipe recipe_;
  SimOptions base_;
  std::vector<Task> tasks_;
};

}  // namespace esl::sim
