#include "sim/farm.h"

#include <thread>

#include "base/executor.h"

namespace esl::sim {

SimFarm::SimFarm(Recipe recipe, SimOptions base)
    : recipe_(std::move(recipe)), base_(base) {
  ESL_CHECK(static_cast<bool>(recipe_), "SimFarm: recipe required");
}

void SimFarm::addSeedSweep(std::uint64_t n, std::uint64_t seed0,
                           std::uint64_t cycles, std::uint64_t config) {
  for (std::uint64_t i = 0; i < n; ++i)
    tasks_.push_back({seed0 + i, cycles, config});
}

SimFarm::TaskResult SimFarm::runOne(const Task& task) const {
  TaskResult result;
  result.task = task;
  try {
    Instance inst;
    recipe_(task, inst);
    SimOptions opts = base_;
    opts.seed = task.seed;
    Simulator s(inst.nl, opts);
    s.run(task.cycles);
    result.cycles = s.cycle();
    for (const auto& [label, ch] : inst.watch)
      result.channels.emplace_back(label, s.channelStats(ch));
    if (inst.harvest) inst.harvest(s, result.metrics);
    result.protocolViolations = s.ctx().protocolViolations();
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  return result;
}

std::vector<SimFarm::TaskResult> SimFarm::run(unsigned threads) {
  ESL_CHECK(!tasks_.empty(), "SimFarm::run: no tasks queued");
  // More lanes than tasks would only spawn threads that find empty ranges.
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads > tasks_.size()) threads = static_cast<unsigned>(tasks_.size());
  Executor executor(threads);
  // Each slot of `results` is written by exactly one lane; runOne already
  // fences every per-task failure into TaskResult, so the loop body never
  // throws and scheduling order cannot leak into results.
  std::vector<TaskResult> results(tasks_.size());
  executor.parallelFor(tasks_.size(), [this, &results](std::size_t i, unsigned) {
    results[i] = runOne(tasks_[i]);
  });
  return results;
}

SimFarm::Merged SimFarm::merge(const std::vector<TaskResult>& results) {
  Merged m;
  for (const TaskResult& r : results) {
    ++m.tasks;
    if (!r.ok) {
      ++m.failures;
      continue;
    }
    m.totalCycles += r.cycles;
    for (const auto& [label, stats] : r.channels) {
      MergedChannel& mc = m.channels[label];
      mc.stats.fwdTransfers += stats.fwdTransfers;
      mc.stats.kills += stats.kills;
      mc.stats.bwdTransfers += stats.bwdTransfers;
      mc.cycles += r.cycles;
    }
    for (const auto& [label, value] : r.metrics) m.metricTotals[label] += value;
    for (const std::string& v : r.protocolViolations)
      m.protocolViolations.push_back("seed " + std::to_string(r.task.seed) +
                                     ": " + v);
  }
  return m;
}

}  // namespace esl::sim
