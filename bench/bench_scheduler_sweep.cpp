// Ablation: prediction strategy vs achieved throughput (paper §4.1.1 leaves
// the scheduler open, "from always predicting one of the channels to ... the
// state-of-the-art branch prediction in modern micro-processors").
//
// Sweeps all shipped schedulers over branch behaviours in the Fig. 1(d) loop
// and reports throughput plus the misprediction (demand) counts, with the
// analytic expectation tput = 1/(1+missrate) for reference. The whole grid
// runs as one SimFarm: every (taken-rate, scheduler) cell is an independent
// task fanned out across hardware threads, and the printed table is
// bit-identical no matter how many workers execute it.
#include <cstdio>

#include "netlist/patterns.h"
#include "sim/farm.h"

using namespace esl;

namespace {

constexpr std::pair<patterns::Fig1Scheduler, const char*> kScheds[] = {
    {patterns::Fig1Scheduler::kStatic0, "static0"},
    {patterns::Fig1Scheduler::kRoundRobin, "round-robin"},
    {patterns::Fig1Scheduler::kLastServed, "last-served"},
    {patterns::Fig1Scheduler::kTwoBit, "two-bit"},
    {patterns::Fig1Scheduler::kOracle, "oracle"},
};
constexpr unsigned kTakenRates[] = {0, 100, 250, 500, 750, 900, 1000};

}  // namespace

int main() {
  std::printf("=== Scheduler sweep on the Fig. 1(d) loop (SimFarm) ===\n\n");

  // config packs the grid cell: taken-rate in the high bits, scheduler index
  // in the low bits. The recipe rebuilds the system for its cell.
  sim::SimFarm farm(
      [](const sim::SimFarm::Task& task, sim::SimFarm::Instance& inst) {
        patterns::Fig1Config cfg;
        cfg.takenPermille = static_cast<unsigned>(task.config >> 8);
        cfg.scheduler = kScheds[task.config & 0xff].first;
        auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative, cfg);
        inst.nl = std::move(sys.nl);
        inst.watch.emplace_back("loop", sys.loopChannel);
        SharedModule* shared = sys.shared;
        inst.harvest = [shared](sim::Simulator& s,
                                std::vector<std::pair<std::string, double>>& m) {
          m.emplace_back("demand", static_cast<double>(shared->demandCycles(s.ctx())));
        };
      });
  for (const unsigned taken : kTakenRates)
    for (unsigned s = 0; s < std::size(kScheds); ++s)
      farm.add({.cycles = 1000, .config = (std::uint64_t{taken} << 8) | s});

  const auto results = farm.run();

  std::printf("%-13s", "taken-rate");
  for (const auto& [s, name] : kScheds) std::printf(" %11s", name);
  std::printf("   (cells: throughput / mispredict-cycles per 1000)\n");

  std::size_t idx = 0;
  for (const unsigned taken : kTakenRates) {
    std::printf("%11.1f%% ", taken / 10.0);
    for (unsigned s = 0; s < std::size(kScheds); ++s, ++idx) {
      const auto& r = results[idx];
      if (!r.ok) {
        std::printf(" %11s", "FAILED");
        continue;
      }
      const double tput =
          static_cast<double>(r.channels[0].second.fwdTransfers) /
          static_cast<double>(r.cycles);
      std::printf(" %6.3f/%-4.0f", tput, r.metrics[0].second);
    }
    std::printf("\n");
  }

  std::printf("\nreference: tput = 1/(1+missrate); a demand cycle is exactly the\n"
              "one-cycle misprediction penalty of §4's correction mechanism.\n"
              "The oracle row is the Shannon (Fig. 1c) performance bound.\n");
  return 0;
}
