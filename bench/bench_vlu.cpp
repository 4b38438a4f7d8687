// Reproduces §5.1 / Figure 6: the variable-latency ALU.
//
// Compares the stalling unit (Fig. 6a, F_err gating the elastic controller)
// against the speculative unit (Fig. 6b, always predict "approximation
// correct", replay on error) across error rates. Paper headline: ~9%
// effective cycle time improvement, ~12% area overhead (their 65nm synthesis,
// amortized over a full pipeline); the unit-gate model reproduces the shape —
// the F_err -> controller path sets the stalling unit's clock, speculation
// moves it into the datapath, and the overhead is EB-dominated.
#include <cstdio>

#include "netlist/patterns.h"
#include "perf/area.h"
#include "perf/timing.h"
#include "sim/simulator.h"

using namespace esl;

int main() {
  std::printf("=== Figure 6: variable-latency ALU (8-bit, segment 4) ===\n\n");

  const auto stallRef = patterns::buildStallingVlu();
  const auto specRef = patterns::buildSpeculativeVlu();
  const double cycStall = perf::analyzeTiming(stallRef.nl).cycleTime;
  const double cycSpec = perf::analyzeTiming(specRef.nl).cycleTime;
  const auto areaStall = perf::areaReport(stallRef.nl);
  const auto areaSpec = perf::areaReport(specRef.nl);

  std::printf("cycle time: stalling %.1f (F_err + control gating critical), "
              "speculative %.1f  -> %.1f%% faster clock\n",
              cycStall, cycSpec, 100.0 * (cycStall - cycSpec) / cycStall);
  std::printf("area: stalling %.0f, speculative %.0f (+%.0f%%, EB-dominated: "
              "+%.0f EB units)\n\n",
              areaStall.total, areaSpec.total,
              100.0 * (areaSpec.total - areaStall.total) / areaStall.total,
              areaSpec.byKind.at("eb") -
                  (areaStall.byKind.count("eb") ? areaStall.byKind.at("eb") : 0.0));

  std::printf("%-10s | %-22s | %-22s | %s\n", "", "stalling (6a)", "speculative (6b)",
              "eff.cycle");
  std::printf("%-10s | %10s %11s | %10s %11s | %s\n", "err-rate", "tput", "eff.cyc",
              "tput", "eff.cyc", "gain");
  for (const unsigned err : {0u, 50u, 100u, 200u, 400u}) {
    patterns::VluConfig cfg;
    cfg.errPermille = err;

    auto stall = patterns::buildStallingVlu(cfg);
    sim::Simulator ss(stall.nl);
    ss.run(3000);
    const double ts = ss.throughput(stall.outChannel);

    auto spec = patterns::buildSpeculativeVlu(cfg);
    sim::Simulator sp(spec.nl);
    sp.run(3000);
    const double tp = sp.throughput(spec.outChannel);

    const double effS = cycStall / ts, effP = cycSpec / tp;
    std::printf("%9.1f%% | %10.3f %11.2f | %10.3f %11.2f | %+6.1f%%\n", err / 10.0,
                ts, effS, tp, effP, 100.0 * (effS - effP) / effS);
  }

  // Functional exactness spot check at a high error rate.
  patterns::VluConfig cfg;
  cfg.errPermille = 300;
  auto spec = patterns::buildSpeculativeVlu(cfg);
  sim::Simulator sp(spec.nl);
  sp.ctx().logTransfers(spec.sink->input(0));
  sp.run(1500);
  const std::size_t checked =
      std::min<std::size_t>(1000, spec.sink->received(sp.ctx()));
  const auto golden = patterns::vluGolden(cfg, checked);
  const auto& got = sp.ctx().transfers(spec.sink->input(0));
  for (std::size_t i = 0; i < checked; ++i)
    if (got.at(i).data.toUint64() != golden[i]) {
      std::printf("\nMISMATCH at %zu\n", i);
      return 1;
    }
  std::printf("\nfunctional check: %zu/%zu results exact at 30%% error rate\n",
              checked, checked);
  std::printf("paper shape reproduced: speculation wins on effective cycle time at\n"
              "low error rates, at an EB-dominated area premium\n");
  return 0;
}
