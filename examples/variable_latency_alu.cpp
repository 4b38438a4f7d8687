// Variable-latency ALU (paper §5.1, Fig. 6).
//
// An 8-bit ALU computes with a fast approximate adder (segmented carry) and a
// slow exact one. The telescopic predictor F_err flags, from the operands
// alone, when the approximation would be wrong. Two implementations:
//   stalling (Fig. 6a)    — F_err gates the elastic controller directly;
//   speculative (Fig. 6b) — always predict "approximation correct", replay
//                           mispredicted operands through the shared stage.
// Both are functionally exact; the speculative one takes F_err off the
// control-gating critical path.
//
//   $ ./variable_latency_alu [err_permille]
#include <cstdio>
#include <cstdlib>

#include "netlist/patterns.h"
#include "perf/area.h"
#include "perf/timing.h"
#include "sim/simulator.h"

using namespace esl;

int main(int argc, char** argv) {
  patterns::VluConfig cfg;
  cfg.errPermille = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 120;

  std::printf("Variable-latency 8-bit ALU, %.1f%% of operands need 2 cycles\n\n",
              cfg.errPermille / 10.0);

  auto stall = patterns::buildStallingVlu(cfg);
  auto spec = patterns::buildSpeculativeVlu(cfg);

  sim::Simulator ss(stall.nl, {.checkProtocol = true, .throwOnViolation = true});
  sim::Simulator sp(spec.nl, {.checkProtocol = true, .throwOnViolation = true});
  ss.ctx().logTransfers(stall.sink->input(0));
  sp.ctx().logTransfers(spec.sink->input(0));
  ss.run(1500);
  sp.run(1500);

  const double tputStall = ss.throughput(stall.outChannel);
  const double tputSpec = sp.throughput(spec.outChannel);
  const double cycStall = perf::analyzeTiming(stall.nl).cycleTime;
  const double cycSpec = perf::analyzeTiming(spec.nl).cycleTime;

  std::printf("%-14s %10s %12s %12s %10s\n", "design", "cycle", "throughput",
              "eff.cycle", "area");
  std::printf("%-14s %10.1f %12.3f %12.2f %10.1f\n", "stalling", cycStall, tputStall,
              cycStall / tputStall, perf::areaReport(stall.nl).total);
  std::printf("%-14s %10.1f %12.3f %12.2f %10.1f\n", "speculative", cycSpec, tputSpec,
              cycSpec / tputSpec, perf::areaReport(spec.nl).total);

  const double gain =
      (cycStall / tputStall - cycSpec / tputSpec) / (cycStall / tputStall);
  std::printf("\neffective cycle time improvement: %.1f%% (paper: ~9%%)\n",
              gain * 100.0);
  std::printf("stalling unit replays: %llu of %llu operands\n",
              static_cast<unsigned long long>(stall.vlu->stalls(ss.ctx())),
              static_cast<unsigned long long>(stall.vlu->completed(ss.ctx())));

  // Functional exactness: both sinks saw G(exact(op)) for every operand.
  const auto golden = patterns::vluGolden(cfg, 1000);
  const auto& stallResults = ss.ctx().transfers(stall.sink->input(0));
  const auto& specResults = sp.ctx().transfers(spec.sink->input(0));
  for (std::size_t i = 0; i < 1000; ++i) {
    if (stallResults.at(i).data.toUint64() != golden[i] ||
        specResults.at(i).data.toUint64() != golden[i]) {
      std::printf("MISMATCH at %zu\n", i);
      return 1;
    }
  }
  std::printf("both designs exact on 1000 checked operands\n");
  return 0;
}
