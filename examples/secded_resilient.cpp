// Resilient design with SECDED (paper §5.2, Fig. 7).
//
// A 64-bit adder whose inputs carry Hamming SECDED(72,64) protection. The
// speculative version starts the addition immediately on the (possibly
// corrupted) payloads while SECDED checks both inputs in parallel; on a
// detected error the mispredicted sum is killed by an anti-token and the
// addition replays with the corrected words — soft-error tolerance with no
// penalty on error-free operation and one lost cycle per error.
//
//   $ ./secded_resilient [flip_permille]
#include <cstdio>
#include <cstdlib>

#include "netlist/patterns.h"
#include "perf/area.h"
#include "sim/simulator.h"

using namespace esl;

int main(int argc, char** argv) {
  patterns::SecdedConfig cfg;
  cfg.flipPermille = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 80;

  std::printf("SECDED-protected 64-bit adder, %.1f%% single-bit flips per word\n\n",
              cfg.flipPermille / 10.0);

  auto pipe = patterns::buildSecdedPipeline(cfg);
  auto spec = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator sp(pipe.nl, {.checkProtocol = true, .throwOnViolation = true});
  sim::Simulator ss(spec.nl, {.checkProtocol = true, .throwOnViolation = true});
  sp.ctx().logTransfers(pipe.sink->input(0));
  ss.ctx().logTransfers(spec.sink->input(0));
  sp.run(1200);
  ss.run(1200);
  const auto& pipeSums = sp.ctx().transfers(pipe.sink->input(0));
  const auto& specSums = ss.ctx().transfers(spec.sink->input(0));

  std::printf("%-24s %12s %12s %10s\n", "design", "first-sum@", "throughput", "area");
  std::printf("%-24s %12llu %12.3f %10.0f\n", "SECDED stage + adder",
              static_cast<unsigned long long>(pipeSums.front().cycle),
              sp.throughput(pipe.outChannel), perf::areaReport(pipe.nl).total);
  std::printf("%-24s %12llu %12.3f %10.0f\n", "speculative adder",
              static_cast<unsigned long long>(specSums.front().cycle),
              ss.throughput(spec.outChannel), perf::areaReport(spec.nl).total);

  std::printf("\nreplay cycles in the speculative design: %llu\n",
              static_cast<unsigned long long>(spec.shared->demandCycles(ss.ctx())));

  // Every sum equals the golden (error-corrected) result in both designs.
  const auto golden = patterns::secdedGolden(cfg, 1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    if (pipeSums.at(i).data.toUint64() != golden[i] ||
        specSums.at(i).data.toUint64() != golden[i]) {
      std::printf("MISMATCH at %zu\n", i);
      return 1;
    }
  }
  std::printf("all 1000 checked sums correct despite injected bit flips\n");
  return 0;
}
