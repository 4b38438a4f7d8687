// Quickstart: make a design speculative in four lines.
//
// Builds the Fig. 1(a) loop (a PC-update micro-architecture whose branch
// decision G sits on the critical cycle), lets the toolkit find the
// speculation candidate, applies the §4 recipe, and compares the two designs.
//
//   $ ./quickstart
#include <cstdio>

#include "netlist/patterns.h"
#include "perf/area.h"
#include "perf/throughput.h"
#include "perf/timing.h"
#include "sim/simulator.h"
#include "transform/transform.h"

using namespace esl;

namespace {

void report(const char* label, Netlist& nl, ChannelId loop) {
  sim::Simulator s(nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(500);
  const double tput = s.throughput(loop);
  const double cycle = perf::analyzeTiming(nl).cycleTime;
  const double area = perf::areaReport(nl).total;
  std::printf("%-16s cycle=%5.1f  throughput=%.3f  eff.cycle=%5.1f  area=%6.1f\n",
              label, cycle, tput, perf::effectiveCycleTime(cycle, tput), area);
}

}  // namespace

int main() {
  std::printf("Speculation in elastic systems: quickstart\n");
  std::printf("-------------------------------------------\n");

  // A branch that is taken 10% of the time: a simple "predict not-taken"
  // scheduler will be right 90% of the time, which is the regime where
  // speculation pays (paper §2: "if the prediction strategy is sufficiently
  // accurate, the penalty of speculation will be rarely paid").
  patterns::Fig1Config cfg;
  cfg.takenPermille = 100;

  // 1. The non-speculative design: EB -> G -> mux -> F -> EB (Fig. 1a).
  auto before = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative, cfg);
  report("original", before.nl, before.loopChannel);

  // 2. Ask the toolkit where speculation applies.
  auto design = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative, cfg);
  const auto candidates = transform::findSpeculationCandidates(design.nl);
  for (const auto& c : candidates)
    std::printf("candidate: mux=%s func=%s%s\n", design.nl.node(c.mux).name().c_str(),
                design.nl.node(c.func).name().c_str(),
                c.onCriticalCycle ? "  (on critical cycle -> speculate!)" : "");

  // 3. Apply the correct-by-construction recipe: Shannon decomposition +
  //    early evaluation + sharing behind a last-served scheduler.
  transform::speculate(design.nl, candidates.at(0).mux, candidates.at(0).func,
                       std::make_unique<sched::StaticScheduler>(2, 0));
  design.nl.validate();
  report("speculative", design.nl, design.loopChannel);

  // 4. Functional equivalence is guaranteed; spot-check the PC stream.
  sim::Simulator s(design.nl);
  s.ctx().logTransfers(design.observer->input(0));
  s.run(100);
  const auto& got = s.ctx().transfers(design.observer->input(0));
  const auto golden = patterns::fig1PcSequence(cfg, 32);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (got.at(i).data.toUint64() != golden[i]) {
      std::printf("MISMATCH at %zu\n", i);
      return 1;
    }
  }
  std::printf("PC stream matches the golden sequence (%zu tokens checked).\n",
              golden.size());
  return 0;
}
