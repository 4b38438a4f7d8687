// Reproduces Table 1 of the paper: a 7-cycle trace of the Fig. 1(d) shared
// module + early-evaluation mux with a round-robin scheduler, showing correct
// predictions (anti-token kills the unused token) and mispredictions (the mux
// stalls, the demand corrects the scheduler one cycle later).
//
// Known erratum: the published table shows EBin = 'G' at cycle 6, which
// contradicts its own Fout0 = 'F' and Sel = '0' rows (the mux must output the
// channel-0 token). This harness prints 'F' and flags the difference.
#include <cstdio>
#include <string>
#include <vector>

#include "netlist/patterns.h"
#include "sim/simulator.h"
#include "sim/trace.h"

using namespace esl;

int main() {
  std::printf("=== Table 1: example trace of the Fig. 1(d) system ===\n\n");

  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  sim::TraceRecorder trace;
  trace.addChannel(sys.fin0, "Fin0");
  trace.addChannel(sys.fout0, "Fout0");
  trace.addChannel(sys.fin1, "Fin1");
  trace.addChannel(sys.fout1, "Fout1");
  trace.addSignal("Sel", [&sys](SimContext& ctx) {
    const ConstSig s = ctx.sig(sys.sel);
    return s.vf() ? std::to_string(s.dataLow64()) : "*";
  });
  trace.addSignal("Sched", [&sys](SimContext& ctx) {
    return std::to_string(sys.shared->prediction(ctx));
  });
  trace.addChannel(sys.ebin, "EBin");

  sim::Simulator sim(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  sim.attachTrace(&trace);
  sim.ctx().logTransfers(sys.sink->input(0));
  sim.run(7);

  std::printf("%s\n", trace.render().c_str());

  // Cell-by-cell comparison against the published table.
  const std::vector<std::vector<std::string>> paper = {
      {"A", "-", "C", "-", "E", "F", "F"},  // Fin0
      {"A", "-", "C", "-", "E", "*", "F"},  // Fout0
      {"-", "B", "D", "D", "-", "G", "-"},  // Fin1
      {"-", "B", "*", "D", "-", "G", "-"},  // Fout1
      {"0", "1", "1", "1", "0", "0", "0"},  // Sel
      {"0", "1", "0", "1", "0", "1", "0"},  // Sched
      {"A", "B", "*", "D", "E", "*", "G"},  // EBin (paper; 'G' is the erratum)
  };
  int match = 0, mismatch = 0;
  for (std::size_t row = 0; row < paper.size(); ++row) {
    for (std::uint64_t cyc = 0; cyc < 7; ++cyc) {
      if (trace.cell(row, cyc) == paper[row][cyc]) {
        ++match;
      } else {
        ++mismatch;
        std::printf("cell %s@%llu: paper '%s', reproduced '%s'%s\n",
                    trace.rowLabel(row).c_str(),
                    static_cast<unsigned long long>(cyc), paper[row][cyc].c_str(),
                    trace.cell(row, cyc).c_str(),
                    (trace.rowLabel(row) == "EBin" && cyc == 6)
                        ? "  <- published table's internal inconsistency"
                        : "");
      }
    }
  }
  std::printf("\n%d/49 cells match the published table", match);
  if (mismatch == 1)
    std::printf(" (the single difference is the documented EBin@6 erratum)");
  std::printf("\n");

  // The semantic content of the trace:
  std::printf("\nmux output (transfers): ");
  for (const auto& t : sim.ctx().transfers(sys.sink->input(0)))
    std::printf("cycle %llu: %llu  ", static_cast<unsigned long long>(t.cycle),
                static_cast<unsigned long long>(t.data.toUint64()));
  std::printf("\nmispredictions (demand cycles): %llu — at cycles 2 and 5, as in "
              "the paper\n",
              static_cast<unsigned long long>(sys.shared->demandCycles(sim.ctx())));
  return mismatch <= 1 ? 0 : 1;
}
