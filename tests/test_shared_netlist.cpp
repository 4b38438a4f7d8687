// One netlist, many contexts (CTest label: shared-netlist; the TSan CI leg
// selects it).
//
// A netlist is only a description: every byte a run changes — sequential
// state, memos, statistics, scheduler state, transfer logs — lives in the
// SimContext that runs it. So two contexts over one netlist must each end
// exactly where a context that ran alone ends: the same packState() bytes
// and the same runReport, in every execution mode, whether they are stepped
// in turn on one thread or at once on two. Under ThreadSanitizer the
// threaded case is also the check that simulating only ever reads the node
// objects, their closures and the netlist's indexes.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "sim/simulator.h"

namespace esl {
namespace {

constexpr std::uint64_t kCycles = 1000;

/// The nine golden examples/designs and the four synth families.
const char* const kDesigns[] = {
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "secded-pipe",
    "secded-spec",
    "table1",
    "vlu-spec",
    "vlu-stall",
    "synth-pipeline",
    "synth-forkjoin",
    "synth-specladder",
    "synth-randomdag",
};

Netlist family(synth::Topology topology) {
  synth::SynthConfig cfg;
  cfg.topology = topology;
  cfg.targetNodes = 160;
  cfg.width = 12;
  cfg.seed = 7;
  cfg.injectPeriod = 2;
  cfg.vluPermille = topology == synth::Topology::kPipeline ? 150 : 0;
  return std::move(synth::build(cfg).nl);
}

Netlist build(const std::string& name) {
  if (name == "synth-pipeline") return family(synth::Topology::kPipeline);
  if (name == "synth-forkjoin") return family(synth::Topology::kForkJoin);
  if (name == "synth-specladder") return family(synth::Topology::kSpecLadder);
  if (name == "synth-randomdag") return family(synth::Topology::kRandomDag);
  return frontend::parseEslFile(std::string(ESL_SOURCE_DIR) + "/examples/designs/" +
                                name + ".esl")
      .build();
}

struct Mode {
  const char* name;
  SimContext::Backend backend;
  unsigned shards;
};
constexpr Mode kModes[] = {
    {"interpreted", SimContext::Backend::kInterpreted, 1},
    {"compiled", SimContext::Backend::kCompiled, 1},
    {"compiled+2 shards", SimContext::Backend::kCompiled, 2},
};

sim::SimOptions optionsFor(const Mode& m) {
  sim::SimOptions o{.checkProtocol = true, .throwOnViolation = false};
  o.backend = m.backend;
  o.shards = m.shards;
  return o;
}

struct Outcome {
  std::vector<std::uint8_t> state;
  std::string report;
};

Outcome outcomeOf(Netlist& nl, sim::Simulator& s) {
  return {s.ctx().packState(), sim::runReport(nl, s.ctx())};
}

/// Runs two simulators over `nl` — in turn on this thread, or at once on two
/// — and requires each to end where `alone` did.
void expectBothMatchAlone(Netlist& nl, const Mode& m, const Outcome& alone,
                          bool threaded) {
  sim::Simulator a(nl, optionsFor(m));
  sim::Simulator b(nl, optionsFor(m));
  if (threaded) {
    std::thread other([&a] { a.run(kCycles); });
    b.run(kCycles);
    other.join();
  } else {
    for (std::uint64_t c = 0; c < kCycles; ++c) {
      a.step();
      b.step();
    }
  }
  for (sim::Simulator* s : {&a, &b}) {
    const Outcome got = outcomeOf(nl, *s);
    EXPECT_EQ(got.report, alone.report);
    EXPECT_TRUE(got.state == alone.state) << "packState() differs";
  }
}

void checkEveryDesignAndMode(bool threaded) {
  for (const char* design : kDesigns) {
    Netlist nl = build(design);
    for (const Mode& m : kModes) {
      SCOPED_TRACE(std::string(design) + ", " + m.name);
      Outcome alone;
      {
        sim::Simulator s(nl, optionsFor(m));
        s.run(kCycles);
        alone = outcomeOf(nl, s);
      }
      expectBothMatchAlone(nl, m, alone, threaded);
    }
  }
}

TEST(SharedNetlist, TwoContextsSteppedInTurnMatchOneContextAlone) {
  checkEveryDesignAndMode(/*threaded=*/false);
}

TEST(SharedNetlist, TwoContextsOnTwoThreadsMatchOneContextAlone) {
  checkEveryDesignAndMode(/*threaded=*/true);
}

}  // namespace
}  // namespace esl
