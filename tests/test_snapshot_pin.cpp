// Snapshot bytes pinned across commits.
//
// Every other identity gate compares execution modes of one build, so a
// change that moves the packState() bytes of every mode alike — a reordered
// field, a different ring rotation, a payload packed at another width —
// passes them all while breaking every snapshot and spool record already on
// disk. This table pins crc32(packState()) after a fixed run of each design,
// interpreted, and requires the compiled backend and a two-shard run to
// produce the same bytes.
//
// Coverage: every golden examples/designs/*.esl (the secded designs carry
// 72- and 144-bit payloads, so the multi-word record path is pinned), the
// four synth families, the CI broken-eb design, and an eb0 harness between
// nondeterministic environments.
//
// A deliberate change of the snapshot format bumps
// SimContext::kSnapshotVersion and regenerates this table in the same change.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/crc32.h"
#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "test_util.h"

namespace esl {
namespace {

struct Pin {
  const char* name;
  std::uint64_t cycles;
  std::uint32_t crc;  ///< crc32 of packState() after `cycles` interpreted
};

Netlist golden(const std::string& design) {
  return frontend::parseEslFile(std::string(ESL_SOURCE_DIR) +
                                "/examples/designs/" + design + ".esl")
      .build();
}

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

Netlist brokenEb() {
  return frontend::parseEsl(
             "esl 1;\n"
             "node source src width=8 gen=counting;\n"
             "node broken-eb bad width=8;\n"
             "node sink sink width=8 ready=period ready.period=2;\n"
             "channel src.out0 -> bad.in0;\n"
             "channel bad.out0 -> sink.in0;\n",
             "broken-eb")
      .build();
}

Netlist eb0Harness() {
  Netlist nl;
  auto& src = nl.make<NondetSource>("env.src", 3, 2, 2);
  auto& z = nl.make<ElasticBuffer0>("z", 3);
  auto& eb = nl.make<ElasticBuffer>("eb", 3);
  auto& sink = nl.make<NondetSink>("env.sink", 3, 2, true);
  nl.connect(src, 0, z, 0);
  nl.connect(z, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  return nl;
}

Netlist build(const std::string& name) {
  if (name == "synth-pipeline") return family(synth::Topology::kPipeline);
  if (name == "synth-forkjoin") return family(synth::Topology::kForkJoin);
  if (name == "synth-specladder") return family(synth::Topology::kSpecLadder);
  if (name == "synth-randomdag") return family(synth::Topology::kRandomDag);
  if (name == "broken-eb") return brokenEb();
  if (name == "eb0-nondet") return eb0Harness();
  return golden(name);
}

const Pin kPins[] = {
    {"fig1a", 500, 0x3ce4f98bu},
    {"fig1b", 500, 0x156c9c41u},
    {"fig1c", 500, 0x3ce4f98bu},
    {"fig1d", 500, 0x83eacb32u},
    {"secded-pipe", 500, 0xe721a78au},
    {"secded-spec", 500, 0xe762020bu},
    {"table1", 500, 0x098beb57u},
    {"vlu-spec", 500, 0x82e1e105u},
    {"vlu-stall", 500, 0xee98fa9du},
    {"synth-pipeline", 300, 0xb0785586u},
    {"synth-forkjoin", 300, 0x376caf18u},
    {"synth-specladder", 300, 0xb5e42612u},
    {"synth-randomdag", 300, 0xb0831707u},
    {"broken-eb", 500, 0x198c2657u},
    {"eb0-nondet", 500, 0xe9a6fbe1u},
};

std::vector<std::uint8_t> runAndPack(const Pin& pin, sim::SimOptions opts) {
  Netlist nl = build(pin.name);
  opts.checkProtocol = false;  // broken-eb violates the protocol by design
  sim::Simulator s(nl, opts);
  s.run(pin.cycles);
  return s.ctx().packState();
}

std::uint32_t crcOf(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

TEST(SnapshotPin, PackedBytesMatchThePinnedTable) {
  for (const Pin& pin : kPins) {
    const std::vector<std::uint8_t> interp = runAndPack(pin, {});
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", %llu, 0x%08xu}", pin.name,
                  static_cast<unsigned long long>(pin.cycles), crcOf(interp));
    EXPECT_EQ(crcOf(interp), pin.crc) << "pinned snapshot moved: " << line;

    sim::SimOptions compiled;
    compiled.backend = SimContext::Backend::kCompiled;
    EXPECT_EQ(runAndPack(pin, compiled), interp) << pin.name << " compiled";
    sim::SimOptions sharded;
    sharded.shards = 2;
    EXPECT_EQ(runAndPack(pin, sharded), interp) << pin.name << " --shards 2";
  }
}

}  // namespace
}  // namespace esl
