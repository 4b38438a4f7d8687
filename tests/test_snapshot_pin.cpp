// Snapshot bytes pinned across commits.
//
// Every other identity gate compares execution modes of one build, so a
// change that moves the packState() bytes of every mode alike — a reordered
// field, a different ring rotation, a payload packed at another width —
// passes them all while breaking every snapshot and spool record already on
// disk. This table pins, after a fixed run of each design, interpreted:
//   * crc — crc32(packState()), the whole snapshot container;
//   * nodes — crc32(packStateInto()), the node section alone, which no
//     container change may move;
// and requires the compiled backend and a two-shard run to produce the same
// bytes.
//
// Coverage: every golden examples/designs/*.esl (the secded designs carry
// 72- and 144-bit payloads, so the multi-word record path is pinned), the
// four synth families, the CI broken-eb design — also with the protocol
// monitor on, which pins the kept-cycle section — and an eb0 harness between
// nondeterministic environments.
//
// A deliberate change of the container bumps kStateVersion
// (elastic/state_io.h) and regenerates the crc column in the same change.
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
  const char* name;  ///< design; a "+monitor" suffix runs the protocol monitor
  std::uint64_t cycles;
  std::uint32_t crc;    ///< crc32 of packState() after `cycles` interpreted
  std::uint32_t nodes;  ///< crc32 of packStateInto() at the same point
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
  if (name == "broken-eb" || name == "broken-eb+monitor") return brokenEb();
  if (name == "eb0-nondet") return eb0Harness();
  return golden(name);
}

const Pin kPins[] = {
    {"fig1a", 500, 0x742b3174u, 0xa63b9a7du},
    {"fig1b", 500, 0x649df7f5u, 0xeee846bfu},
    {"fig1c", 500, 0x742b3174u, 0xa63b9a7du},
    {"fig1d", 500, 0x4df7714bu, 0xdc7da6c3u},
    {"secded-pipe", 500, 0x7e1844a5u, 0x9c606511u},
    {"secded-spec", 500, 0xf33eb582u, 0x10834e03u},
    {"table1", 500, 0x8b286f40u, 0x736626ecu},
    {"vlu-spec", 500, 0x51d5301du, 0xe18fcf17u},
    {"vlu-stall", 500, 0x75ab7e8eu, 0x7c7d03a4u},
    {"synth-pipeline", 300, 0x68d296cfu, 0x7efe6075u},
    {"synth-forkjoin", 300, 0xa2ffe10du, 0xa3a276bfu},
    {"synth-specladder", 300, 0xa814934bu, 0xbd3bf1feu},
    {"synth-randomdag", 300, 0xe7efeacbu, 0xb6ac8df3u},
    {"broken-eb", 500, 0xf6c94205u, 0x67566cc8u},
    {"broken-eb+monitor", 500, 0x129f6503u, 0x67566cc8u},
    {"eb0-nondet", 500, 0x744600dfu, 0x0a3a166cu},
};

struct Packed {
  std::vector<std::uint8_t> snapshot, nodes;
};

Packed runAndPack(const Pin& pin, sim::SimOptions opts) {
  Netlist nl = build(pin.name);
  // broken-eb violates the protocol by design: the monitor records, never
  // throws.
  opts.checkProtocol = std::string(pin.name).find("+monitor") != std::string::npos;
  opts.throwOnViolation = false;
  sim::Simulator s(nl, opts);
  s.run(pin.cycles);
  Packed p;
  p.snapshot = s.ctx().packState();
  s.ctx().packStateInto(p.nodes);
  return p;
}

std::uint32_t crcOf(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

TEST(SnapshotPin, PackedBytesMatchThePinnedTable) {
  for (const Pin& pin : kPins) {
    const Packed interp = runAndPack(pin, {});
    char line[112];
    std::snprintf(line, sizeof line, "{\"%s\", %llu, 0x%08xu, 0x%08xu}", pin.name,
                  static_cast<unsigned long long>(pin.cycles), crcOf(interp.snapshot),
                  crcOf(interp.nodes));
    EXPECT_EQ(crcOf(interp.snapshot), pin.crc) << "pinned snapshot moved: " << line;
    EXPECT_EQ(crcOf(interp.nodes), pin.nodes) << "pinned node bytes moved: " << line;

    sim::SimOptions compiled;
    compiled.backend = SimContext::Backend::kCompiled;
    EXPECT_EQ(runAndPack(pin, compiled).snapshot, interp.snapshot)
        << pin.name << " compiled";
    sim::SimOptions sharded;
    sharded.shards = 2;
    EXPECT_EQ(runAndPack(pin, sharded).snapshot, interp.snapshot)
        << pin.name << " --shards 2";
  }
}

}  // namespace
}  // namespace esl
