#include <gtest/gtest.h>

#include "backend/smv.h"
#include "backend/verilog.h"
#include "netlist/dot.h"
#include "netlist/patterns.h"
#include "netlist/synth.h"
#include "protocol_reference.h"

namespace esl {
namespace {

std::size_t countOccurrences(const std::string& hay, const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

TEST(Verilog, EmitsControllerLibraryForSpeculativeLoop) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  const std::string v = backend::emitVerilog(sys.nl, "fig1d");
  EXPECT_NE(v.find("module esl_eb "), std::string::npos);
  EXPECT_NE(v.find("module esl_fork4"), std::string::npos);
  EXPECT_NE(v.find("module esl_eemux2"), std::string::npos);
  EXPECT_NE(v.find("module esl_shared2"), std::string::npos);
  EXPECT_NE(v.find("module fig1d"), std::string::npos);
  // Balanced module/endmodule.
  EXPECT_EQ(countOccurrences(v, "module ") - countOccurrences(v, "endmodule"),
            countOccurrences(v, "endmodule") == 0 ? 1 : 0);
  EXPECT_EQ(countOccurrences(v, "\nendmodule"), countOccurrences(v, "\nmodule ") + 0);
}

TEST(Verilog, OneInstancePerNode) {
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  const std::string v = backend::emitVerilog(sys.nl);
  // Instances are named u_<id>.
  for (const NodeId id : sys.nl.nodeIds()) {
    const Node& n = sys.nl.node(id);
    if (n.kindName() == "source" || n.kindName() == "sink") continue;
    EXPECT_NE(v.find("u_" + std::to_string(id) + " "), std::string::npos)
        << "missing instance for " << n.name();
  }
  // Every channel has a wire bundle.
  for (const ChannelId id : sys.nl.channelIds())
    EXPECT_NE(v.find("ch" + std::to_string(id) + "_vf"), std::string::npos);
}

TEST(Verilog, EnvironmentsBecomePorts) {
  auto sys = patterns::buildTable1({0, 1});
  const std::string v = backend::emitVerilog(sys.nl);
  EXPECT_NE(v.find("input wire src0_vf"), std::string::npos);
  EXPECT_NE(v.find("output wire sink_vf"), std::string::npos);
}

TEST(Verilog, DatapathStubsMarked) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kNonSpeculative);
  const std::string v = backend::emitVerilog(sys.nl);
  EXPECT_NE(v.find("DATAPATH STUB"), std::string::npos);
}

TEST(Smv, EmitsMainModuleWithSpecs) {
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  const std::string m = backend::emitSmv(sys.nl);
  EXPECT_NE(m.find("MODULE main"), std::string::npos);
  EXPECT_NE(m.find("LTLSPEC"), std::string::npos);
  EXPECT_NE(m.find("-- Retry+"), std::string::npos);
  EXPECT_NE(m.find("-- Invariant"), std::string::npos);
  // Every channel gets at least the two invariant specs.
  const std::size_t channels = sys.nl.channelIds().size();
  EXPECT_GE(countOccurrences(m, "LTLSPEC"), channels * 3);
}

TEST(Smv, SharedModuleSchedulerIsFree) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  const std::string m = backend::emitSmv(sys.nl);
  EXPECT_NE(m.find("free scheduler"), std::string::npos);
}

TEST(Smv, NonPersistentChannelsSkipRetryPlus) {
  // Channels downstream of a shared module must not carry the Retry+ spec.
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  const std::string m = backend::emitSmv(sys.nl);
  // Count Retry+ specs: only persistent channels get one.
  const std::vector<bool> table = sys.nl.channelPersistence();
  std::size_t persistent = 0;
  for (const ChannelId id : sys.nl.channelIds())
    if (table[id]) ++persistent;
  EXPECT_EQ(countOccurrences(m, "-- Retry+"), persistent);
  EXPECT_LT(persistent, sys.nl.channelIds().size());
}

/// Checks Netlist::channelPersistence() channel by channel against the
/// per-channel backward walk it replaced; returns the non-persistent count.
std::size_t expectPersistenceMatchesWalk(const Netlist& nl) {
  const std::vector<bool> table = nl.channelPersistence();
  EXPECT_EQ(table.size(), nl.channelCapacity());
  std::size_t nonPersistent = 0;
  for (const ChannelId ch : nl.channelIds()) {
    EXPECT_EQ(table[ch], test::walkIsPersistent(nl, ch)) << nl.channel(ch).name;
    if (!table[ch]) ++nonPersistent;
  }
  return nonPersistent;
}

TEST(NetlistPersistence, ForwardPassMatchesPerChannelWalk) {
  std::size_t nonPersistent = 0;
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    nonPersistent += expectPersistenceMatchesWalk(patterns::buildDesign(name));
  }
  // The shared-module designs spread non-persistence through funcs and muxes.
  EXPECT_GT(nonPersistent, 0u);
  for (const auto topology :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      synth::SynthConfig cfg;
      cfg.topology = topology;
      cfg.targetNodes = 400;
      cfg.seed = seed;
      cfg.vluPermille = 100;
      SCOPED_TRACE(synth::describe(cfg));
      expectPersistenceMatchesWalk(synth::buildNetlist(cfg));
    }
  }
}

TEST(Smv, EnvironmentFairnessEmitted) {
  auto sys = patterns::buildTable1({0, 1});
  const std::string m = backend::emitSmv(sys.nl);
  EXPECT_GE(countOccurrences(m, "FAIRNESS"), 3u);  // 3 sources + 1 sink
}

TEST(Dot, RendersGraph) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  const std::string dot = netlist::toDot(sys.nl, "fig1d");
  EXPECT_NE(dot.find("digraph \"fig1d\""), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // EBs as boxes
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);  // logic as ellipses
  EXPECT_EQ(countOccurrences(dot, " -> "), sys.nl.channelIds().size());
}

}  // namespace
}  // namespace esl

// --- BLIF emitter -----------------------------------------------------------

#include "backend/blif.h"

#include <sstream>

namespace esl {
namespace {

/// Minimal structural validator: every .names row must match its input count,
/// every .latch must have 3 fields, the model must open and close.
void validateBlif(const std::string& blif) {
  std::istringstream is(blif);
  std::string line;
  int namesInputs = -1;
  bool sawModel = false, sawEnd = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == ".model") sawModel = true;
    if (tok == ".end") sawEnd = true;
    if (tok == ".names") {
      std::vector<std::string> sigs;
      std::string s;
      while (ls >> s) sigs.push_back(s);
      ASSERT_GE(sigs.size(), 1u);
      namesInputs = static_cast<int>(sigs.size()) - 1;
    } else if (tok == ".latch") {
      std::string in, out, init;
      ls >> in >> out >> init;
      EXPECT_TRUE(init == "0" || init == "1") << line;
      namesInputs = -1;
    } else if (tok[0] != '.') {
      // cover row: "<pattern> 1"
      ASSERT_GE(namesInputs, 0) << "row outside .names: " << line;
      std::string one;
      ls >> one;
      if (namesInputs == 0) {
        EXPECT_EQ(tok, "1") << line;  // constant-1
      } else {
        EXPECT_EQ(static_cast<int>(tok.size()), namesInputs) << line;
        EXPECT_EQ(one, "1") << line;
      }
    }
  }
  EXPECT_TRUE(sawModel && sawEnd);
}

TEST(Blif, Table1SystemEmitsValidStructure) {
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  const std::string blif = backend::emitBlif(sys.nl, "table1_ctrl");
  EXPECT_NE(blif.find(".model table1_ctrl"), std::string::npos);
  validateBlif(blif);
  // The select value and the scheduler are primary inputs of the model.
  EXPECT_NE(blif.find("_sel"), std::string::npos);
  EXPECT_NE(blif.find("_sched"), std::string::npos);
}

TEST(Blif, SpeculativeLoopEmitsLatchesForAllState) {
  auto sys = patterns::buildFig1(patterns::Fig1Variant::kSpeculative);
  const std::string blif = backend::emitBlif(sys.nl);
  validateBlif(blif);
  // EB: 4 latches (2-bit token + 2-bit anti counters); fork: 4 done bits;
  // EE mux: 2x2 pending bits.
  EXPECT_EQ(countOccurrences(blif, ".latch"), 4u + 4u + 4u);
}

TEST(Blif, Eb0PipelineHasOneLatchPerBuffer) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 4, TokenSource::counting(4));
  auto& a = nl.make<ElasticBuffer0>("a", 4);
  auto& b = nl.make<ElasticBuffer0>("b", 4);
  auto& sink = nl.make<TokenSink>("sink", 4);
  nl.connect(src, 0, a, 0);
  nl.connect(a, 0, b, 0);
  nl.connect(b, 0, sink, 0);
  const std::string blif = backend::emitBlif(nl);
  validateBlif(blif);
  EXPECT_EQ(countOccurrences(blif, ".latch"), 2u);
}

TEST(Blif, UnsupportedNodeThrows) {
  auto sys = patterns::buildStallingVlu();  // StallingVLU has no BLIF template
  EXPECT_THROW(backend::emitBlif(sys.nl), EslError);
}

TEST(Blif, WideSelectRejected) {
  Netlist nl;
  auto& sel = nl.make<TokenSource>("sel", 2, TokenSource::counting(2));
  auto& d0 = nl.make<TokenSource>("d0", 4, TokenSource::counting(4));
  auto& d1 = nl.make<TokenSource>("d1", 4, TokenSource::counting(4));
  auto& d2 = nl.make<TokenSource>("d2", 4, TokenSource::counting(4));
  auto& mux = nl.make<EarlyEvalMux>("mux", 3, 2, 4);
  auto& sink = nl.make<TokenSink>("sink", 4);
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  nl.connect(d1, 0, mux, 2);
  nl.connect(d2, 0, mux, 3);
  nl.connect(mux, 0, sink, 0);
  EXPECT_THROW(backend::emitBlif(nl), EslError);
}

}  // namespace
}  // namespace esl
