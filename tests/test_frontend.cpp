// Tests for the textual .esl netlist IR (src/frontend + src/elastic/registry):
//  * print -> parse -> print fixpoint for every paper design and for seeded
//    synth configs across all four families (shrink-on-failure);
//  * parsed-vs-built behavioural identity: bit-identical packState traces
//    every cycle plus identical sink transfer streams;
//  * the committed golden examples/designs/*.esl files stay in sync with the
//    C++ builders;
//  * ModelChecker exploration from a parsed NetlistSpec matches the borrowed
//    C++ netlist fingerprint for 1 and 2 workers;
//  * the Netlist name index (findNode/findChannel, renameNode) and parser
//    error reporting.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "diff_kernels_util.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "netlist/stdlib.h"
#include "netlist/synth.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "verify/checker.h"

namespace esl {
namespace {

using frontend::checkRoundTrip;
using frontend::parseEsl;
using frontend::printEsl;

std::string goldenPath(const std::string& design) {
  return std::string(ESL_SOURCE_DIR) + "/examples/designs/" + design + ".esl";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `a` and `b` in lockstep and returns the first divergence: packed
/// netlist state is compared after EVERY cycle, sink transfer streams at the
/// end — the same oracle the kernel differential fuzz uses.
std::optional<std::string> lockstepDiff(Netlist& a, Netlist& b,
                                        std::uint64_t cycles) {
  sim::SimOptions opts;
  opts.checkProtocol = false;
  sim::Simulator sa(a, opts);
  sim::Simulator sb(b, opts);
  test::logSinks(sa);
  test::logSinks(sb);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    sa.step();
    sb.step();
    if (sa.ctx().packState() != sb.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c);
  }
  const auto sinksOf = [](Netlist& nl) {
    std::vector<const TokenSink*> sinks;
    for (const NodeId id : nl.nodeIds())
      if (const auto* sink = dynamic_cast<const TokenSink*>(&nl.node(id)))
        sinks.push_back(sink);
    return sinks;
  };
  const auto sa_sinks = sinksOf(a);
  const auto sb_sinks = sinksOf(b);
  if (sa_sinks.size() != sb_sinks.size()) return "sink sets differ";
  for (std::size_t s = 0; s < sa_sinks.size(); ++s) {
    const auto& ta = sa.ctx().transfers(sa_sinks[s]->input(0));
    const auto& tb = sb.ctx().transfers(sb_sinks[s]->input(0));
    if (ta.size() != tb.size())
      return "sink '" + sa_sinks[s]->name() + "' transfer counts differ (" +
             std::to_string(ta.size()) + " vs " + std::to_string(tb.size()) + ")";
    for (std::size_t i = 0; i < ta.size(); ++i)
      if (ta[i].cycle != tb[i].cycle || !(ta[i].data == tb[i].data))
        return "sink '" + sa_sinks[s]->name() + "' transfer " + std::to_string(i) +
               " differs";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Paper designs
// ---------------------------------------------------------------------------

TEST(EslFormat, EveryPaperDesignRoundTripsAndPrintsAFixpoint) {
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    EXPECT_NO_THROW(checkRoundTrip(patterns::designSpec(name)));
  }
}

TEST(EslFormat, ParsedPaperDesignsMatchBuildersBitForBit) {
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    Netlist built = patterns::buildDesign(name);
    Netlist parsed =
        parseEsl(printEsl(patterns::designSpec(name)), name + ".esl").build();
    const auto diff = lockstepDiff(built, parsed, 300);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

TEST(EslFormat, CommittedGoldenFilesMatchTheBuilders) {
  // Regenerate with: ./build/esl <design> --save examples/designs/<design>.esl
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(slurp(goldenPath(name)), printEsl(patterns::designSpec(name)))
        << "golden file drifted from the C++ builder; regenerate it";
  }
}

TEST(EslFormat, GoldenFilesSimulateIdenticallyToBuilders) {
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    Netlist built = patterns::buildDesign(name);
    Netlist parsed = frontend::buildEslFile(goldenPath(name));
    const auto diff = lockstepDiff(built, parsed, 300);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

// ---------------------------------------------------------------------------
// Property test over synth configs (print/parse fixpoint + sim equivalence)
// ---------------------------------------------------------------------------

std::optional<std::string> specTripDiff(const synth::SynthConfig& cfg,
                                        std::uint64_t cycles) {
  try {
    const NetlistSpec spec = synth::spec(cfg);
    const std::string text = checkRoundTrip(spec);
    Netlist parsed = parseEsl(text, "<synth>").build();
    Netlist built = synth::buildNetlist(cfg);
    return lockstepDiff(built, parsed, cycles);
  } catch (const EslError& e) {
    return std::string("exception: ") + e.what();
  }
}

TEST(EslFormat, SynthFamiliesRoundTripAndSimulateIdentically) {
  std::vector<synth::SynthConfig> configs;
  for (const auto topology :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const std::uint64_t seed : {1ull, 42ull}) {
      synth::SynthConfig cfg;
      cfg.topology = topology;
      cfg.targetNodes = 40;
      cfg.width = 16;
      cfg.seed = seed;
      configs.push_back(cfg);

      cfg.injectPeriod = 5;
      cfg.bufferCapacity = 3;
      cfg.width = 8;
      configs.push_back(cfg);
    }
  }
  {  // variable-latency stages exercise the stalling-vlu kind
    synth::SynthConfig cfg;
    cfg.topology = synth::Topology::kPipeline;
    cfg.targetNodes = 30;
    cfg.vluPermille = 400;
    cfg.seed = 9;
    configs.push_back(cfg);
  }

  for (synth::SynthConfig cfg : configs) {
    std::uint64_t cycles = 200;
    auto diff = specTripDiff(cfg, cycles);
    if (diff) {
      // Shrink-on-failure (shared with the kernel differential fuzz): report
      // the smallest config that still fails.
      test::shrinkSynthConfig(cfg, cycles,
                              [](const synth::SynthConfig& candidate,
                                 std::uint64_t candidateCycles) {
                                return specTripDiff(candidate, candidateCycles)
                                    .has_value();
                              });
      FAIL() << "esl round-trip divergence on " << synth::describe(cfg) << " ("
             << cycles << " cycles): " << *specTripDiff(cfg, cycles);
    }
  }
}

TEST(EslFormat, NondetSynthSpecsRoundTrip) {
  for (const auto topology :
       {synth::Topology::kPipeline, synth::Topology::kSpecLadder}) {
    synth::SynthConfig cfg;
    cfg.topology = topology;
    cfg.targetNodes = 8;
    cfg.width = 1;
    cfg.nondetEnv = true;
    SCOPED_TRACE(synth::describe(cfg));
    EXPECT_NO_THROW(checkRoundTrip(synth::spec(cfg)));
  }
}

// ---------------------------------------------------------------------------
// ModelChecker from a parsed NetlistSpec
// ---------------------------------------------------------------------------

TEST(EslFormat, CheckerExploresParsedSpecIdenticallyToBorrowedNetlist) {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kPipeline;
  cfg.targetNodes = 8;
  cfg.width = 1;
  cfg.seed = 3;
  cfg.nondetEnv = true;

  Netlist reference = synth::buildNetlist(cfg);
  verify::ModelChecker serial(reference);
  serial.explore();

  const Netlist parsed = parseEsl(printEsl(synth::spec(cfg)), "<checker>").build();
  for (const unsigned workers : {1u, 2u}) {
    verify::CheckerOptions opts;
    opts.workers = workers;
    verify::ModelChecker fromSpec(parsed, opts);
    fromSpec.explore();
    EXPECT_EQ(serial.graphFingerprint(), fromSpec.graphFingerprint())
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Parser errors + format details
// ---------------------------------------------------------------------------

TEST(EslFormat, ParserReportsLineNumbers) {
  EXPECT_THROW(parseEsl("node eb x width=8;", "f.esl"), ParseError);  // no header
  try {
    parseEsl("esl 1;\nnode eb pc width=8\n", "f.esl");  // missing ';'
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("f.esl:2"), std::string::npos) << e.what();
  }
  EXPECT_THROW(parseEsl("esl 2;\n", "f.esl"), ParseError);           // bad version
  EXPECT_THROW(parseEsl("esl 1;\nfrobnicate;\n", "f.esl"), ParseError);
  EXPECT_THROW(parseEsl("esl 1;\nchannel a.b -> c.in0;\n", "f.esl"), ParseError);
  // A port index above 32 bits is refused, not wrapped to another port.
  try {
    parseEsl("esl 1;\n\nchannel src.out4294967296 -> k.in0;\n", "f.esl");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("f.esl:3"), std::string::npos) << e.what();
  }
}

TEST(EslFormat, ParserErrorsArePinned) {
  // Every parser error path with its exact message.
  struct Case {
    const char* text;
    const char* message;
  };
  const Case cases[] = {
      {"", "f.esl:0: missing 'esl 1;' header"},
      {"# only a comment\n", "f.esl:1: missing 'esl 1;' header"},
      {"node eb x width=8;\n", "f.esl:1: expected 'esl 1;' header first"},
      {"# c\nnode eb x width=8;\nesl 1;\n", "f.esl:2: expected 'esl 1;' header first"},
      {"esl 1;\nesl 1;\n", "f.esl:2: unknown statement 'esl'"},
      {"esl;\n", "f.esl:1: expected 'esl 1;' header first"},
      {"esl 1 2;\n", "f.esl:1: expected 'esl 1;' header first"},
      {"esl 2;\n", "f.esl:1: unsupported format version '2'"},
      {"esl 1;\nnode eb pc width=8\n", "f.esl:2: statement does not end with ';'"},
      {"esl 1;\n;\n", "f.esl:2: empty statement"},
      {"esl 1;\nfrobnicate;\n", "f.esl:2: unknown statement 'frobnicate'"},
      {"esl 1;\nnode eb;\n", "f.esl:2: usage: node <kind> <name> [k=v...]"},
      {"esl 1;\nnode;\n", "f.esl:2: usage: node <kind> <name> [k=v...]"},
      {"esl 1;\nchannel a.out0 b.in0;\n",
       "f.esl:2: usage: channel <prod>.out<P> -> <cons>.in<Q> [name=...]"},
      {"esl 1;\nchannel a.out0 ->;\n",
       "f.esl:2: usage: channel <prod>.out<P> -> <cons>.in<Q> [name=...]"},
      {"esl 1;\nchannel a.b -> c.in0;\n",
       "f.esl:2: expected endpoint '<node>.out<port>', got 'a.b'"},
      {"esl 1;\nchannel .out0 -> c.in0;\n",
       "f.esl:2: expected endpoint '<node>.out<port>', got '.out0'"},
      {"esl 1;\nchannel a.out -> c.in0;\n",
       "f.esl:2: expected endpoint '<node>.out<port>', got 'a.out'"},
      {"esl 1;\nchannel a.out1x -> c.in0;\n",
       "f.esl:2: expected endpoint '<node>.out<port>', got 'a.out1x'"},
      {"esl 1;\nchannel a.out0 -> c.out0;\n",
       "f.esl:2: expected endpoint '<node>.in<port>', got 'c.out0'"},
      {"esl 1;\nchannel a.out0 -> c.in-1;\n",
       "f.esl:2: expected endpoint '<node>.in<port>', got 'c.in-1'"},
      {"esl 1;\nnode eb x width;\n", "f.esl:2: expected key=value attribute, got 'width'"},
      {"esl 1;\nnode eb x =8;\n", "f.esl:2: expected key=value attribute, got '=8'"},
      {"esl 1;\nchannel a.out0 -> b.in0 foo;\n",
       "f.esl:2: expected key=value attribute, got 'foo'"},
      {"esl 1;\nnode eb x.out0 width=8;\n",
       "f.esl:2: node name 'x.out0': must not end in .out<N>/.in<N> (reserved for "
       "channel endpoint references)"},
      {"esl 1;\nnode eb x$ width=8;\n", "f.esl:2: node name 'x$': illegal character '$'"},
      // A port index above 32 bits, an unknown channel attribute and a key
      // given twice are refused at their line too.
      {"esl 1;\nchannel src.out4294967296 -> k.in0;\n",
       "f.esl:2: endpoint 'src.out4294967296': port index is above the limit of "
       "4294967295"},
      {"esl 1;\nchannel src.out0 -> k.in99999999999999999999;\n",
       "f.esl:2: endpoint 'k.in99999999999999999999': port index is above the limit "
       "of 4294967295"},
      {"esl 1;\nchannel a.out0 -> b.in0 nmae=x;\n",
       "f.esl:2: channel statement: unknown attribute(s): nmae"},
      {"esl 1;\nnode sink k width=8 width=16;\n",
       "f.esl:2: attribute 'width' is given twice"},
      {"esl 1;\nchannel a.out0 -> b.in0 name=x name=y;\n",
       "f.esl:2: attribute 'name' is given twice"},
  };
  for (const Case& c : cases) {
    try {
      parseEsl(c.text, "f.esl");
      ADD_FAILURE() << "parsed: " << c.text;
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), c.message) << c.text;
    }
  }

  // Spellings that parse, each with the text it prints as.
  const Case accepted[] = {
      {"esl 1;\r\nnode eb a width=8;\r\n", "esl 1;\nnode eb a width=8;\n"},
      {"esl\t1;\nnode\teb\ta\twidth=8\t;\n", "esl 1;\nnode eb a width=8;\n"},
      {"esl 1;\nchannel s.out0->k.in0;\n", "esl 1;\nchannel s.out0 -> k.in0;\n"},
      {"esl 1;\nnode sink k width=8 ;\n", "esl 1;\nnode sink k width=8;\n"},
      {"esl 1;\nnode sink k width=8;", "esl 1;\nnode sink k width=8;\n"},
      {"esl 1; # header\nnode sink k width=8; # trailing ; comment\n",
       "esl 1;\nnode sink k width=8;\n"},
      {"esl 1;\nchannel a.out0->b.in0 name=x ;\n",
       "esl 1;\nchannel a.out0 -> b.in0 name=x;\n"},
      {"esl 1;\nchannel a.out007 -> b.in00;\n", "esl 1;\nchannel a.out7 -> b.in0;\n"},
      {"esl 1;\nnode func f in=8,8 out=8 fn.k==x=;\n",
       "esl 1;\nnode func f in=8,8 out=8 fn.k==x=;\n"},
      {"esl 1;\nchannel a.out0 -> b.in0 name=;\n", "esl 1;\nchannel a.out0 -> b.in0;\n"},
      {"esl 1;\nchannel x.out.out3 -> y.in.in4;\n",
       "esl 1;\nchannel x.out.out3 -> y.in.in4;\n"},
      {"esl 1;\nchannel src.out4294967295 -> k.in0;\n",
       "esl 1;\nchannel src.out4294967295 -> k.in0;\n"},
      {"\n\n  esl 1 ;\n\f\v\n", "esl 1;\n"},
  };
  for (const Case& c : accepted) EXPECT_EQ(printEsl(parseEsl(c.text, "f.esl")), c.message);
}

TEST(EslFormat, BuildRejectsUnknownKindsAttributesAndWiring) {
  stdlib::ensureRegistered();
  const auto build = [](const std::string& text) {
    return parseEsl(text, "<t>").build();
  };
  // Unknown kind.
  EXPECT_THROW(build("esl 1;\nnode warp x width=8;\n"), NetlistError);
  // Unknown (misspelled) attribute is rejected, not ignored.
  EXPECT_THROW(build("esl 1;\nnode eb x width=8 capacty=4;\n"), NetlistError);
  // Payloads wider than the channel are rejected in decimal and hex alike.
  EXPECT_THROW(build("esl 1;\nnode eb x width=8 init=256;\n"), NetlistError);
  EXPECT_THROW(build("esl 1;\nnode eb x width=8 init=0x100;\n"), NetlistError);
  // Unknown fn.
  EXPECT_THROW(
      build("esl 1;\nnode func f in=8 out=8 fn=no-such-fn;\n"), NetlistError);
  // Duplicate node name.
  EXPECT_THROW(build("esl 1;\nnode eb x width=8;\nnode eb x width=8;\n"),
               NetlistError);
  // Unknown endpoint node.
  EXPECT_THROW(build("esl 1;\nnode eb x width=8;\nchannel x.out0 -> y.in0;\n"),
               NetlistError);
  // Unbound ports fail validate() (which reports through the base EslError).
  EXPECT_THROW(build("esl 1;\nnode eb x width=8;\n"), EslError);
}

TEST(EslFormat, BuildRefusesCountsAndWidthsThatWouldNarrow) {
  // Each design is complete and well-formed but for one value that does not
  // fit the field it sets: a 32-bit width or capacity, or the int that holds
  // an eb's cap, acap or ainit.
  stdlib::ensureRegistered();
  const auto refusal = [](const std::string& text) -> std::string {
    try {
      parseEsl("esl 1;\n" + text, "<t>").build();
    } catch (const NetlistError& e) {
      return e.what();
    }
    return "built";
  };
  const auto ebWith = [](const std::string& attrs) {
    return "node source src width=8 gen=counting;\n"
           "node eb b width=8 " + attrs + ";\n"
           "node sink k width=8;\n"
           "channel src.out0 -> b.in0;\n"
           "channel b.out0 -> k.in0;\n";
  };
  struct Case {
    std::string text, attribute, limit;
  };
  const std::vector<Case> cases = {
      {"node source src width=4294967304 gen=counting;\n"
       "node sink k width=8;\n"
       "channel src.out0 -> k.in0;\n",
       "attribute 'width'", "4294967295"},
      {ebWith("cap=4294967298"), "attribute 'cap'", "4294967295"},
      {ebWith("cap=4294967295"), "attribute 'cap'", "range of int"},
      {ebWith("acap=2147483648"), "attribute 'acap'", "range of int"},
      {ebWith("ainit=4294967297"), "attribute 'ainit'", "range of int"},
      {ebWith("ainit=-18446744073709551615"), "attribute 'ainit'",
       "64-bit signed range"},
      {ebWith("ainit=-9223372036854775808"), "attribute 'ainit'", "range of int"},
  };
  for (const Case& c : cases) {
    const std::string msg = refusal(c.text);
    EXPECT_NE(msg.find(c.attribute), std::string::npos) << c.text << msg;
    EXPECT_NE(msg.find(c.limit), std::string::npos) << c.text << msg;
  }
  // The largest ainit an int holds still builds.
  EXPECT_EQ(refusal(ebWith("acap=2147483647 ainit=2147483647")), "built");
}

TEST(EslFormat, AttributesSurviveVerbatimIncludingHex) {
  // The fixpoint holds for non-canonical spellings too: attributes are
  // preserved verbatim, not re-serialized.
  const std::string text =
      "esl 1;\n"
      "node source s width=8 gen=counting gen.base=0x10;\n"
      "node eb x width=8 cap=0x4;\n"
      "node sink k width=8;\n"
      "channel s.out0 -> x.in0;\n"
      "channel x.out0 -> k.in0 name=out;\n";
  const NetlistSpec spec = parseEsl(text, "<t>");
  EXPECT_EQ(printEsl(parseEsl(printEsl(spec), "<t2>")), printEsl(spec));
  Netlist nl = spec.build();
  EXPECT_EQ(static_cast<const ElasticBuffer&>(*nl.findNode("x")).capacity(), 4u);
}

// ---------------------------------------------------------------------------
// Netlist name index
// ---------------------------------------------------------------------------

TEST(EslFormat, FromNetlistRejectsUnrepresentableChannelNames) {
  // A name the format cannot print must fail at save time, not at reload.
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, sink, 0, "my chan");
  EXPECT_THROW(NetlistSpec::fromNetlist(nl), NetlistError);
}

TEST(NetlistNameIndex, ConstLookupAndRename) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& sink = nl.make<TokenSink>("sink", 8);
  const ChannelId ch = nl.connect(src, 0, sink, 0, "wire");

  const Netlist& cnl = nl;
  ASSERT_NE(cnl.findNode("src"), nullptr);
  EXPECT_EQ(cnl.findNode("src")->id(), src.id());
  EXPECT_EQ(cnl.findNode("nope"), nullptr);
  ASSERT_NE(cnl.findChannel("wire"), nullptr);
  EXPECT_EQ(cnl.findChannel("wire")->id, ch);

  nl.renameNode(src.id(), "origin");
  EXPECT_EQ(nl.findNode("src"), nullptr);
  ASSERT_NE(nl.findNode("origin"), nullptr);
  EXPECT_EQ(nl.findNode("origin")->id(), src.id());

  // Structural mutation keeps the index coherent.
  nl.disconnect(ch);
  EXPECT_EQ(nl.findChannel("wire"), nullptr);
}

TEST(NetlistNameIndex, DuplicateNamesKeepFirstInsertionWins) {
  Netlist nl;
  auto& a = nl.make<TokenSink>("dup", 8);
  nl.make<TokenSink>("dup", 8);
  EXPECT_EQ(nl.findNode("dup")->id(), a.id());
}

}  // namespace
}  // namespace esl
