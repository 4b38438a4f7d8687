#include "elastic/eemux.h"

#include <gtest/gtest.h>

#include "netlist/patterns.h"
#include "sim/trace.h"
#include "test_util.h"

namespace esl {
namespace {

using test::receivedCycles;
using test::receivedValues;

TEST(EarlyEvalMux, FiresWithoutNonSelectedInput) {
  // Select always 0; channel 1 NEVER produces a token. A join mux would
  // deadlock; the early-evaluation mux must stream channel 0 through.
  Netlist nl;
  auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
  auto& d1 = nl.make<TokenSource>(
      "d1", 8, [](std::uint64_t) -> std::optional<BitVec> { return std::nullopt; });
  auto& sel = nl.make<TokenSource>("sel", 1,
                                   [](std::uint64_t) -> std::optional<BitVec> {
                                     return BitVec(1, 0);
                                   });
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  const ChannelId ch1 = nl.connect(d1, 0, mux, 2);
  nl.connect(mux, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(10);
  EXPECT_EQ(receivedValues(s, sink), test::iota(10, 1));
  // Anti-tokens pile up as pending obligations on the dead channel.
  EXPECT_EQ(mux.antiTokensEmitted(s.ctx()), 10u);
  EXPECT_EQ(s.channelStats(ch1).kills, 0u);
}

TEST(EarlyEvalMux, AntiTokenKillsLateArrival) {
  // Channel 1's tokens arrive late; each one is annihilated by the pending
  // anti-token from the firing that skipped it.
  Netlist nl;
  auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
  auto& d1 = nl.make<TokenSource>("d1", 8, TokenSource::counting(8, 101),
                                  [](std::uint64_t c) { return c >= 3; });
  auto& sel = nl.make<TokenSource>(
      "sel", 1, [](std::uint64_t) -> std::optional<BitVec> { return BitVec(1, 0); });
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  const ChannelId ch1 = nl.connect(d1, 0, mux, 2);
  nl.connect(mux, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(20);
  EXPECT_EQ(receivedValues(s, sink), test::iota(20, 1));  // ch0 streams through
  EXPECT_GT(s.channelStats(ch1).kills, 10u);           // ch1 tokens all killed
  EXPECT_EQ(s.channelStats(ch1).fwdTransfers, 0u);
}

TEST(EarlyEvalMux, SelectOutOfRangeThrows) {
  Netlist nl;
  auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8));
  auto& d1 = nl.make<TokenSource>("d1", 8, TokenSource::counting(8));
  auto& sel = nl.make<TokenSource>(
      "sel", 2, [](std::uint64_t) -> std::optional<BitVec> { return BitVec(2, 3); });
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 2, 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  nl.connect(d1, 0, mux, 2);
  nl.connect(mux, 0, sink, 0);
  sim::Simulator s(nl);
  EXPECT_THROW(s.run(2), EslError);
}

// A producer that never offers tokens and never accepts anti-tokens: pending
// anti-tokens must persist (Retry-) at the mux input.
class StubbornProducer : public Node {
 public:
  explicit StubbornProducer(std::string name, unsigned width) : Node(std::move(name)) {
    declareOutput(width);
  }
  void evalComb(SimContext& ctx) const override {
    Sig out = ctx.sig(output(0));
    out.setVf(false);
    out.setSb(true);  // refuses anti-tokens
  }
  std::string kindName() const override { return "stubborn"; }
};

TEST(EarlyEvalMux, PendingAntiTokenPersists) {
  Netlist nl;
  auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
  auto& d1 = nl.make<StubbornProducer>("d1", 8);
  auto& sel = nl.make<TokenSource>(
      "sel", 1, [](std::uint64_t) -> std::optional<BitVec> { return BitVec(1, 0); });
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 8);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  const ChannelId ch1 = nl.connect(d1, 0, mux, 2);
  nl.connect(mux, 0, sink, 0);

  sim::Simulator s(nl);
  s.run(6);
  // Six firings, all anti-tokens blocked: V- held high (Retry-), none lost.
  EXPECT_EQ(mux.antiTokensEmitted(s.ctx()), 6u);
  EXPECT_EQ(s.channelStats(ch1).bwdTransfers, 0u);
  EXPECT_EQ(s.channelStats(ch1).kills, 0u);
  EXPECT_TRUE(s.ctx().sig(ch1).vb());
}

TEST(EarlyEvalMux, MispredictionCostsOneCycle) {
  // Static scheduler always predicts 0; select stream alternates. Every
  // select=1 firing pays one demand-correction cycle.
  auto sys = patterns::buildTable1({0, 1, 0, 1, 0, 1}, 1, 101,
                                   std::make_unique<sched::StaticScheduler>(2, 0));
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(12);
  const auto cycles = receivedCycles(s, *sys.sink);
  ASSERT_EQ(cycles.size(), 6u);
  // sel=0 fires immediately; sel=1 stalls one cycle first.
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{0, 2, 3, 5, 6, 8}));
  EXPECT_EQ(sys.shared->demandCycles(s.ctx()), 3u);
}

TEST(Table1, ReproducesThePaperTrace) {
  // Paper Table 1, including the anti-token and bubble cells. EBin at cycle 6
  // is 'F' here: the published 'G' contradicts the table's own Fout0/Sel rows
  // (documented erratum, see EXPERIMENTS.md).
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

  sim::Simulator s(sys.nl);
  s.attachTrace(&trace);
  s.run(7);

  const std::vector<std::vector<std::string>> expected = {
      {"A", "-", "C", "-", "E", "F", "F"},  // Fin0
      {"A", "-", "C", "-", "E", "*", "F"},  // Fout0
      {"-", "B", "D", "D", "-", "G", "-"},  // Fin1
      {"-", "B", "*", "D", "-", "G", "-"},  // Fout1
      {"0", "1", "1", "1", "0", "0", "0"},  // Sel
      {"0", "1", "0", "1", "0", "1", "0"},  // Sched
      {"A", "B", "*", "D", "E", "*", "F"},  // EBin ('F': paper's 'G' is a typo)
  };
  for (std::size_t row = 0; row < expected.size(); ++row)
    for (std::uint64_t cyc = 0; cyc < 7; ++cyc)
      EXPECT_EQ(trace.cell(row, cyc), expected[row][cyc])
          << "row " << trace.rowLabel(row) << " cycle " << cyc;
}

TEST(Table1, SinkReceivesSelectedStream) {
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0});
  sim::Simulator s(sys.nl);
  test::logSinks(s);
  s.run(7);
  // Firings: ch0 #1 (1), ch1 #2 (102), ch1 #3 (103), ch0 #4 (4), ch0 #5 (5).
  EXPECT_EQ(receivedValues(s, *sys.sink),
            (std::vector<std::uint64_t>{1, 102, 103, 4, 5}));
  EXPECT_EQ(receivedCycles(s, *sys.sink),
            (std::vector<std::uint64_t>{0, 1, 3, 4, 6}));
}

TEST(Table1, ProtocolHoldsThroughout) {
  auto sys = patterns::buildTable1({0, 1, 1, 0, 0, 1, 0, 1, 1, 0});
  sim::Simulator s(sys.nl, {.checkProtocol = true, .throwOnViolation = true});
  s.run(20);
  EXPECT_TRUE(s.ctx().protocolViolations().empty());
}

TEST(EarlyEvalMux, BackpressuredOutputRetries) {
  // Output stalled every other cycle: firings retry, nothing lost or reordered.
  Netlist nl;
  auto& d0 = nl.make<TokenSource>("d0", 8, TokenSource::counting(8, 1));
  auto& d1 = nl.make<TokenSource>("d1", 8, TokenSource::counting(8, 101));
  auto& sel = nl.make<TokenSource>(
      "sel", 1, [](std::uint64_t i) -> std::optional<BitVec> {
        return BitVec(1, i % 2);
      });
  auto& mux = nl.make<EarlyEvalMux>("mux", 2, 1, 8);
  auto& sink = nl.make<TokenSink>("sink", 8,
                                  [](std::uint64_t c) { return c % 2 == 1; });
  nl.connect(sel, 0, mux, 0);
  nl.connect(d0, 0, mux, 1);
  nl.connect(d1, 0, mux, 2);
  nl.connect(mux, 0, sink, 0);

  sim::Simulator s(nl);
  test::logSinks(s);
  s.run(40);
  const auto vals = receivedValues(s, sink);
  ASSERT_GE(vals.size(), 10u);
  // Alternating select: 1, 102, 3, 104, ... (each stream advances by kills).
  for (std::size_t i = 0; i < vals.size(); ++i) {
    const std::uint64_t expectedVal = (i % 2 == 0) ? 1 + i : 101 + i;
    EXPECT_EQ(vals[i], expectedVal) << "at " << i;
  }
}

}  // namespace
}  // namespace esl
