// The SELF protocol monitor (paper §3.1) pinned message for message:
//   * against a plain per-channel reference monitor (protocol_reference.h) on
//     fault-injected designs spanning several 64-channel plane groups, in
//     every execution mode — sharding permutes the board's slot order, so the
//     sharded runs pin that messages still come out in channel order;
//   * one directed case per message, with its exact text, on a channel in the
//     first plane group and on one in a later group;
//   * throw-on-first: with throwOnViolation the monitor throws the first
//     message in channel order and records nothing after it;
//   * across a packState()/unpackState() split: the kept cycle travels in the
//     snapshot, so a split run reports exactly what the unsplit run does.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "elastic/buffer.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/shared.h"
#include "frontend/esl_format.h"
#include "protocol_reference.h"
#include "sim/simulator.h"

namespace esl {
namespace {

struct Mode {
  const char* name;
  SimContext::Backend backend;
  unsigned shards;
};

const Mode kModes[] = {
    {"interpreted", SimContext::Backend::kInterpreted, 1},
    {"compiled", SimContext::Backend::kCompiled, 1},
    {"shards2", SimContext::Backend::kInterpreted, 2},
    {"shards3", SimContext::Backend::kInterpreted, 3},
    {"compiled-shards2", SimContext::Backend::kCompiled, 2},
};

sim::SimOptions optionsFor(const Mode& m, bool throwOnViolation = false) {
  sim::SimOptions o;
  o.checkProtocol = true;
  o.throwOnViolation = throwOnViolation;
  o.backend = m.backend;
  o.shards = m.shards;
  return o;
}

/// `lanes` independent lanes of 7-8 channels each. Most lanes fork a gated
/// counting source into a broken-eb (overwrites a stalled token: Retry+ data
/// violations) and a sound EB that meet at an early-evaluation mux; the mux's
/// anti-tokens hit the broken-eb, which cannot take them (kill with S- set).
/// Every fourth lane routes through a round-robin shared module instead,
/// whose outputs — and the function stage behind one of them — are
/// non-persistent, so their vanishing stopped tokens must not be reported.
/// Sinks stall periodically to create back-pressure.
std::string faultyLanes(unsigned lanes) {
  std::ostringstream os;
  os << "esl 1;\n";
  for (unsigned i = 0; i < lanes; ++i) {
    const std::string p = "l" + std::to_string(i) + ".";
    os << "node source " << p << "src width=8 gen=counting gen.base=" << 16 * i
       << " gate=period gate.period=" << 1 + i % 3 << ";\n"
       << "node fork " << p << "fork width=8 branches=2;\n";
    os << "channel " << p << "src.out0 -> " << p << "fork.in0;\n";
    if (i % 4 == 3) {
      os << "node shared " << p << "F k=2 in=8 out=8 fn=id sched=rr;\n"
         << "node func " << p << "g in=8 out=8 fn=addk fn.k=3;\n"
         << "node sink " << p << "k0 width=8 ready=period ready.period=2;\n"
         << "node broken-eb " << p << "b width=8;\n"
         << "node sink " << p << "k1 width=8 ready=period ready.period=3;\n"
         << "channel " << p << "fork.out0 -> " << p << "F.in0;\n"
         << "channel " << p << "fork.out1 -> " << p << "F.in1;\n"
         << "channel " << p << "F.out0 -> " << p << "g.in0;\n"
         << "channel " << p << "g.out0 -> " << p << "k0.in0;\n"
         << "channel " << p << "F.out1 -> " << p << "b.in0;\n"
         << "channel " << p << "b.out0 -> " << p << "k1.in0;\n";
    } else {
      os << "node broken-eb " << p << "b width=8;\n"
         << "node eb " << p << "e width=8;\n"
         << "node source " << p << "sel width=1 gen=hash gen.salt=" << 7 + i << ";\n"
         << "node ee-mux " << p << "m n=2 width=8;\n"
         << "node eb " << p << "o width=8;\n"
         << "node sink " << p << "k width=8 ready=period ready.period=" << 2 + i % 3
         << ";\n"
         << "channel " << p << "fork.out0 -> " << p << "b.in0;\n"
         << "channel " << p << "fork.out1 -> " << p << "e.in0;\n"
         << "channel " << p << "sel.out0 -> " << p << "m.in0;\n"
         << "channel " << p << "b.out0 -> " << p << "m.in1;\n"
         << "channel " << p << "e.out0 -> " << p << "m.in2;\n"
         << "channel " << p << "m.out0 -> " << p << "o.in0;\n"
         << "channel " << p << "o.out0 -> " << p << "k.in0;\n";
    }
  }
  return os.str();
}

/// Runs `cycles` cycles phase by phase, comparing the monitor's output with
/// the reference after every cycle; `beforeCycle` may reconfigure the context.
/// Returns everything reported.
std::vector<std::string> runAgainstReference(
    Netlist& nl, const sim::SimOptions& opts, int cycles,
    const std::function<void(SimContext&, int)>& beforeCycle = {}) {
  sim::Simulator s(nl, opts);
  SimContext& ctx = s.ctx();
  test::ReferenceMonitor ref(nl);
  for (int c = 0; c < cycles; ++c) {
    if (beforeCycle) beforeCycle(ctx, c);
    ctx.settle();
    ctx.checkProtocol();
    ref.check(ctx);
    EXPECT_EQ(ctx.protocolViolations(), ref.violations) << "cycle " << c;
    if (ctx.protocolViolations() != ref.violations) break;
    ctx.edge();
  }
  return ref.violations;
}

TEST(ProtocolMonitor, MatchesReferenceOnFaultInjectedLanes) {
  const std::string text = faultyLanes(28);
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Netlist nl = frontend::parseEsl(text, "lanes").build();
    ASSERT_GT(nl.channelIds().size(), 3u * 64u);
    // The designs must actually exercise the monitor, in several groups.
    std::size_t data = 0, killStop = 0, lateLane = 0;
    for (const std::string& v : runAgainstReference(nl, optionsFor(mode), 300)) {
      if (v.find("data changed during retry") != std::string::npos) ++data;
      if (v.find("anti-token killed and stopped") != std::string::npos) ++killStop;
      if (v.find("channel 'l26.") != std::string::npos) ++lateLane;
    }
    EXPECT_GT(data, 0u);
    EXPECT_GT(killStop, 0u);
    EXPECT_GT(lateLane, 0u);
  }
}

TEST(ProtocolMonitor, MatchesReferenceAcrossMidRunRelayout) {
  // A shard-count change re-lays the board mid-run; the monitor's
  // previous-cycle state must survive the relayout (a Retry+ token stopped
  // the cycle before still counts).
  Netlist nl = frontend::parseEsl(faultyLanes(12), "lanes").build();
  const auto reshard = [](SimContext& ctx, int c) {
    if (c == 80) ctx.setShards(3);
    if (c == 160) ctx.setShards(2);
  };
  EXPECT_FALSE(runAgainstReference(nl, optionsFor(kModes[0]), 240, reshard).empty());
}

// --- across a save/restore ----------------------------------------------------

/// Runs `text` for `cycles` straight through, and split at every cycle in
/// [first, last]: packState() there, a fresh simulator restores it and
/// finishes the run. In every mode each split must report exactly the
/// unsplit run's messages, including a Retry+/Retry- rule whose two cycles
/// straddle the split.
void expectSplitRunsReportTheUnsplitRun(const std::string& text, std::uint64_t cycles,
                                        std::uint64_t first, std::uint64_t last) {
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Netlist whole = frontend::parseEsl(text, "split").build();
    sim::Simulator unsplit(whole, optionsFor(mode));
    unsplit.run(cycles);
    const std::vector<std::string>& want = unsplit.ctx().protocolViolations();
    ASSERT_FALSE(want.empty());
    Netlist headNl = frontend::parseEsl(text, "split").build();
    sim::Simulator head(headNl, optionsFor(mode));
    head.run(first);
    for (std::uint64_t at = first; at <= last; ++at) {
      Netlist tailNl = frontend::parseEsl(text, "split").build();
      sim::Simulator tail(tailNl, optionsFor(mode));
      tail.ctx().unpackState(head.ctx().packState());
      tail.run(cycles - at);
      std::vector<std::string> got = head.ctx().protocolViolations();
      const std::vector<std::string>& rest = tail.ctx().protocolViolations();
      got.insert(got.end(), rest.begin(), rest.end());
      EXPECT_EQ(got, want) << "split at cycle " << at;
      head.step();
    }
  }
}

TEST(ProtocolMonitor, SplitRunsReportTheUnsplitRunOnFaultInjectedLanes) {
  // The lanes wedge within a hundred cycles (the last violation is at cycle
  // 99), so the splits cover that stretch.
  expectSplitRunsReportTheUnsplitRun(faultyLanes(28), 120, 1, 100);
}

TEST(ProtocolMonitor, SplitRunsReportTheUnsplitRunOnBrokenEb) {
  // The CI design: the broken-eb overwrites a token its stalling sink has
  // stopped, a Retry+ violation every fourth cycle.
  expectSplitRunsReportTheUnsplitRun(
      "esl 1;\n"
      "node source src width=8 gen=counting;\n"
      "node broken-eb bad width=8;\n"
      "node sink sink width=8 ready=period ready.period=2;\n"
      "channel src.out0 -> bad.in0;\n"
      "channel bad.out0 -> sink.in0;\n",
      500, 240, 260);
}

// --- directed cases ----------------------------------------------------------

constexpr unsigned kStages = 100;
constexpr int kFill = 320;

/// src -> 100 EBs -> sink, channels named c0..c100 in id order, so c5 sits in
/// the first 64-channel plane group and c90 in the second. `stalled`: the sink
/// never accepts, and once the chain has filled every channel carries a
/// stopped token. Otherwise the source never offers and every channel idles.
Netlist ebChain(bool stalled, unsigned width = 8) {
  Netlist nl;
  const auto never = [](std::uint64_t) { return false; };
  Node* prev = &nl.make<TokenSource>("src", width, TokenSource::counting(width, 1),
                                     stalled ? TokenSource::Gate{} : never);
  for (unsigned i = 0; i < kStages; ++i) {
    Node& eb = nl.make<ElasticBuffer>("eb" + std::to_string(i), width);
    nl.connect(*prev, 0, eb, 0, "c" + std::to_string(i));
    prev = &eb;
  }
  auto& sink = nl.make<TokenSink>("sink", width, never);
  nl.connect(*prev, 0, sink, 0, "c" + std::to_string(kStages));
  return nl;
}

ChannelId channelNamed(const Netlist& nl, const std::string& name) {
  const Channel* c = nl.findChannel(name);
  EXPECT_NE(c, nullptr) << name;
  return c->id;
}

std::vector<std::string> one(std::uint64_t cycle, const std::string& name,
                             const std::string& what) {
  return {"cycle " + std::to_string(cycle) + ", channel '" + name + "': " + what};
}

/// In every mode, on c5 and on c90 of a filled, stalled chain: settles one
/// cycle, applies `poke` to the channel's settled signals and runs the
/// monitor, which must report exactly `what` on that channel.
void expectPokeReports(const std::function<void(Sig)>& poke, const std::string& what,
                       unsigned width = 8) {
  for (const Mode& mode : kModes) {
    for (const std::string name : {"c5", "c90"}) {
      SCOPED_TRACE(std::string(mode.name) + " " + name);
      Netlist nl = ebChain(true, width);
      sim::Simulator s(nl, optionsFor(mode));
      s.run(kFill);
      SimContext& ctx = s.ctx();
      ASSERT_TRUE(ctx.protocolViolations().empty());
      const ChannelId ch = channelNamed(nl, name);
      if (mode.shards == 1) {
        EXPECT_EQ(ctx.board().slotOf(ch) / 64, name == "c5" ? 0u : 1u);
      }
      ctx.settle();
      Sig sig = ctx.sig(ch);
      ASSERT_TRUE(sig.vf() && sig.sf() && !sig.vb()) << name << " is not a stopped token";
      poke(sig);
      ctx.checkProtocol();
      ctx.invalidateSignals();
      EXPECT_EQ(ctx.protocolViolations(), one(kFill, name, what));
    }
  }
}

TEST(ProtocolMonitor, TokenKilledAndStopped) {
  expectPokeReports(
      [](Sig s) {
        s.setVb(true);
        s.setSb(false);
      },
      "token killed and stopped (V+ S+ V-)");
}

TEST(ProtocolMonitor, AntiTokenKilledAndStopped) {
  expectPokeReports(
      [](Sig s) {
        s.setSf(false);
        s.setVb(true);
        s.setSb(true);
      },
      "anti-token killed and stopped (V- S- V+)");
}

TEST(ProtocolMonitor, StoppedTokenVanished) {
  expectPokeReports([](Sig s) { s.setVf(false); },
                    "Retry+ violated: stopped token vanished");
}

TEST(ProtocolMonitor, StoppedTokenDataChanged) {
  // 72 bits: the payload takes two words of the board's arena.
  for (const unsigned width : {8u, 72u}) {
    SCOPED_TRACE(width);
    expectPokeReports(
        [width](Sig s) { s.setData(BitVec(width, s.dataLow64() ^ 0x5A)); },
        "Retry+ persistence violated: data changed during retry", width);
  }
}

TEST(ProtocolMonitor, StoppedAntiTokenVanished) {
  // An idle chain: poke a stopped anti-token (V- S-, no token, so no channel
  // event) into one cycle; the next cycle's settle drops it again.
  for (const Mode& mode : kModes) {
    for (const std::string name : {"c5", "c90"}) {
      SCOPED_TRACE(std::string(mode.name) + " " + name);
      Netlist nl = ebChain(false);
      sim::Simulator s(nl, optionsFor(mode));
      s.run(10);
      SimContext& ctx = s.ctx();
      ctx.settle();
      Sig sig = ctx.sig(channelNamed(nl, name));
      ASSERT_FALSE(sig.vf() || sig.vb());
      sig.setVb(true);
      sig.setSb(true);
      ctx.checkProtocol();
      ctx.invalidateSignals();
      ctx.edge();
      EXPECT_TRUE(ctx.protocolViolations().empty());
      ctx.settle();
      ctx.checkProtocol();
      EXPECT_EQ(ctx.protocolViolations(),
                one(11, name, "Retry- violated: stopped anti-token vanished"));
    }
  }
}

TEST(ProtocolMonitor, NonPersistentChannelsAreExemptFromRetryPlus) {
  // src -> 70 EBs -> fork -> shared F -> {func -> sink, sink}, both sinks
  // stalled. F's outputs and the function stage behind out0 sit in the second
  // plane group and are non-persistent: F's scheduler re-predicts toward the
  // waiting input every cycle, so their stopped tokens vanish every other
  // cycle, and a poked vanish there is not a violation either. The same poke
  // on the EB-driven stem is.
  Netlist nl;
  Node* prev = &nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  for (unsigned i = 0; i < 70; ++i) {
    Node& eb = nl.make<ElasticBuffer>("eb" + std::to_string(i), 8);
    nl.connect(*prev, 0, eb, 0, "c" + std::to_string(i));
    prev = &eb;
  }
  const auto never = [](std::uint64_t) { return false; };
  auto& fork = nl.make<ForkNode>("fork", 8, 2);
  auto& shared = nl.make<SharedModule>(
      "F", 2, 8, 8, [](const BitVec& x) { return x; },
      std::make_unique<sched::StaticScheduler>(2, 0));
  auto& g = nl.make<FuncNode>("g", std::vector<unsigned>{8}, 8,
                              [](const std::vector<BitVec>& in) { return in[0]; });
  auto& k0 = nl.make<TokenSink>("k0", 8, never);
  auto& k1 = nl.make<TokenSink>("k1", 8, never);
  nl.connect(*prev, 0, fork, 0, "stem");
  nl.connect(fork, 0, shared, 0, "Fin0");
  nl.connect(fork, 1, shared, 1, "Fin1");
  nl.connect(shared, 0, g, 0, "Fout0");
  nl.connect(g, 0, k0, 0, "gout");
  nl.connect(shared, 1, k1, 0, "Fout1");
  for (const Mode& mode : kModes) {
    for (const std::string name : {"Fout0", "gout", "Fout1", "stem"}) {
      SCOPED_TRACE(std::string(mode.name) + " " + name);
      sim::Simulator s(nl, optionsFor(mode));
      s.run(kFill);
      SimContext& ctx = s.ctx();
      ASSERT_TRUE(ctx.protocolViolations().empty());
      Sig sig = ctx.sig(channelNamed(nl, name));
      ctx.settle();
      if (!sig.vf()) {  // F served the other output this cycle
        ctx.checkProtocol();
        ctx.edge();
        ctx.settle();
      }
      ASSERT_TRUE(sig.vf() && sig.sf() && !sig.vb()) << name << " is not a stopped token";
      sig.setVf(false);
      ctx.checkProtocol();
      ctx.invalidateSignals();
      EXPECT_EQ(ctx.protocolViolations(),
                name == "stem" ? one(ctx.cycle(), name,
                                     "Retry+ violated: stopped token vanished")
                               : std::vector<std::string>{});
    }
  }
}

// --- throw behaviour -----------------------------------------------------------

TEST(ProtocolMonitor, ThrowCarriesFirstMessageInChannelOrder) {
  // Two stopped tokens vanish in one cycle: the one with the lower channel id
  // sits in the highest board slot (a shard-boundary slot under sharding), the
  // other is c100. The monitor throws on the lower id and records only that.
  for (const Mode& mode : kModes) {
    SCOPED_TRACE(mode.name);
    Netlist nl = ebChain(true);
    sim::Simulator s(nl, optionsFor(mode, /*throwOnViolation=*/true));
    s.run(kFill);
    SimContext& ctx = s.ctx();
    const ChannelId last = channelNamed(nl, "c" + std::to_string(kStages));
    ChannelId first = 0;
    for (const ChannelId ch : nl.channelIds())
      if (ch != last && ctx.board().slotOf(ch) > ctx.board().slotOf(first)) first = ch;
    if (mode.shards > 1) {
      EXPECT_GT(ctx.board().slotOf(first), ctx.board().slotOf(last));
    }
    ctx.settle();
    ctx.sig(last).setVf(false);
    ctx.sig(first).setVf(false);
    const std::vector<std::string> expected =
        one(kFill, nl.channel(first).name, "Retry+ violated: stopped token vanished");
    try {
      ctx.checkProtocol();
      ADD_FAILURE() << "no ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(std::string(e.what()), expected.front());
    }
    EXPECT_EQ(ctx.protocolViolations(), expected);
  }
}

}  // namespace
}  // namespace esl
