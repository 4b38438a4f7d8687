// Compiled bytecode backend: bit-identity against the interpreted kernels.
//
// The compiled backend (src/compile) lowers the netlist into an op table over
// raw SignalBoard addresses, built with the board, and runs it through the
// shared worklist / dirty-edge loops. Its contract mirrors the sharded
// kernel's: settled signals, packed state and sink streams are bit-identical
// to the interpreted event-driven kernel, cycle by cycle — enforced here over
// every golden .esl design and the C++-built and Shannon-decomposed Fig. 1
// designs, all four synthetic topology families (with shrink-on-failure),
// payload width boundaries around one- and multi-word payloads, nondeterministic
// environments, snapshot round-trips through the compiled backend,
// recompilation after netlist surgery, and every core catalog op, on both
// backends and both sides of the word/object split, against an independent
// closure — once both views evaluate the op through one template, those
// closures and the snapshot pins are the only independent reference for
// what the catalog computes.
//
// This suite carries the `compiled-kernel` CTest label so the sanitizer CI
// legs can select it: raw arena addressing is exactly the code that must be
// clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "compile/arena.h"
#include "diff_kernels_util.h"
#include "elastic/registry.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "test_util.h"
#include "transform/transform.h"

namespace esl {
namespace {

std::string goldenPath(const std::string& design) {
  return std::string(ESL_SOURCE_DIR) + "/examples/designs/" + design + ".esl";
}

sim::SimOptions interpOpts() {
  sim::SimOptions o;
  o.checkProtocol = false;
  return o;
}

sim::SimOptions compiledOpts() {
  sim::SimOptions o;
  o.checkProtocol = false;
  o.backend = SimContext::Backend::kCompiled;
  return o;
}

/// Lockstep per-cycle packState diff between an interpreted and a compiled
/// instance of the same netlist, plus final sink-stream comparison.
std::optional<std::string> lockstepCompiledDiff(Netlist& interp, Netlist& comp,
                                                std::uint64_t cycles) {
  sim::Simulator si(interp, interpOpts());
  sim::Simulator sc(comp, compiledOpts());
  test::logSinks(si);
  test::logSinks(sc);
  for (std::uint64_t c = 0; c < cycles; ++c) {
    si.step();
    sc.step();
    if (si.ctx().packState() != sc.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c);
  }
  const auto sinksOf = [](Netlist& nl) {
    std::vector<const TokenSink*> sinks;
    for (const NodeId id : nl.nodeIds())
      if (const auto* sink = dynamic_cast<const TokenSink*>(&nl.node(id)))
        sinks.push_back(sink);
    return sinks;
  };
  const auto a = sinksOf(interp);
  const auto b = sinksOf(comp);
  if (a.size() != b.size()) return "sink sets differ";
  for (std::size_t s = 0; s < a.size(); ++s)
    if (auto d =
            test::diffSinkStreams(si, a[s], sc, b[s], "sink " + std::to_string(s)))
      return d;
  return std::nullopt;
}

synth::SynthConfig famConfig(synth::Topology topo, std::size_t nodes,
                             unsigned inject, std::uint64_t seed,
                             unsigned width = 16) {
  synth::SynthConfig cfg;
  cfg.topology = topo;
  cfg.targetNodes = nodes;
  cfg.seed = seed;
  cfg.injectPeriod = inject;
  cfg.width = width;
  return cfg;
}

TEST(CompiledKernel, GoldenDesignsBitIdentical) {
  // Every committed .esl design: the full node catalog (speculation, shared
  // modules, stalling VLUs, anti-token environments) through the compiled
  // backend.
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    Netlist interp = frontend::buildEslFile(goldenPath(name));
    Netlist comp = frontend::buildEslFile(goldenPath(name));
    const auto diff = lockstepCompiledDiff(interp, comp, 300);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
  // Every mux above carries `fn=joinmux`. A design built in C++ carries its
  // join mux as a catalog op without attributes (makeJoinMux), and a Shannon
  // decomposition copies the function block's datapath, not its attributes.
  const auto build = [](const std::string& name, bool shannon) {
    Netlist nl = patterns::buildDesign(name);
    if (shannon)
      transform::shannonDecompose(nl, nl.findNode("mux")->id(), nl.findNode("F")->id());
    return nl;
  };
  for (const auto& [name, shannon] : std::vector<std::pair<std::string, bool>>{
           {"fig1a", false}, {"fig1c", false}, {"fig1a", true}}) {
    SCOPED_TRACE("built-in " + name + (shannon ? ", Shannon-decomposed" : ""));
    Netlist interp = build(name, shannon);
    Netlist comp = build(name, shannon);
    const auto diff = lockstepCompiledDiff(interp, comp, 300);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

TEST(CompiledKernel, AllSynthFamiliesBitIdentical) {
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const unsigned inject : {1u, 8u}) {
      synth::SynthConfig cfg = famConfig(topo, 240, inject, 7);
      cfg.vluPermille = 120;  // sprinkle stalling VLUs through the datapath
      SCOPED_TRACE(synth::describe(cfg));
      auto mismatch = test::diffCompiledOnce(cfg, 300);
      if (mismatch) {
        synth::SynthConfig bad = cfg;
        std::uint64_t cycles = 300;
        test::shrinkSynthConfig(
            bad, cycles, [](const synth::SynthConfig& cand, std::uint64_t n) {
              return test::diffCompiledOnce(cand, n).has_value();
            });
        FAIL() << "compiled divergence on " << synth::describe(bad) << " ("
               << cycles << " cycles): " << *test::diffCompiledOnce(bad, cycles);
      }
    }
  }
}

TEST(CompiledKernel, WidthBoundariesAroundTheSpillSplit) {
  // 1 and 63/64 take one board word (and run the specialized word kernels);
  // 65/128/200 take several and stay generic — both sides of every
  // boundary, plus the widest inline/heap BitVec split at 200 (> 3 words).
  // Every family, so buffers, forks, early-evaluation muxes and join
  // functions all run both payload representations of the arena view.
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kForkJoin,
        synth::Topology::kSpecLadder, synth::Topology::kRandomDag}) {
    for (const unsigned width : {1u, 63u, 64u, 65u, 128u, 200u}) {
      const synth::SynthConfig cfg = famConfig(topo, 100, 2, 11, width);
      SCOPED_TRACE(synth::describe(cfg));
      const auto mismatch = test::diffCompiledOnce(cfg, 200);
      EXPECT_FALSE(mismatch.has_value()) << *mismatch;
    }
  }
}

TEST(CompiledKernel, NondetEnvironmentsDrawIdenticalChoices) {
  // The stateless (seed, cycle, node, index) choice stream must be read at
  // the same points by the compiled backend's specialized Nondet*/Shared ops.
  auto run = [](bool compiled, std::uint64_t seed) {
    synth::SynthConfig cfg = famConfig(synth::Topology::kSpecLadder, 80, 1, seed);
    cfg.nondetEnv = true;
    synth::SynthSystem sys = synth::build(cfg);
    sim::SimOptions opts = compiled ? compiledOpts() : interpOpts();
    opts.seed = seed;
    sim::Simulator s(sys.nl, opts);
    s.run(250);
    return s.ctx().packState();
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    EXPECT_EQ(run(false, seed), run(true, seed)) << "seed " << seed;
}

TEST(CompiledKernel, SnapshotRoundTripMidSpeculation) {
  // Pack a compiled run mid-flight (speculative loop: in-flight anti-tokens,
  // fork done bits, shared-module scheduler state), unpack into a fresh
  // compiled simulator, and require both instances to stay bit-identical for
  // the rest of the run. Several snapshot points catch different phases of
  // the speculation (issue, kill, retry).
  for (const std::uint64_t snapAt : {37ull, 115ull, 230ull}) {
    SCOPED_TRACE("snapshot at " + std::to_string(snapAt));
    auto sysA = patterns::buildSecdedSpeculative();
    sim::Simulator a(sysA.nl, compiledOpts());
    a.run(snapAt);
    const std::vector<std::uint8_t> snap = a.ctx().packState();

    auto sysB = patterns::buildSecdedSpeculative();
    sim::Simulator b(sysB.nl, compiledOpts());
    b.ctx().unpackState(snap);
    for (std::uint64_t c = 0; c < 150; ++c) {
      a.step();
      b.step();
      ASSERT_EQ(a.ctx().packState(), b.ctx().packState())
          << "diverged " << c << " cycles after the snapshot";
    }
  }
}

TEST(CompiledKernel, SnapshotCrossesBackends) {
  // A snapshot taken from an interpreted run must resume exactly on the
  // compiled backend and vice versa (packState is backend-agnostic bytes).
  auto sysA = patterns::buildSecdedSpeculative();
  sim::Simulator interp(sysA.nl, interpOpts());
  interp.run(120);
  const std::vector<std::uint8_t> snap = interp.ctx().packState();

  auto sysB = patterns::buildSecdedSpeculative();
  sim::Simulator comp(sysB.nl, compiledOpts());
  comp.ctx().unpackState(snap);
  for (std::uint64_t c = 0; c < 120; ++c) {
    interp.step();
    comp.step();
    ASSERT_EQ(interp.ctx().packState(), comp.ctx().packState())
        << "diverged " << c << " cycles after the hand-over";
  }
}

TEST(CompiledKernel, RecompilesAfterNetlistSurgery) {
  // transform::insertBubble / removeBubble bump the topologyVersion; the
  // context must rebuild its op table (stale SlotAddrs would read the wrong
  // arena offsets after the board re-layout) and stay identical to an
  // interpreted instance undergoing the same surgery at the same cycles.
  auto surgery = [](Netlist& nl, std::uint64_t step) -> void {
    // Pick a stable interior channel by name each time (ids shift as nodes
    // are inserted); the synth pipeline names channels after its stages.
    std::vector<ChannelId> live = nl.channelIds();
    ASSERT_FALSE(live.empty());
    const ChannelId ch = live[live.size() / 2];
    transform::insertBubble(nl, ch, "bubble" + std::to_string(step));
  };
  synth::SynthSystem interp =
      synth::build(famConfig(synth::Topology::kPipeline, 60, 2, 5));
  synth::SynthSystem comp =
      synth::build(famConfig(synth::Topology::kPipeline, 60, 2, 5));
  sim::Simulator si(interp.nl, interpOpts());
  sim::Simulator sc(comp.nl, compiledOpts());
  for (std::uint64_t c = 0; c < 240; ++c) {
    if (c == 80 || c == 160) {
      surgery(interp.nl, c);
      surgery(comp.nl, c);
    }
    si.step();
    sc.step();
    ASSERT_EQ(si.ctx().packState(), sc.ctx().packState())
        << "diverged at cycle " << c;
  }
}

/// Ill-formed node oscillating on its own output; compiles to a kGeneric op,
/// so the oscillation runs through the compiled backend's worklist budget.
class CompiledOscillator : public Node {
 public:
  explicit CompiledOscillator(std::string name) : Node(std::move(name)) {
    declareOutput(1);
  }
  void evalComb(SimContext& ctx) const override {
    Sig out = ctx.sig(output(0));
    const bool flipped = !out.vf();
    out.setVf(flipped);
    out.setData(BitVec(1, flipped ? 1 : 0));
    out.setSb(false);
  }
  std::string kindName() const override { return "compiled-oscillator"; }
};

TEST(CompiledKernel, CombinationalCycleErrorParity) {
  // The eval budget lives in the shared worklist loop, so the compiled
  // backend must report the same CombinationalCycleError the interpreter
  // does — and recovering by switching backends must re-detect it, not
  // silently converge on a stale fixpoint.
  Netlist nl;
  auto& osc = nl.make<CompiledOscillator>("osc");
  auto& sink = nl.make<TokenSink>("sink", 1);
  nl.connect(osc, 0, sink, 0);
  SimContext ctx(nl);
  ctx.setBackend(SimContext::Backend::kCompiled);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
  ctx.setBackend(SimContext::Backend::kInterpreted);
  EXPECT_THROW(ctx.settle(), CombinationalCycleError);
}

TEST(CompiledKernel, CrossCheckModeRunsCleanOnPaperDesigns) {
  // Cross-check keeps the interpreted kernels as a runtime oracle against the
  // compiled backend (reference settle + per-node edge state replay); running
  // is the assertion. Speculative loop + stalling VLU cover the statefully
  // hairiest designs.
  for (const std::string name : {"fig1d", "secded-spec", "vlu-stall"}) {
    SCOPED_TRACE(name);
    Netlist nl = frontend::buildEslFile(goldenPath(name));
    sim::SimOptions opts = compiledOpts();
    opts.crossCheckKernels = true;
    sim::Simulator s(nl, opts);
    ASSERT_NO_THROW(s.run(300));
  }
}

/// Every statistic a run keeps, labeled: the node counters in node order,
/// then each channel's transfer/kill counts in channel order.
std::vector<std::string> statistics(sim::Simulator& s) {
  const SimContext& ctx = s.ctx();
  const Netlist& nl = ctx.netlist();
  std::vector<std::string> out;
  const auto add = [&out](const std::string& what, std::uint64_t n) {
    out.push_back(what + "=" + std::to_string(n));
  };
  for (const NodeId id : nl.nodeIds()) {
    const Node& n = nl.node(id);
    const std::string tag = n.kindName() + " '" + n.name() + "' ";
    if (const auto* sink = dynamic_cast<const TokenSink*>(&n))
      add(tag + "received", sink->received(ctx));
    if (const auto* src = dynamic_cast<const TokenSource*>(&n))
      add(tag + "killed", src->killed(ctx));
    if (const auto* mux = dynamic_cast<const EarlyEvalMux*>(&n))
      add(tag + "antiTokensEmitted", mux->antiTokensEmitted(ctx));
    if (const auto* shared = dynamic_cast<const SharedModule*>(&n))
      add(tag + "demandCycles", shared->demandCycles(ctx));
    if (const auto* vlu = dynamic_cast<const StallingVLU*>(&n)) {
      add(tag + "completed", vlu->completed(ctx));
      add(tag + "stalls", vlu->stalls(ctx));
    }
  }
  for (const ChannelId ch : nl.channelIds()) {
    const sim::ChannelStats& st = s.channelStats(ch);
    const std::string tag = "channel '" + nl.channel(ch).name + "' ";
    add(tag + "fwd", st.fwdTransfers);
    add(tag + "kills", st.kills);
    add(tag + "bwd", st.bwdTransfers);
  }
  return out;
}

TEST(CompiledKernel, CrossCheckCountsEveryStatisticOnce) {
  // The edge audit runs each specialized op and the interpreted clockEdge
  // from the same record; a statistic must still advance once per event, as
  // in a plain interpreted run.
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    const Netlist nl = frontend::buildEslFile(goldenPath(name));
    sim::Simulator interp(nl, interpOpts());
    sim::SimOptions audited = compiledOpts();
    audited.crossCheckKernels = true;
    sim::Simulator comp(nl, audited);
    interp.run(2000);
    comp.run(2000);
    EXPECT_EQ(statistics(interp), statistics(comp));
  }
}

/// 64 `width`-bit tokens with every word random, so a wide payload's high
/// words vary too.
TokenSource::Generator randomTokens(unsigned width, std::uint64_t salt) {
  return [width, salt](std::uint64_t i) -> std::optional<BitVec> {
    if (i >= 64) return std::nullopt;
    BitVec v(width);
    for (unsigned lo = 0; lo < width; lo += 64)
      v.depositBits(lo, mix64(i, salt + lo), std::min(64u, width - lo));
    return v;
  };
}

/// One core catalog function and an independent BitVec closure computing the
/// same thing.
struct CatalogCase {
  std::string fn;
  Params params;  ///< its fn.* attributes, unprefixed
  std::vector<unsigned> in;
  unsigned out;
  CombFn reference;
};

std::vector<CatalogCase> catalogCases(unsigned w) {
  using In = const std::vector<BitVec>&;
  const std::uint64_t k = 0xdeadbeefcafef00dULL;  // truncated to the width
  return {
      {"id", {}, {w}, w, [](In in) { return in[0]; }},
      {"addk", Params{}.setU64("k", k), {w}, w,
       [w, k](In in) { return in[0] + BitVec(w, k); }},
      {"gray", {}, {w}, w, [](In in) { return in[0] ^ (in[0] >> 1); }},
      {"xor", {}, {w, w, w}, w, [](In in) { return in[0] ^ in[1] ^ in[2]; }},
      {"add", {}, {w, w}, w, [](In in) { return in[0] + in[1]; }},
      {"concat", {}, {w, 1}, w + 1, [](In in) { return in[0].concat(in[1]); }},
      {"joinmux", {}, {2, w, w, w}, w,
       [](In in) { return in[1 + in[0].toUint64()]; }},
      {"permille", Params{}.setU64("permille", 500).setU64("salt", 7), {w}, 1,
       [](In in) {
         return BitVec(1, hashChancePermille(in[0].toUint64(), 500, 7) ? 1 : 0);
       }},
  };
}

/// Sources -> one function block -> a gray stage -> sink. The block is the
/// catalog entry (a catalog op, evaluated in place) or the reference closure
/// (opaque, memoized), and the gray stage likewise: it shifts a result bit
/// above the width, which a read of the sink's channel would mask, down into
/// view. A join mux's select stream is `selects`.
Netlist buildCatalogCase(const CatalogCase& c, bool catalog,
                         const std::vector<std::uint64_t>& selects) {
  Netlist nl;
  FuncNode& f = catalog ? makeFuncNode(nl, "f", c.in, c.out, c.fn, c.params)
                        : nl.make<FuncNode>("f", c.in, c.out, c.reference);
  FuncNode& g =
      catalog ? makeFuncNode(nl, "g", {c.out}, c.out, "gray")
              : nl.make<FuncNode>("g", std::vector<unsigned>{c.out}, c.out,
                                  [](const std::vector<BitVec>& in) {
                                    return in[0] ^ (in[0] >> 1);
                                  });
  EXPECT_EQ(f.datapath().op.kind == FnOp::Kind::kOpaque, !catalog) << c.fn;
  for (unsigned i = 0; i < c.in.size(); ++i) {
    auto gen = c.fn == "joinmux" && i == 0 ? TokenSource::listOf(selects, c.in[0])
                                           : randomTokens(c.in[i], 101 * i + 1);
    auto& src = nl.make<TokenSource>("src" + std::to_string(i), c.in[i], gen);
    nl.connect(src, 0, f, i);
  }
  auto& sink = nl.make<TokenSink>("sink", c.out);
  nl.connect(f, 0, g, 0);
  nl.connect(g, 0, sink, 0);
  return nl;
}

/// The sink's (cycle, payload) stream over 100 cycles on `backend`.
std::vector<std::pair<std::uint64_t, BitVec>> sinkStream(Netlist& nl,
                                                        SimContext::Backend backend) {
  sim::SimOptions o = interpOpts();
  o.backend = backend;
  sim::Simulator s(nl, o);
  const ChannelId in = nl.findNode("sink")->input(0);
  s.ctx().logTransfers(in);
  s.run(100);
  std::vector<std::pair<std::uint64_t, BitVec>> stream;
  for (const auto& t : s.ctx().transfers(in)) stream.emplace_back(t.cycle, t.data);
  return stream;
}

TEST(CompiledKernel, SpecializedFuncKernelsMatchOpaqueClosures) {
  // Both views evaluate a catalog op through one template (applyFn), so an
  // independent closure is the reference for what each core catalog function
  // computes. Every one runs through the registry and as its reference
  // closure, on both backends, at widths on both sides of the word/object
  // split: 1, 63 and 64 bits run as words on the compiled backend, 65, 72
  // and 144 bits through the object view; the concat case reaches 64 and 65
  // bits. All four runs must deliver the same sink stream.
  const std::vector<std::uint64_t> selects = [] {
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 64; ++i) v.push_back(i % 3);
    return v;
  }();
  for (const unsigned w : {1u, 63u, 64u, 65u, 72u, 144u}) {
    for (const CatalogCase& c : catalogCases(w)) {
      SCOPED_TRACE(c.fn + " at " + std::to_string(w) + " bits");
      Netlist reference = buildCatalogCase(c, false, selects);
      const auto expected = sinkStream(reference, SimContext::Backend::kInterpreted);
      ASSERT_EQ(expected.size(), 64u);
      for (const auto backend :
           {SimContext::Backend::kInterpreted, SimContext::Backend::kCompiled}) {
        Netlist catalog = buildCatalogCase(c, true, selects);
        EXPECT_EQ(sinkStream(catalog, backend), expected);
        Netlist opaque = buildCatalogCase(c, false, selects);
        EXPECT_EQ(sinkStream(opaque, backend), expected);
      }
    }
  }
  // A 64-bit low half leaves the word no room for a high half: concat must
  // not shift by 64.
  EXPECT_EQ(compile::Word(64, ~std::uint64_t{0}).concat(compile::Word(0, 0)).toUint64(),
            ~std::uint64_t{0});
}

TEST(CompiledKernel, JoinMuxSelectOutOfRangeThrowsTheSameOnBothBackends) {
  // The select-range check exists once, in applyFn: a word-wide and a wide
  // join mux report the same error on both backends.
  for (const unsigned w : {8u, 72u}) {
    SCOPED_TRACE(std::to_string(w) + " bits");
    const CatalogCase mux = catalogCases(w)[6];
    ASSERT_EQ(mux.fn, "joinmux");
    const auto errorOn = [&](SimContext::Backend backend) -> std::string {
      Netlist nl = buildCatalogCase(mux, true, {1, 3});
      try {
        sinkStream(nl, backend);
      } catch (const EslError& e) {
        return e.what();
      }
      return "no error";
    };
    const std::string interpreted = errorOn(SimContext::Backend::kInterpreted);
    EXPECT_NE(interpreted.find("join mux: select out of range"), std::string::npos)
        << interpreted;
    EXPECT_EQ(errorOn(SimContext::Backend::kCompiled), interpreted);
  }
}

TEST(CompiledKernel, BackendSwitchMidRunPreservesSignals) {
  // setBackend mid-simulation: the board is shared state, so flipping
  // backends between cycles must not disturb the stream.
  auto reference = [] {
    synth::SynthSystem sys =
        synth::build(famConfig(synth::Topology::kForkJoin, 80, 2, 9));
    sim::Simulator s(sys.nl, interpOpts());
    s.run(240);
    return s.ctx().packState();
  }();
  synth::SynthSystem sys =
      synth::build(famConfig(synth::Topology::kForkJoin, 80, 2, 9));
  sim::Simulator s(sys.nl, interpOpts());
  s.run(80);
  s.ctx().setBackend(SimContext::Backend::kCompiled);
  s.run(80);
  s.ctx().setBackend(SimContext::Backend::kInterpreted);
  s.run(80);
  EXPECT_EQ(s.ctx().packState(), reference);
}

}  // namespace
}  // namespace esl
