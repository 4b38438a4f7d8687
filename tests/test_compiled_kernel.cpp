// Compiled bytecode backend: bit-identity against the interpreted kernels.
//
// The compiled backend (src/compile) lowers the netlist into specialized ops
// over raw SignalBoard addresses and runs them through the shared worklist /
// dirty-edge loops. Its contract mirrors the sharded kernel's: settled
// signals, packed state and sink streams are bit-identical to the interpreted
// event-driven kernel, cycle by cycle — enforced here over every golden .esl
// design, all four synthetic topology families (with shrink-on-failure),
// payload width boundaries around the word/spill split, nondeterministic
// environments, snapshot round-trips through the VM, recompilation after
// netlist surgery, and the specialized FuncKind word kernels against their
// opaque closures.
//
// This suite carries the `compiled-kernel` CTest label so the sanitizer CI
// legs can select it: raw arena addressing is exactly the code that must be
// clean under ASan/UBSan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  // modules, stalling VLUs, anti-token environments) through the VM.
  for (const std::string& name : patterns::designNames()) {
    SCOPED_TRACE(name);
    Netlist interp = frontend::buildEslFile(goldenPath(name));
    Netlist comp = frontend::buildEslFile(goldenPath(name));
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
  // 1 and 63/64 stay in the narrow word arena (and in the specialized word
  // kernels); 65/128/200 spill to BitVec storage — both sides of every
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
  // the same points by the VM's specialized Nondet*/Shared ops.
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
  // transform::insertBubble / removeBubble bump the topologyVersion; the VM
  // must recompile its program (stale SlotAddrs would read the wrong arena
  // offsets after the board re-layout) and stay identical to an interpreted
  // instance undergoing the same surgery at the same cycles.
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
/// so the oscillation runs through the VM's worklist budget.
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
  // VM (reference settle + per-node edge state replay); running is the
  // assertion. Speculative loop + stalling VLU cover the statefully hairiest
  // designs.
  for (const std::string name : {"fig1d", "secded-spec", "vlu-stall"}) {
    SCOPED_TRACE(name);
    Netlist nl = frontend::buildEslFile(goldenPath(name));
    sim::SimOptions opts = compiledOpts();
    opts.crossCheckKernels = true;
    sim::Simulator s(nl, opts);
    ASSERT_NO_THROW(s.run(300));
  }
}

TEST(CompiledKernel, SpecializedFuncKernelsMatchOpaqueClosures) {
  // The same dataflow built twice: once through the registry (fn=gray /
  // fn=addk / fn=xor attributes -> FuncKind word kernels), once with plain
  // C++ lambdas (no build attributes -> kOpaque memo path). Both run on the
  // compiled backend; identical sink streams prove the word kernels agree
  // with the closures they replace.
  const unsigned w = 16;
  auto buildRegistry = [&](Netlist& nl) {
    auto& src = nl.make<TokenSource>(
        "src", w, TokenSource::listOf(test::iota(64, 1), w));
    auto& fork = nl.make<ForkNode>("fork", w, 2);
    auto& gray = makeFuncNode(nl, "gray", {w}, w, "gray");
    auto& addk = makeFuncNode(nl, "addk", {w}, w, "addk",
                              Params{}.setU64("k", 5));
    auto& mix = makeFuncNode(nl, "mix", {w, w}, w, "xor");
    auto& sink = nl.make<TokenSink>("sink", w);
    nl.connect(src, 0, fork, 0);
    nl.connect(fork, 0, gray, 0);
    nl.connect(fork, 1, addk, 0);
    nl.connect(gray, 0, mix, 0);
    nl.connect(addk, 0, mix, 1);
    nl.connect(mix, 0, sink, 0);
    return &sink;
  };
  auto buildOpaque = [&](Netlist& nl) {
    auto& src = nl.make<TokenSource>(
        "src", w, TokenSource::listOf(test::iota(64, 1), w));
    auto& fork = nl.make<ForkNode>("fork", w, 2);
    auto& gray = nl.make<FuncNode>(
        "gray", std::vector<unsigned>{w}, w, [](const std::vector<BitVec>& in) {
          return in[0] ^ (in[0] >> 1);
        });
    auto& addk = nl.make<FuncNode>(
        "addk", std::vector<unsigned>{w}, w, [w](const std::vector<BitVec>& in) {
          return in[0] + BitVec(w, 5);
        });
    auto& mix = nl.make<FuncNode>(
        "mix", std::vector<unsigned>{w, w}, w,
        [](const std::vector<BitVec>& in) { return in[0] ^ in[1]; });
    auto& sink = nl.make<TokenSink>("sink", w);
    nl.connect(src, 0, fork, 0);
    nl.connect(fork, 0, gray, 0);
    nl.connect(fork, 1, addk, 0);
    nl.connect(gray, 0, mix, 0);
    nl.connect(addk, 0, mix, 1);
    nl.connect(mix, 0, sink, 0);
    return &sink;
  };
  Netlist a, b;
  TokenSink* sa = buildRegistry(a);
  TokenSink* sb = buildOpaque(b);
  sim::Simulator simA(a, compiledOpts());
  sim::Simulator simB(b, compiledOpts());
  test::logSinks(simA);
  test::logSinks(simB);
  simA.run(200);
  simB.run(200);
  EXPECT_EQ(test::receivedValues(simA, *sa), test::receivedValues(simB, *sb));
  EXPECT_EQ(test::receivedCycles(simA, *sa), test::receivedCycles(simB, *sb));
  EXPECT_EQ(test::receivedValues(simA, *sa).size(), 64u);
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
