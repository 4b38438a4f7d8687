// State snapshot round-trip tests (src/elastic/state_io.h + packState).
//
// The model checker's whole correctness story rests on pack/unpack being a
// lossless bijection on reachable states for every node type: a lossy pack
// merges distinct states (unsound verification), a lossy unpack breaks the
// per-transition restore. These tests pin both directions:
//   * primitive round-trips through StateWriter/StateReader,
//   * per-cycle losslessness (pack -> unpack -> pack identical) on harnesses
//     covering every node type, sampled at every cycle of a traffic window so
//     mid-speculation, mid-latency and in-flight anti-token states are hit,
//   * resume equivalence: a fresh netlist restored from a mid-run snapshot
//     continues bit-identically to the original under identical choices.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>

#include "base/crc32.h"
#include "base/fault_inject.h"
#include "base/rng.h"
#include "elastic/vlu.h"
#include "netlist/patterns.h"
#include "netlist/synth.h"
#include "sim/state_file.h"
#include "test_util.h"

namespace esl {
namespace {

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(StateIo, PrimitiveRoundTrip) {
  StateWriter w;
  w.writeBool(true);
  w.writeBool(false);
  w.writeU32(0);
  w.writeU32(0xdeadbeefu);
  w.writeU64(0x0123456789abcdefULL);
  for (const unsigned width : {1u, 7u, 8u, 9u, 31u, 63u, 64u, 65u, 130u}) {
    BitVec v(width);
    for (unsigned i = 0; i < width; i += 3) v.setBit(i, true);
    w.writeBitVec(v);
  }
  const auto bytes = w.take();

  StateReader r(bytes);
  EXPECT_TRUE(r.readBool());
  EXPECT_FALSE(r.readBool());
  EXPECT_EQ(r.readU32(), 0u);
  EXPECT_EQ(r.readU32(), 0xdeadbeefu);
  EXPECT_EQ(r.readU64(), 0x0123456789abcdefULL);
  for (const unsigned width : {1u, 7u, 8u, 9u, 31u, 63u, 64u, 65u, 130u}) {
    const BitVec v = r.readBitVec();
    ASSERT_EQ(v.width(), width);
    for (unsigned i = 0; i < width; ++i) EXPECT_EQ(v.bit(i), i % 3 == 0);
  }
  EXPECT_TRUE(r.done());
}

TEST(StateIo, WriterBufferReuseMatchesFreshWriter) {
  StateWriter fresh;
  fresh.writeU64(42);
  fresh.writeBool(true);
  const auto expect = fresh.take();

  std::vector<std::uint8_t> reused(128, 0xee);  // stale content must vanish
  StateWriter w(std::move(reused));
  w.writeU64(42);
  w.writeBool(true);
  EXPECT_EQ(w.take(), expect);
}

TEST(StateIo, ReaderRejectsShortBuffer) {
  StateWriter w;
  w.writeU32(7);
  const auto bytes = w.take();
  StateReader r(bytes);
  (void)r.readU32();
  EXPECT_THROW(r.readU32(), EslError);
}

TEST(StateIo, HashBytesIsStableAndDiscriminates) {
  const std::vector<std::uint8_t> a{1, 2, 3}, b{1, 2, 4}, c{1, 2, 3};
  EXPECT_EQ(hashBytes(a), hashBytes(c));
  EXPECT_NE(hashBytes(a), hashBytes(b));
  EXPECT_NE(hashBytes({}), hashBytes({0}));  // empty vs one zero byte
}

// ---------------------------------------------------------------------------
// Whole-netlist round trips: every cycle of a traffic window is lossless and
// resumable on a fresh instance
// ---------------------------------------------------------------------------

/// Drives `a` for `warmup` cycles, then every cycle for `window` more:
/// packs, restores into the freshly-built `b`, repacks (must be identical),
/// and steps both in lockstep under identical choices comparing state.
void expectSnapshotsLossless(const std::function<Netlist()>& build,
                             std::uint64_t warmup, std::uint64_t window,
                             std::uint64_t choiceSeed = 0x51a7e5ULL) {
  Netlist a = build();
  SimContext ca(a);
  Netlist b = build();
  SimContext cb(b);
  Netlist c = build();
  SimContext probe(c);  // scratch instance for per-cycle round-trip checks
  ASSERT_EQ(ca.totalChoices(), cb.totalChoices());

  Rng rng(choiceSeed);
  const auto drawFrom = [&](Rng& source) {
    std::vector<bool> bits(ca.totalChoices());
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = source.next() & 1;
    return bits;
  };
  const auto stepWith = [](SimContext& ctx, const std::vector<bool>& bits) {
    ctx.setChoicesFrom(bits);
    ctx.settle();
    ctx.edge();
  };

  // Warm both instances up — with DIFFERENT choice streams, so b's node state
  // genuinely differs before the restore (a restore into an already-equal
  // instance would not catch an unpacked field). The packState() snapshot
  // carries the cycle counter, so the restore below realigns b's cycle
  // automatically; only the headerless packStateInto() (the model checker's
  // per-transition path, whose environments are cycle-free by construction)
  // leaves the counter out.
  Rng rngB(choiceSeed ^ 0xb0b0b0b0ULL);
  for (std::uint64_t i = 0; i < warmup; ++i) {
    stepWith(ca, drawFrom(rng));
    stepWith(cb, drawFrom(rngB));
  }

  // Restore b from a's mid-run state, then run both in lockstep; every cycle
  // both the restored and the original instance must agree byte for byte.
  std::vector<std::uint8_t> snap = ca.packState();
  cb.unpackState(snap);
  EXPECT_EQ(cb.packState(), snap) << "restore+repack is not lossless";

  for (std::uint64_t i = 0; i < window; ++i) {
    const std::vector<bool> bits = drawFrom(rng);
    stepWith(ca, bits);
    stepWith(cb, bits);
    const auto sa = ca.packState();
    ASSERT_EQ(sa, cb.packState()) << "diverged " << i << " cycles after restore";
    // Per-cycle losslessness on the live run, covering transient states.
    probe.unpackState(sa);
    ASSERT_EQ(probe.packState(), sa) << "lossy round-trip at cycle " << i;
  }
}

TEST(StateIo, BufferChainWithAntiTokens) {
  expectSnapshotsLossless(
      [] {
        Netlist nl;
        auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
        auto& eb0 = nl.make<ElasticBuffer>("eb0", 8, 2u);
        auto& z = nl.make<ElasticBuffer0>("z", 8);
        auto& eb1 = nl.make<ElasticBuffer>("eb1", 8, 3u);
        auto& sink = nl.make<TokenSink>(
            "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 600, 5); },
            /*antiBudget=*/3,
            [](std::uint64_t c) { return hashChancePermille(c, 150, 9); });
        nl.connect(src, 0, eb0, 0);
        nl.connect(eb0, 0, z, 0);
        nl.connect(z, 0, eb1, 0);
        nl.connect(eb1, 0, sink, 0);
        return nl;
      },
      17, 60);
}

TEST(StateIo, ForkJoinTree) {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kForkJoin;
  cfg.targetNodes = 30;
  cfg.width = 8;
  cfg.seed = 5;
  expectSnapshotsLossless([cfg] { return synth::buildNetlist(cfg); }, 13, 40);
}

TEST(StateIo, SpecLadderMidSpeculation) {
  // The ee-mux ladder keeps anti-token kill-backs in flight: pendingAnti_
  // counters, buffered branch copies and select streams are all mid-flight in
  // the sampled window.
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kSpecLadder;
  cfg.targetNodes = 24;
  cfg.width = 4;
  cfg.seed = 11;
  expectSnapshotsLossless([cfg] { return synth::buildNetlist(cfg); }, 9, 50);
}

TEST(StateIo, VluPipelineMidLatency) {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kPipeline;
  cfg.targetNodes = 24;
  cfg.width = 8;
  cfg.seed = 7;
  cfg.vluPermille = 600;  // plenty of stalling variable-latency stages
  expectSnapshotsLossless([cfg] { return synth::buildNetlist(cfg); }, 11, 50);
}

TEST(StateIo, SharedModuleSpeculativeLoop) {
  // Fig. 1 speculative loop: SharedModule + scheduler + ee-mux + VLU under
  // anti-token traffic — the densest per-node state in the repo.
  expectSnapshotsLossless(
      [] {
        return std::move(
            patterns::buildFig1(patterns::Fig1Variant::kSpeculative).nl);
      },
      23, 60);
}

TEST(StateIo, NondetEnvironments) {
  expectSnapshotsLossless(
      [] {
        Netlist nl;
        auto& src = nl.make<NondetSource>("src", 1, 2, /*dataBits=*/1);
        auto& eb = nl.make<ElasticBuffer>("eb", 1);
        auto& sink = nl.make<NondetSink>("sink", 1, 2, /*emitsAnti=*/true);
        nl.connect(src, 0, eb, 0);
        nl.connect(eb, 0, sink, 0);
        return nl;
      },
      15, 60);
}

// ---------------------------------------------------------------------------
// The snapshot container: cycle-gated environment resume, layout, and the
// model checker's headerless pair
// ---------------------------------------------------------------------------

/// Source/sink gated on ctx.cycle() via per-cycle permille draws: resume is
/// phase-sensitive, so the restored instance must inherit the cycle counter.
Netlist buildGatedEnvChain() {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2u);
  auto& sink = nl.make<TokenSink>(
      "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 500, 3); },
      /*antiBudget=*/2,
      [](std::uint64_t c) { return hashChancePermille(c, 200, 7); });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  return nl;
}

TEST(StateIo, SnapshotHeaderCarriesCycleForGatedEnvResume) {
  // Deliberately misalign the two instances' cycle counters before the
  // restore. The gated sink draws from hashChancePermille(cycle), so without
  // the snapshot's cycle field the restored instance would phase-shift every
  // draw and diverge within a few cycles.
  Netlist a = buildGatedEnvChain();
  SimContext ca(a);
  Netlist b = buildGatedEnvChain();
  SimContext cb(b);
  for (int i = 0; i < 23; ++i) ca.step();
  for (int i = 0; i < 5; ++i) cb.step();
  ASSERT_NE(ca.cycle(), cb.cycle());

  const std::vector<std::uint8_t> snap = ca.packState();
  cb.unpackState(snap);
  EXPECT_EQ(cb.cycle(), ca.cycle()) << "snapshot cycle not restored";
  EXPECT_EQ(cb.packState(), snap);

  for (int i = 0; i < 40; ++i) {
    ca.step();
    cb.step();
    ASSERT_EQ(ca.packState(), cb.packState())
        << "gated-env resume diverged " << i << " cycles after restore";
  }
}

TEST(StateIo, SnapshotHeaderLayout) {
  Netlist nl = buildGatedEnvChain();
  SimContext ctx(nl);
  for (int i = 0; i < 7; ++i) ctx.step();
  const std::vector<std::uint8_t> snap = ctx.packState();
  std::vector<std::uint8_t> raw;
  ctx.packStateInto(raw);
  StateReader h(snap);
  EXPECT_EQ(h.readU32(), kStateMagic);
  EXPECT_EQ(h.readU32(), kStateVersion);
  EXPECT_EQ(h.readU32(), static_cast<std::uint32_t>(StateKind::kSnapshot));
  EXPECT_EQ(h.readU64(), snap.size() - kStateHeaderBytes);
  EXPECT_EQ(h.readU32(), crc32(snap.data() + kStateHeaderBytes,
                               snap.size() - kStateHeaderBytes));
  // The payload: the cycle, the node section — exactly the headerless
  // per-transition encoding, byte for byte — and no kept cycle (the
  // monitor is off).
  StateReader r = StateReader::open(snap, StateKind::kSnapshot, "layout");
  EXPECT_EQ(r.readU64(), ctx.cycle());
  EXPECT_EQ(r.readU64(), raw.size());
  for (const std::uint8_t b : raw) ASSERT_EQ(r.readU8(), b);
  EXPECT_EQ(r.readU8(), 0u);
  EXPECT_TRUE(r.done());
}

TEST(StateIo, HeaderlessSnapshotsStillRestore) {
  // The model checker's per-transition pair (packStateInto/unpackNodeState)
  // stays headerless; unpackState refuses those raw bytes.
  Netlist a = buildGatedEnvChain();
  SimContext ca(a);
  Netlist b = buildGatedEnvChain();
  SimContext cb(b);
  for (int i = 0; i < 11; ++i) ca.step();
  std::vector<std::uint8_t> raw;
  ca.packStateInto(raw);
  EXPECT_THROW(cb.unpackState(raw), EslError);
  cb.unpackNodeState(raw);
  std::vector<std::uint8_t> again;
  cb.packStateInto(again);
  EXPECT_EQ(again, raw);
  EXPECT_EQ(cb.cycle(), 0u) << "the headerless restore carries no cycle";
}

TEST(StateIo, UnpackRejectsForeignNetlistState) {
  synth::SynthConfig small;
  small.topology = synth::Topology::kPipeline;
  small.targetNodes = 8;
  synth::SynthConfig big = small;
  big.targetNodes = 24;
  Netlist a = synth::buildNetlist(small);
  Netlist b = synth::buildNetlist(big);
  SimContext ca(a);
  SimContext cb(b);
  EXPECT_THROW(cb.unpackState(ca.packState()), EslError);
}

// ---------------------------------------------------------------------------
// Restored state is validated. Snapshots reach unpackState from outside (esl
// --load-state, the serve restore op), so a patched or hand-made one must be
// refused with EslError at restore time — never accepted as state that breaks
// a later step with an internal error.
// ---------------------------------------------------------------------------

/// src -> mid -> sink, 8 bits wide, `mid` built from `args`.
template <typename Mid, typename... Args>
Netlist envChain(Args... args) {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& mid = nl.make<Mid>("mid", args...);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, mid, 0);
  nl.connect(mid, 0, sink, 0);
  return nl;
}

/// A snapshot container with a valid CRC around a hand-made payload.
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  StateWriter w(StateKind::kSnapshot);
  for (const std::uint8_t b : payload) w.writeU8(b);
  return w.seal();
}

/// framed() payload of hand-made node bytes: the given cycle, `nodes` as the
/// node section, no kept cycle.
std::vector<std::uint8_t> framedSnapshot(const std::vector<std::uint8_t>& nodes,
                                         std::uint64_t cycle = 0) {
  StateWriter w;
  w.writeU64(cycle);
  w.writeU64(nodes.size());
  for (const std::uint8_t b : nodes) w.writeU8(b);
  w.writeBool(false);
  return framed(w.take());
}

/// Restores `snap` into `ctx` and requires the rejection to come from the
/// node decoder that says `what`, past every container check.
void expectDecoderRejects(SimContext& ctx, const std::vector<std::uint8_t>& snap,
                          const std::string& what) {
  try {
    ctx.unpackState(snap);
    ADD_FAILURE() << "accepted; expected: " << what;
  } catch (const EslError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

/// envChain() snapshot: idle source and sink around the middle node's state,
/// which `mid` writes.
std::vector<std::uint8_t> chainSnapshot(
    const std::function<void(StateWriter&)>& mid) {
  StateWriter w;
  w.writeU64(0);  // source: index, offering, killCredit
  w.writeBool(false);
  w.writeU32(0);
  mid(w);
  w.writeU32(0);  // sink: antiRemaining, antiActive
  w.writeBool(false);
  return framedSnapshot(w.take());
}

/// Elastic buffer state: `tokens`, then the anti-token count.
std::function<void(StateWriter&)> ebState(std::vector<BitVec> tokens,
                                          std::uint32_t anti) {
  return [tokens, anti](StateWriter& w) {
    w.writeU32(static_cast<std::uint32_t>(tokens.size()));
    for (const BitVec& t : tokens) w.writeBitVec(t);
    w.writeU32(anti);
  };
}

TEST(StateIo, UnpackRejectsInvalidAntiTokenCounts) {
  Netlist nl = envChain<ElasticBuffer>(8u, 2u);  // anti capacity 2
  SimContext ctx(nl);
  ctx.unpackState(chainSnapshot(ebState({}, 2)));
  EXPECT_NO_THROW(ctx.step());
  ctx.unpackState(chainSnapshot(ebState({BitVec(8, 3)}, 0)));
  EXPECT_NO_THROW(ctx.step());
  // A sign-bit count would overflow occupancy(); one past the anti capacity
  // is unreachable; tokens and anti-tokens never coexist in a buffer.
  expectDecoderRejects(ctx, chainSnapshot(ebState({}, 0x80000000u)),
                       "anti-token count exceeds");
  expectDecoderRejects(ctx, chainSnapshot(ebState({}, 3)), "anti-token count exceeds");
  expectDecoderRejects(ctx, chainSnapshot(ebState({BitVec(8, 3)}, 1)),
                       "tokens and anti-tokens stored");
}

TEST(StateIo, UnpackRejectsPayloadsOfTheWrongWidth) {
  // Every node kind that stores a payload, restored once with an 8-bit token
  // (accepted, and the next step runs) and once with a 7-bit one (refused).
  const auto vlu = [] {
    return envChain<StallingVLU>(
        8u, 8u, [](const BitVec& x) { return x; },
        [](const BitVec&) { return false; }, logic::Cost{1, 1},
        logic::Cost{2, 2}, logic::Cost{1, 1});
  };
  struct Case {
    std::string what;
    std::function<Netlist()> build;
    std::function<void(StateWriter&, const BitVec&)> mid;
  };
  const std::vector<Case> cases = {
      {"eb ring", [] { return envChain<ElasticBuffer>(8u, 2u); },
       [](StateWriter& w, const BitVec& t) { ebState({t}, 0)(w); }},
      {"eb0 slot", [] { return envChain<ElasticBuffer0>(8u); },
       [](StateWriter& w, const BitVec& t) {
         w.writeBool(true);
         w.writeBitVec(t);
       }},
      {"broken-eb slot", [] { return envChain<BrokenBuffer>(8u); },
       [](StateWriter& w, const BitVec& t) {
         w.writeBool(true);
         w.writeBitVec(t);
         w.writeBool(false);
       }},
      {"vlu pending operand", vlu,
       [](StateWriter& w, const BitVec& t) {
         w.writeBool(true);
         w.writeBitVec(t);
         w.writeBool(false);
       }},
      {"vlu result", vlu,
       [](StateWriter& w, const BitVec& t) {
         w.writeBool(false);
         w.writeBool(true);
         w.writeBitVec(t);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    Netlist nl = c.build();
    SimContext ctx(nl);
    const auto snap = [&](const BitVec& t) {
      return chainSnapshot([&](StateWriter& w) { c.mid(w, t); });
    };
    ctx.unpackState(snap(BitVec(8, 5)));
    EXPECT_NO_THROW(ctx.step());
    expectDecoderRejects(ctx, snap(BitVec(7, 5)), "payload width 7");
  }

  SCOPED_TRACE("nondet-source value");
  Netlist nl;
  auto& src = nl.make<NondetSource>("src", 8, 2u, 3u);
  auto& sink = nl.make<TokenSink>("sink", 8);
  nl.connect(src, 0, sink, 0);
  SimContext ctx(nl);
  const auto snap = [](const BitVec& value) {
    StateWriter w;
    w.writeBool(true);  // offering, value, killCredit, idleStreak
    w.writeBitVec(value);
    w.writeU32(0);
    w.writeU32(0);
    w.writeU32(0);  // sink
    w.writeBool(false);
    return framedSnapshot(w.take());
  };
  ctx.unpackState(snap(BitVec(8, 5)));
  EXPECT_NO_THROW(ctx.step());
  expectDecoderRejects(ctx, snap(BitVec(7, 5)), "payload width 7");
}

// ---------------------------------------------------------------------------
// A rejected restore changes nothing: not the node state before the bad
// bytes, not the cycle counter, not the protocol monitor's previous cycle.
// ---------------------------------------------------------------------------

struct RestoreMode {
  const char* name;
  SimContext::Backend backend;
  unsigned shards;
};
constexpr RestoreMode kRestoreModes[] = {
    {"interpreted", SimContext::Backend::kInterpreted, 1},
    {"compiled", SimContext::Backend::kCompiled, 1},
    {"shards2", SimContext::Backend::kInterpreted, 2},
};

sim::SimOptions restoreOpts(const RestoreMode& m, bool monitor = false) {
  sim::SimOptions o;
  o.checkProtocol = monitor;
  o.throwOnViolation = false;
  o.backend = m.backend;
  o.shards = m.shards;
  return o;
}

/// Runs `build` for `cycles` twice (victim and twin), feeds `bad` to the
/// victim, and requires the rejection to leave it indistinguishable from the
/// twin: same cycle, same packState(), and the same future — violations
/// included — for `after` more cycles.
void expectRejectedRestoreChangesNothing(
    const std::function<Netlist()>& build, std::uint64_t cycles,
    const std::vector<std::uint8_t>& bad, std::uint64_t after = 60,
    bool monitor = false) {
  for (const RestoreMode& m : kRestoreModes) {
    SCOPED_TRACE(m.name);
    Netlist victimNl = build();
    Netlist twinNl = build();
    sim::Simulator victim(victimNl, restoreOpts(m, monitor));
    sim::Simulator twin(twinNl, restoreOpts(m, monitor));
    victim.run(cycles);
    twin.run(cycles);
    EXPECT_THROW(victim.ctx().unpackState(bad), EslError);
    EXPECT_EQ(victim.cycle(), cycles);
    EXPECT_EQ(victim.ctx().packState(), twin.ctx().packState());
    victim.run(after);
    twin.run(after);
    EXPECT_EQ(victim.ctx().packState(), twin.ctx().packState());
    EXPECT_EQ(victim.ctx().protocolViolations(), twin.ctx().protocolViolations());
  }
}

std::vector<std::uint8_t> snapshotAt(const std::function<Netlist()>& build,
                                     std::uint64_t cycles) {
  Netlist nl = build();
  sim::Simulator s(nl, restoreOpts(kRestoreModes[0]));
  s.run(cycles);
  return s.ctx().packState();
}

Netlist fig1d() { return patterns::designSpec("fig1d").build(); }

TEST(StateIo, RejectedTruncatedRestoreChangesNothing) {
  // A torn container fails its length check before any byte is decoded.
  std::vector<std::uint8_t> bad = snapshotAt(fig1d, 100);
  bad.resize(bad.size() - 3);
  expectRejectedRestoreChangesNothing(fig1d, 137, bad);
  // A valid container whose node section is short: the nodes before the cut
  // decode, and the restore must still change nothing.
  Netlist nl = fig1d();
  sim::Simulator s(nl, restoreOpts(kRestoreModes[0]));
  s.run(100);
  std::vector<std::uint8_t> nodes;
  s.ctx().packStateInto(nodes);
  nodes.resize(nodes.size() - 3);
  const std::vector<std::uint8_t> shortNodes = framedSnapshot(nodes, 100);
  expectDecoderRejects(s.ctx(), shortNodes, "out of data");
  expectRejectedRestoreChangesNothing(fig1d, 137, shortNodes);
}

TEST(StateIo, RejectedForeignDesignRestoreChangesNothing) {
  const auto fig1a = [] { return patterns::designSpec("fig1a").build(); };
  expectRejectedRestoreChangesNothing(fig1d, 137, snapshotAt(fig1a, 50));
}

TEST(StateIo, RejectedOutOfRangeCountRestoreChangesNothing) {
  // The source's state decodes fine before the buffer's count is refused.
  const auto chain = [] { return envChain<ElasticBuffer>(8u, 2u); };
  StateWriter w;
  w.writeU64(3);  // source: index, offering, killCredit
  w.writeBool(true);
  w.writeU32(0);
  ebState({BitVec(8, 1), BitVec(8, 2), BitVec(8, 3)}, 0)(w);  // capacity 2
  w.writeU32(0);  // sink
  w.writeBool(false);
  const std::vector<std::uint8_t> bad = framedSnapshot(w.take(), 5);
  Netlist nl = chain();
  SimContext probe(nl);
  expectDecoderRejects(probe, bad, "token count exceeds capacity");
  expectRejectedRestoreChangesNothing(chain, 137, bad);
}

TEST(StateIo, RejectedRestoreKeepsTheMonitorsPreviousCycle) {
  // broken-eb overwrites a token its stalling sink has stopped: a Retry+
  // violation spans every cycle boundary, this one's included.
  const auto broken = [] {
    Netlist nl;
    auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
    auto& bad = nl.make<BrokenBuffer>("bad", 8);
    auto& sink = nl.make<TokenSink>(
        "sink", 8, [](std::uint64_t c) { return c % 2 == 0; });
    nl.connect(src, 0, bad, 0);
    nl.connect(bad, 0, sink, 0);
    return nl;
  };
  std::vector<std::uint8_t> bad = snapshotAt(broken, 100);
  bad.resize(bad.size() - 1);
  expectRejectedRestoreChangesNothing(broken, 250, bad, 250, true);
  // A valid container whose kept cycle is out of range: the node section
  // decodes, and still nothing changes.
  Netlist nl = broken();
  sim::Simulator s(nl, restoreOpts(kRestoreModes[0], /*monitor=*/true));
  s.run(100);
  std::vector<std::uint8_t> nodes;
  s.ctx().packStateInto(nodes);
  const std::vector<std::uint8_t> snap = s.ctx().packState();
  std::vector<std::uint8_t> payload(snap.begin() + kStateHeaderBytes, snap.end());
  // cycle, node section, kept flag, channel count, then the control bytes
  const std::size_t firstControl = 8 + 8 + nodes.size() + 1 + 4;
  ASSERT_EQ(payload[firstControl - 5], 1u) << "no kept cycle";
  payload[firstControl] = 0xff;
  expectDecoderRejects(s.ctx(), framed(payload), "kept-cycle control bits out of range");
  expectRejectedRestoreChangesNothing(broken, 250, framed(payload), 250, true);
}

// ---------------------------------------------------------------------------
// A scheduler state the scheduler can never reach is refused on restore: it
// would restore, then throw on every cycle.
// ---------------------------------------------------------------------------

Netlist table1() { return patterns::designSpec("table1").build(); }

/// fig1d with its shared module's scheduler replaced by `sched`.
std::function<Netlist()> fig1dWith(const std::string& sched) {
  return [sched] {
    NetlistSpec spec = patterns::designSpec("fig1d");
    for (NodeSpec& n : spec.nodes)
      if (n.kind == "shared") n.params.set("sched", sched);
    return spec.build();
  };
}

/// A snapshot of `build` after `cycles` whose shared module's scheduler word
/// `word` (the lock's channel + 1, its age, then the policy's words) reads
/// `value`: a valid container carrying an unreachable scheduler state.
std::vector<std::uint8_t> patchedSchedulerSnapshot(const std::function<Netlist()>& build,
                                                   std::uint64_t cycles, unsigned word,
                                                   std::uint64_t value) {
  Netlist nl = build();
  sim::Simulator s(nl, restoreOpts(kRestoreModes[0]));
  s.run(cycles);
  const auto& shared = static_cast<const SharedModule&>(*nl.findNode("F"));
  recordView(shared, s.ctx().record(shared.id())).sched()[word] = value;
  return s.ctx().packState();
}

void expectSchedulerStateRejected(const std::function<Netlist()>& build,
                                  unsigned word, std::uint64_t value,
                                  const std::string& what) {
  SCOPED_TRACE(what);
  const std::vector<std::uint8_t> bad = patchedSchedulerSnapshot(build, 40, word, value);
  Netlist nl = build();
  SimContext probe(nl);
  expectDecoderRejects(probe, bad, what);
  expectRejectedRestoreChangesNothing(build, 137, bad);
}

TEST(StateIo, RejectedSchedulerLockRestoreChangesNothing) {
  // Both designs arbitrate k = 2 channels: the lock names channel 0 or 1
  // (words 1 and 2), or none (0), and ages up to kMaxLockAge.
  const unsigned kAgeCap = sched::CorrectingScheduler::kMaxLockAge;
  for (const auto& build : {std::function<Netlist()>(table1),
                            std::function<Netlist()>(fig1d)}) {
    expectSchedulerStateRejected(build, 0, 3, "scheduler lock channel out of range");
    expectSchedulerStateRejected(build, 1, kAgeCap + 1,
                                 "scheduler lock age out of range");
  }
}

TEST(StateIo, RejectedSchedulerPolicyRestoreChangesNothing) {
  expectSchedulerStateRejected(table1, 2, 7, "round-robin channel out of range");
  expectSchedulerStateRejected(fig1dWith("2bit"), 2, 4,
                               "two-bit counter out of range");
  expectSchedulerStateRejected(fig1dWith("timeout"), 2, 2,
                               "timeout channel out of range");
  // timeout=1: the stall count rotates the prediction before it passes 1.
  expectSchedulerStateRejected(fig1dWith("timeout"), 3, 2,
                               "timeout stall count out of range");
  expectSchedulerStateRejected(fig1dWith("last"), 2, 2,
                               "last-served channel out of range");
}

TEST(StateIo, SchedulerStateAtTheTopOfItsRangeRestores) {
  // The checks refuse only what the scheduler cannot reach.
  const auto restores = [](const std::function<Netlist()>& build, unsigned word,
                           std::uint64_t value) {
    const std::vector<std::uint8_t> snap =
        patchedSchedulerSnapshot(build, 40, word, value);
    Netlist nl = build();
    sim::Simulator s(nl, restoreOpts(kRestoreModes[0]));
    s.ctx().unpackState(snap);
    EXPECT_EQ(s.ctx().packState(), snap);
    EXPECT_NO_THROW(s.run(20));
  };
  restores(table1, 0, 2);
  restores(fig1d, 1, sched::CorrectingScheduler::kMaxLockAge);
  restores(table1, 2, 1);
  restores(fig1dWith("2bit"), 2, 3);
  restores(fig1dWith("timeout"), 3, 1);
}

// ---------------------------------------------------------------------------
// Every truncation and every single-bit flip of a snapshot is refused at the
// container, and the refused restore changes nothing.
// ---------------------------------------------------------------------------

TEST(StateIo, DamagedSnapshotsAreRejectedAndChangeNothing) {
  const auto fig1a = [] { return patterns::designSpec("fig1a").build(); };
  const std::vector<std::uint8_t> snap = [&] {
    Netlist nl = fig1a();
    sim::Simulator s(nl, restoreOpts(kRestoreModes[0], /*monitor=*/true));
    s.run(300);
    return s.ctx().packState();
  }();
  Netlist nl = fig1a();
  sim::Simulator victim(nl, restoreOpts(kRestoreModes[0], /*monitor=*/true));
  victim.run(137);
  const std::vector<std::uint8_t> before = victim.ctx().packState();
  const auto refused = [&](const std::vector<std::uint8_t>& bad) {
    EXPECT_THROW(victim.ctx().unpackState(bad), EslError);
    return victim.ctx().packState() == before && victim.cycle() == 137;
  };
  for (std::size_t n = 0; n < snap.size(); ++n) {
    const std::vector<std::uint8_t> torn(snap.begin(), snap.begin() + n);
    ASSERT_TRUE(refused(torn)) << "truncated to " << n << " bytes";
  }
  for (std::size_t bit = 0; bit < snap.size() * 8; ++bit) {
    std::vector<std::uint8_t> flipped = snap;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ASSERT_TRUE(refused(flipped)) << "bit " << bit << " flipped";
  }
  victim.ctx().unpackState(snap);
  EXPECT_EQ(victim.ctx().packState(), snap);
}

// ---------------------------------------------------------------------------
// Durable state files (src/sim/state_file.h): packState() bytes go to disk
// as they are, atomically, and come back verified by the container. Damage
// of every flavor must come back as a clean EslError naming the file — never
// a crash, never silently-wrong bytes handed to a deserializer.
// ---------------------------------------------------------------------------

/// A real mid-run snapshot (cycle, node state, no kept cycle).
std::vector<std::uint8_t> sampleSnapshot() {
  Netlist nl;
  auto& src = nl.make<TokenSource>("src", 8, TokenSource::counting(8));
  auto& eb = nl.make<ElasticBuffer>("eb", 8, 2u);
  auto& sink = nl.make<TokenSink>(
      "sink", 8, [](std::uint64_t c) { return hashChancePermille(c, 600, 5); });
  nl.connect(src, 0, eb, 0);
  nl.connect(eb, 0, sink, 0);
  SimContext ctx(nl);
  Rng rng(0xf11e5);
  for (int i = 0; i < 23; ++i) {
    std::vector<bool> bits(ctx.totalChoices());
    for (std::size_t j = 0; j < bits.size(); ++j) bits[j] = rng.next() & 1;
    ctx.setChoicesFrom(bits);
    ctx.settle();
    ctx.edge();
  }
  return ctx.packState();
}

std::string tempStatePath(const std::string& name) {
  return testing::TempDir() + "esl_state_file_" + name;
}

void writeRawBytes(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// What `esl --load-state` does with a file before decoding it.
void verifySnapshotFile(const std::string& path) {
  const std::vector<std::uint8_t> bytes = sim::readFileBytes(path);
  (void)StateReader::open(bytes, StateKind::kSnapshot, "'" + path + "'");
}

/// The error text of verifySnapshotFile(path); empty if it verified.
std::string snapshotFileError(const std::string& path) {
  try {
    verifySnapshotFile(path);
  } catch (const EslError& e) {
    return e.what();
  }
  return "";
}

TEST(StateFile, SnapshotRoundTripsThroughChecksummedContainer) {
  const auto snap = sampleSnapshot();
  const std::string path = tempStatePath("roundtrip.state");
  sim::writeFileAtomic(path, snap, "state-file-write");
  // The file holds the snapshot exactly: the container is packState()'s own.
  EXPECT_EQ(sim::readFileBytes(path), snap);
  EXPECT_NO_THROW(verifySnapshotFile(path));
  std::remove(path.c_str());
}

TEST(StateFile, OlderFormatsAreStructuredErrors) {
  const auto snap = sampleSnapshot();
  const std::string path = tempStatePath("older.state");
  // A container of the previous version: refused by version, not decoded.
  std::vector<std::uint8_t> v1 = snap;
  v1[4] = 1;
  writeRawBytes(path, v1);
  EXPECT_NE(snapshotFileError(path).find("unsupported state version 1"),
            std::string::npos);
  // A bare file without the container (what --save-state wrote before it
  // existed) is not sniffed for: it has no magic.
  writeRawBytes(path, std::vector<std::uint8_t>(snap.begin() + kStateHeaderBytes,
                                                snap.end()));
  EXPECT_NE(snapshotFileError(path).find("not an esl state file"), std::string::npos);
  // A session record is a container of another kind.
  StateWriter session(StateKind::kSession);
  writeRawBytes(path, session.seal());
  EXPECT_NE(snapshotFileError(path).find("holds a session record, not a snapshot"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(StateFile, TruncatedRecordsAreRejected) {
  const auto snap = sampleSnapshot();
  const std::string path = tempStatePath("truncated.state");
  // Torn mid-payload: header intact, payload short.
  writeRawBytes(path, std::vector<std::uint8_t>(snap.begin(), snap.end() - 7));
  EXPECT_NE(snapshotFileError(path).find("truncated"), std::string::npos);
  // Torn inside the header itself.
  writeRawBytes(path, std::vector<std::uint8_t>(snap.begin(),
                                                snap.begin() + kStateHeaderBytes / 2));
  EXPECT_NE(snapshotFileError(path).find("truncated"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StateFile, BitFlippedRecordsAreRejected) {
  auto bytes = sampleSnapshot();
  const std::string path = tempStatePath("bitflip.state");
  bytes[kStateHeaderBytes + (bytes.size() - kStateHeaderBytes) / 2] ^= 0x10;
  writeRawBytes(path, bytes);
  EXPECT_NE(snapshotFileError(path).find("checksum mismatch"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StateFile, ForeignFilesAreRejected) {
  const std::string path = tempStatePath("foreign.state");
  const std::string text = "this is not an esl state file, but it is long\n";
  writeRawBytes(path, std::vector<std::uint8_t>(text.begin(), text.end()));
  EXPECT_NE(snapshotFileError(path).find("bad magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StateFile, MissingFileIsACleanError) {
  EXPECT_THROW(sim::readFileBytes(tempStatePath("never-written.state")), EslError);
}

TEST(StateFile, InjectedWriteFaultsProduceCleanFailures) {
  const auto snap = sampleSnapshot();
  const std::string path = tempStatePath("faulted.state");
  // fail: the write throws; no file appears under the real name.
  fault::arm("state-file-write", {fault::Kind::kFail, 1, 0});
  EXPECT_THROW(sim::writeFileAtomic(path, snap, "state-file-write"), EslError);
  EXPECT_THROW(sim::readFileBytes(path), EslError);  // nothing was renamed in
  // truncate: the write "succeeds" but the artifact is torn — the reader
  // must catch it by declared-length mismatch.
  fault::arm("state-file-write", {fault::Kind::kTruncate, 1, 40});
  sim::writeFileAtomic(path, snap, "state-file-write");
  EXPECT_THROW(verifySnapshotFile(path), EslError);
  // bitflip: full-length artifact, one bit of rot — caught by the CRC.
  fault::arm("state-file-write",
             {fault::Kind::kBitFlip, 1, (kStateHeaderBytes + 9) * 8});
  sim::writeFileAtomic(path, snap, "state-file-write");
  EXPECT_THROW(verifySnapshotFile(path), EslError);
  fault::disarmAll();
  // Disarmed, the same path round-trips again.
  sim::writeFileAtomic(path, snap, "state-file-write");
  EXPECT_EQ(sim::readFileBytes(path), snap);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace esl
