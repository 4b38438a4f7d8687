// SimContext: the cycle-accurate evaluation kernel.
//
// Owns the channel SignalBoard (struct-of-arrays signal storage, see
// elastic/signal_board.h) and the nodes' state records, and drives the
// two-phase cycle:
//   1. settle(): combinational fixed-point (throws CombinationalCycleError if
//      the network oscillates, i.e. there is a combinational cycle in data or
//      control);
//   2. edge(): clockEdge() on every node, advancing sequential state.
//
// Two settle kernels are available:
//   * kSweep — the reference kernel: evalComb() over every node, sweep until
//     no signal changes anywhere;
//   * kEventDriven (default) — sparse worklist kernel: seeds the nodes whose
//     evaluation can differ from the previous settled cycle (everything with
//     sequential state or choice bits; all nodes after reset), then
//     re-evaluates only nodes whose adjacent channel signals actually changed,
//     through a channel→reader adjacency (CSR) the context builds from the
//     netlist's channel list. Signals are retained across cycles, so untouched
//     combinational regions are never re-visited.
//
// The edge phase is dirty-tracked to match: with the settled signals in
// bitplanes, the transfer/kill event masks of 64 channels at a time come from
// a handful of word ops, and edge() clocks only the nodes adjacent to an
// actual event plus the nodes whose EdgeActivity hint demands every cycle.
// The full clockEdge sweep remains the reference path (sweep kernel, and any
// cycle whose signals were written outside the event kernel).
// setCrossCheck(true) runs both settle kernels every cycle and throws
// InternalError on any disagreement (the equivalence harness in
// tests/test_sim_kernel.cpp); its edge runs the full sweep while auditing the
// EdgeActivity declarations — a node the dirty-tracker would have skipped must
// leave its packState() bytes unchanged. Under the compiled backend it also
// audits each specialized edge op: the op runs, the node's record words are
// rewound by a copy, the interpreted clockEdge runs over them (its record is
// the one kept, so statistics count once), and the two packings must match.
//
// --- Sharded cycles ---------------------------------------------------------
//
// One event kernel runs every shard count: setShards(N) partitions ONE netlist
// into N contiguous node blocks, and a serial context is the case N = 1, one
// block that owns every node. Each cycle runs shard-parallel on a
// work-stealing Executor:
//   * settle: level-synchronous rounds. Within a round every shard drains its
//     own worklist (interior channels — both endpoints owned — live in
//     shard-exclusive bitplane ranges), while writes to boundary channels are
//     staged in the SignalBoard's back copy. Between rounds a serial barrier
//     step publishes changed boundary values and seeds their cross-shard
//     readers; the settle ends when a round stages no boundary change and
//     every worklist is empty. The result is the same unique fixed point the
//     sweep kernel reaches, so settled signals — and therefore packState() —
//     are bit-identical for every shard count.
//   * edge: each shard sweeps its interior plane range (plus the boundary
//     region, filtered by ownership) for event bits and clocks only its own
//     nodes. clockEdge writes only its node's record (in the shard's own
//     slice), so no synchronization is needed beyond the join barrier.
// With more than one shard, per-cycle choice bits are pre-resolved serially
// before the parallel phases (the provider must be a pure function of
// (node, index) per cycle — see sim::Simulator, whose provider hashes (seed,
// cycle, node, index)), keeping resolution order-independent and the cache
// read-only under workers. One shard has no boundary region, so its cycle is
// one drain and one edge scan on the calling thread: no staging, no barrier
// rounds, no executor, and choice bits resolve lazily as nodes read them.
//
// --- Node state --------------------------------------------------------------
//
// Everything a node changes during a run — sequential state, memos,
// statistics, a shared module's scheduler state — is its record in one
// context-owned u64 arena (Node::recordWords() words each, in liveNodes_
// order, each shard's slice starting on a cache line). The arena is laid out
// with the board, whenever the topology or the shard count moves: surviving
// nodes keep their records, a node that joins the context gets its reset
// record. Every execution path — the sweep, event and sharded kernels, the
// compiled backend, packState and unpackState — reads and writes the same
// records, so there is one copy of the state and nothing to keep in step.
// The netlist and its node objects are only read, so any number of contexts
// can simulate one netlist at once, on any threads, as long as nobody edits
// it meanwhile. What a caller wants logged beyond the records — the transfer
// stream of a channel — the context logs too, only when asked.
//
// The context also resolves per-cycle nondeterministic choice bits for
// environment nodes (random under simulation, enumerated under verification)
// and optionally monitors the SELF protocol properties of paper §3.1 on every
// channel (Retry+/Retry-, kill/stop exclusion, persistence). The monitor is
// word-parallel: each rule is one mask over a 64-channel plane group of the
// settled board and of the previous cycle's, and only a cycle whose masks
// find a violation walks the channels to report it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "elastic/netlist.h"
#include "elastic/signal_board.h"

namespace esl {

class Executor;
class StateWriter;

class SimContext {
 public:
  enum class SettleKernel {
    kSweep,        ///< dense fixed-point sweep over all nodes (reference)
    kEventDriven,  ///< sparse worklist driven by signal-change events
  };

  /// Execution backend for the event-driven cycle phases.
  enum class Backend {
    kInterpreted,  ///< virtual evalComb/clockEdge dispatch (default)
    kCompiled,     ///< op table over raw board offsets (compile/compiler.h)
  };

  /// The netlist must outlive the context, and must not change while the
  /// context runs a phase; it is validated on construction.
  explicit SimContext(const Netlist& netlist);
  ~SimContext();

  const Netlist& netlist() const { return netlist_; }

  /// Resets all node state and signals; cycle counter back to 0.
  void reset();

  /// Runs one full cycle: choices -> settle -> protocol check -> edge.
  void step();

  /// Phase pieces (the model checker drives them separately).
  void settle();
  void checkProtocol();
  void edge();

  std::uint64_t cycle() const { return cycle_; }

  // --- Settle kernel selection ----------------------------------------------

  void setKernel(SettleKernel kernel) { kernel_ = kernel; }
  SettleKernel kernel() const { return kernel_; }
  /// Run BOTH kernels each settle from the same pre-settle signals and throw
  /// InternalError on any per-channel disagreement. With shards configured the
  /// event side runs sharded, so this doubles as the sharded-vs-serial oracle.
  void setCrossCheck(bool enabled) { crossCheck_ = enabled; }
  bool crossCheck() const { return crossCheck_; }

  /// Shard the netlist across `n` worker lanes (1 = serial, the default; at
  /// most Executor::kMaxLanes, checked before anything is allocated).
  /// Settled signals and packState() are bit-identical for every value.
  void setShards(unsigned n);
  unsigned shards() const { return shards_; }

  /// Selects the execution backend for the event-driven kernel. The compiled
  /// backend runs settle/edge from an op table over raw board offsets and the
  /// same node records; the table is built with the board whenever the
  /// board is laid out, and setBackend builds (or drops) it against the
  /// current layout. Settled signals and packState() are bit-identical to
  /// the interpreted kernels.
  /// Applies when kernel() == kEventDriven (the sweep kernel stays
  /// interpreted — it is the reference oracle) and composes with setShards:
  /// boundary-adjacent nodes fall back to the staging-aware interpreted path,
  /// so the sharded compiled cycle reaches the same fixpoint. With
  /// setCrossCheck(true) the compiled backend is what the sweep audits.
  void setBackend(Backend backend);
  Backend backend() const { return backend_; }

  /// What the event kernel's drains did since construction, over every
  /// shard: nodes evaluated, and worklist words the cursor search examined
  /// (second-level words read to find the next pending word). Always
  /// counted; the sweep kernel's evaluations are not.
  struct SettleWork {
    std::uint64_t evaluations = 0;
    std::uint64_t wordsSearched = 0;
  };
  SettleWork settleWork() const;

  /// External code that writes channel signals directly (outside evalComb)
  /// must call this before the next settle() so the event-driven kernel
  /// re-seeds every node instead of trusting retained signals.
  void invalidateSignals() {
    needFullSeed_ = true;
    changeTrackValid_ = false;
    edgeTrackValid_ = false;
    sparseSeedValid_ = false;
  }

  /// Mutable/read-only accessor proxies into the SignalBoard.
  Sig sig(ChannelId ch) { return {board_, slotOrThrow(ch)}; }
  ConstSig sig(ChannelId ch) const {
    return {board_, slotOrThrow(ch)};
  }
  /// The signal board itself (word-parallel consumers: statistics sweeps).
  const SignalBoard& board() const { return board_; }

  /// Node `id`'s state record (valid until the next relayout; see "Node
  /// state" above).
  std::uint64_t* record(NodeId id) { return records_.data() + recordOff_[id]; }
  /// The read-only form (statistics getters) checks that `id` has a record:
  /// a node spliced in since the last cycle gets one at the next.
  const std::uint64_t* record(NodeId id) const {
    ESL_CHECK(id < recordOff_.size() && recordOff_[id] != kNoRecord,
              "SimContext::record: node " + std::to_string(id) +
                  " has no record in this context yet");
    return records_.data() + recordOff_[id];
  }

  // --- Transfer logs ---------------------------------------------------------

  /// One forward transfer on a logged channel.
  struct Transfer {
    std::uint64_t cycle;
    BitVec data;
  };
  /// Logs `ch`'s forward transfers from the next edge on, read off the
  /// settled board (a sink's input channel carries its transfer stream, the
  /// observable behaviour of paper §3.1). A log grows by a token per
  /// transfer, so the context keeps only the ones asked for; reset() empties
  /// them, unpackState leaves them be.
  void logTransfers(ChannelId ch) { logs_.try_emplace(ch); }
  /// `ch`'s log (empty if it was never asked for).
  const std::vector<Transfer>& transfers(ChannelId ch) const;

  // --- Nondeterministic choices ---------------------------------------------

  /// Total choice bits consumed per cycle by all nodes.
  unsigned totalChoices() const { return totalChoices_; }

  /// Fixes this cycle's choice assignment (verification). Cleared after
  /// edge(). Copies `bits`, reusing the internal buffer's capacity, since
  /// the model checker replays one precomputed assignment many times.
  void setChoicesFrom(const std::vector<bool>& bits);

  /// Fallback provider used when no explicit assignment is set (simulation).
  /// Must be stable within a cycle AND order-independent across queries —
  /// i.e. a pure function of (node, index) for the current cycle — because
  /// the kernels (serial and sharded) resolve slots in evaluation order.
  void setChoiceProvider(std::function<bool(NodeId, unsigned)> fn);

  /// Read by nodes inside evalComb/clockEdge; stable within a cycle. Out of
  /// line: the compiled dispatch (evalOp/edgeOp, same file) is flattened, and
  /// inlining this, error paths and all, into every op that reads a choice
  /// bloats the dispatch and slows every op.
  [[gnu::noinline]] bool choice(const Node& node, unsigned idx);

  // --- Protocol monitoring ---------------------------------------------------

  /// With checking on, edge() keeps what the next cycle's checkProtocol()
  /// needs of this one; checkProtocol() appends one message per violation,
  /// in channel-id order (throwing ProtocolError on the first one instead
  /// when setThrowOnViolation is set). packState() carries the kept cycle, so
  /// a Retry+/Retry- rule spanning a save/restore is checked too.
  void setProtocolChecking(bool enabled) { protocolChecking_ = enabled; }
  void setThrowOnViolation(bool enabled) { throwOnViolation_ = enabled; }
  const std::vector<std::string>& protocolViolations() const { return violations_; }

  // --- State snapshots -------------------------------------------------------

  /// packState() is a StateKind::kSnapshot container (elastic/state_io.h).
  /// Its payload, in order: the u64 cycle counter, so a resume keeps
  /// cycle-gated environment nodes in phase; the node section, a sized
  /// section holding exactly packStateInto()'s bytes; a u8 flag, 1 if the
  /// context keeps a monitor cycle, which then follows: a u32 live-channel
  /// count, each live channel's control bits (a byte, vf sf vb sb from bit
  /// 0), then each stopped token's (vf sf !vb) payload, in channel-id order,
  /// so every execution mode packs the same bytes. unpackState() accepts only
  /// such a container and is all or nothing: a damaged, foreign or
  /// out-of-range snapshot throws EslError (`origin` prefixes container
  /// errors) and changes nothing. Restoring and then packing gives back the
  /// same bytes.
  std::vector<std::uint8_t> packState();
  void unpackState(const std::vector<std::uint8_t>& bytes,
                   const std::string& origin = "unpackState");
  /// The snapshot payload alone, for a format that carries one inline (the
  /// serve session record); `r` must span exactly the payload.
  void packSnapshot(StateWriter& w);
  void unpackSnapshot(StateReader r);

  /// The model checker's per-transition pair: the node section alone (the
  /// checker compares states within one context, and a cycle counter would
  /// blow up its state space). packStateInto reuses `out`'s capacity.
  /// unpackNodeState is all or nothing, keeps the cycle counter and drops
  /// the kept cycle.
  void packStateInto(std::vector<std::uint8_t>& out);
  void unpackNodeState(const std::vector<std::uint8_t>& bytes);

 private:
  std::uint32_t slotOrThrow(ChannelId ch) const {
    const std::uint32_t slot = board_.slotOf(ch);
    ESL_CHECK(slot != SignalBoard::kNoSlot,
              "SimContext::sig: channel " + std::to_string(ch) +
                  " has no signal slot (removed, or created after the last "
                  "settle/reset)");
    return slot;
  }

  struct Shard {
    std::vector<NodeId> owned;       ///< live nodes, ascending id
    std::vector<NodeId> alwaysEdge;  ///< owned nodes with kEveryCycle
    std::size_t pending = 0;         ///< worklist size (set bits in pendingBits_)
    /// The drain's word: no pendingBits_ word below it holds a pending node.
    std::size_t cursorW = 0;
    std::size_t loW = 0;             ///< first pendingBits_ word this shard owns
    /// The worklist's second level: bit i is set while pendingBits_[loW + i]
    /// holds a pending node and is not the cursor's word. Per shard, because
    /// shard blocks are snapped only to 64-id words, so a shared summary word
    /// would have two writers.
    std::vector<std::uint64_t> pendingWords;
    SettleWork work;                 ///< this shard's drain counters
    std::vector<NodeId> edgeList;    ///< per-edge scratch: nodes to clock
    std::vector<NodeId> clocked;     ///< stateful nodes clocked at last edge
    /// Interior plane groups that may carry a token/anti-token ("hot"):
    /// maintained incrementally by the settle's change mirror, compacted
    /// lazily at the edge scan — the edge phase stays O(active), never
    /// O(channels/64), on large idle boards.
    std::vector<std::uint32_t> hotGroups;
  };

  void ensureChoiceMap();
  /// Refreshes the per-topology caches when the topology or the shard count
  /// moved: the one place the board is laid out and record offsets move, so
  /// the op table (compiled backend) is built here too.
  void ensureTopologyCache();
  /// Re-lays the record arena for liveNodes_ (part of ensureTopologyCache).
  void layoutRecords();
  void resolveAllChoices();
  void rebuildHotGroups();
  /// Per-node re-evaluation budget (combinational-cycle guard): the sweep
  /// kernel's iteration bound, clamped so the count always fits the 24-bit
  /// field of evalMeta_.
  std::uint32_t evalBudget() const {
    const std::size_t raw = 2 * liveNodes_.size() + 8;
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(raw, (std::size_t{1} << 24) - 1));
  }
  void markHotGroup(Shard& sh, std::uint32_t slot) {
    const std::uint32_t g = slot >> 6;
    if (!groupHot_[g] && board_.activityAtGroup(g) != 0) {
      groupHot_[g] = 1;
      sh.hotGroups.push_back(g);
    }
  }
  void settleSweep();
  /// The event-driven settle and dirty-tracked edge, through the backend's
  /// per-node dispatch.
  void settleEvent();
  void edgeEvent();
  void settleCrossChecked();
  /// Adds node `id` to its shard's worklist. The cursor's own word has no
  /// second-level bit, so a push there (every push, on a design whose node
  /// ids fit one word) costs no second-level write.
  void pushInto(Shard& sh, NodeId id) {
    const std::size_t w = id >> 6;
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    const std::uint64_t bits = pendingBits_[w];
    if (bits & m) return;
    pendingBits_[w] = bits | m;
    ++sh.pending;
    if (w > sh.cursorW) {
      if (bits == 0) markWord(sh, w);
    } else if (w < sh.cursorW) {
      // A push behind the cursor (a stop or kill travelling against the
      // data): the cursor moves back to it, and the word it leaves keeps its
      // place in the second level if it still holds pending nodes.
      if (pendingBits_[sh.cursorW] != 0) markWord(sh, sh.cursorW);
      sh.cursorW = w;
    }
  }
  void markWord(Shard& sh, std::size_t w) {
    const std::size_t i = w - sh.loW;
    sh.pendingWords[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  /// Moves the cursor off its emptied word to the lowest pending word, found
  /// in the shard's second level (whose bit it then clears); the shard's
  /// worklist must not be empty.
  void advanceCursor(Shard& sh) {
    const std::size_t i = sh.cursorW - sh.loW;
    std::size_t s = i >> 6;
    std::uint64_t m = sh.pendingWords[s] & (~std::uint64_t{0} << (i & 63));
    ++sh.work.wordsSearched;
    while (m == 0) {
      m = sh.pendingWords[++s];
      ++sh.work.wordsSearched;
    }
    const std::uint64_t lowest = m & (~m + 1);
    sh.pendingWords[s] &= ~lowest;
    sh.cursorW = sh.loW + s * 64 + static_cast<unsigned>(__builtin_ctzll(m));
  }
  /// Empties every worklist: a settle that throws leaves nodes pending.
  void clearWorklists();
  void seedShards();

  // --- the event kernel loops ------------------------------------------------
  // One settle and one edge loop serve every backend and shard count. They are
  // templates over the per-node dispatch: the interpreted backend passes the
  // virtual evalComb/clockEdge, the compiled backend evalOp/edgeOp. Sharing the
  // loops makes seeding, worklist order, change consumption and hot-group
  // maintenance — and therefore the settled fixpoint and the set of clocked
  // nodes — identical by construction across backends. A serial context is
  // one shard that owns every node: its board has no boundary region, so the
  // loops run that shard's body once on the calling thread.

  /// The compiled backend's per-node dispatch: node `id`'s op from the op
  /// table, its kind's comb/edge template through the arena view
  /// (compile/arena.h), or the virtual evalComb/clockEdge for a kGeneric op.
  void evalOp(NodeId id);
  void edgeOp(NodeId id);
  /// Builds the op table against the current layout (compiled backend), or
  /// drops it.
  void compileOps();
  /// Fetches the raw board and record addresses the ops run over.
  void bindOps();

  /// One shard's worklist drain, lowest id first: it pops the lowest pending
  /// node, so a push behind the cursor (a stop or kill travelling against the
  /// data) is evaluated next. The cursor stays on its word while that word
  /// holds pending nodes; when it empties, the shard's second level names the
  /// next pending word, so the drain never steps through empty words. It
  /// returns with both levels empty. `eval(id)` must evaluate node `id`'s
  /// combinational function against the board.
  template <typename Eval>
  void drainShardWith(unsigned s, std::uint64_t gen, std::uint32_t maxEvals,
                      const Eval& eval) {
    // Interior-channel changes propagate immediately (both endpoints are
    // owned), boundary writes are staged on the board and published at the
    // next barrier.
    Shard& sh = shardState_[s];
    constexpr std::uint64_t kGenMask = (std::uint64_t{1} << 40) - 1;
    const std::uint64_t genLo = gen & kGenMask;
    while (sh.pending > 0) {
      std::uint64_t bits = pendingBits_[sh.cursorW];
      if (bits == 0) {
        advanceCursor(sh);
        bits = pendingBits_[sh.cursorW];
      }
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(bits));
      const NodeId id = static_cast<NodeId>(sh.cursorW * 64 + bit);
      pendingBits_[sh.cursorW] = bits & (bits - 1);
      --sh.pending;
      const std::uint64_t meta = evalMeta_[id];
      const std::uint64_t evals = ((meta & kGenMask) == genLo ? meta >> 40 : 0) + 1;
      if (evals > maxEvals)
        throw CombinationalCycleError(
            "combinational network did not stabilize: node '" +
            netlist_.node(id).name() + "' re-evaluated more than " +
            std::to_string(maxEvals) +
            " times (combinational cycle in data or control)");
      evalMeta_[id] = (evals << 40) | genLo;
      ++sh.work.evaluations;
      eval(id);

      bool selfChanged = false;
      const std::uint32_t aEnd = adjOffset_[id + 1];
      for (std::uint32_t a = adjOffset_[id]; a < aEnd; ++a) {
        const std::uint32_t slot = adjFlat_[a].slot;
        if (board_.inBoundary(slot)) continue;  // staged; the sync seeds readers
        if (!board_.consumeChanged(slot)) continue;
        markHotGroup(sh, slot);  // interior groups are owner-exclusive
        const NodeId other = adjFlat_[a].other;
        if (!nodeStateDriven_[other]) pushInto(sh, other);
        selfChanged = true;
      }
      if (selfChanged && nodeUnaudited_[id]) pushInto(sh, id);
    }
  }

  /// The event-driven settle: seed every shard, then drain to the fixed
  /// point. With one shard that is a single drain. With more, the drains run
  /// in level-synchronous rounds under boundary staging, and a serial barrier
  /// step between rounds publishes staged boundary changes and seeds their
  /// cross-shard readers.
  template <typename Eval>
  void settleWith(const Eval& eval) {
    // The board's changed bits mirror every un-consumed write, so change
    // tracking stays valid across cycles: this refresh runs once after
    // reset/rewiring/sweep interludes, not every settle.
    if (!changeTrackValid_) {
      board_.clearChanged();
      changeTrackValid_ = true;
      rebuildHotGroups();
    }
    const std::uint64_t gen = ++settleGen_;
    const std::uint32_t maxEvals = evalBudget();
    for (Shard& sh : shardState_) sh.cursorW = sh.loW;
    try {
      seedShards();
      if (shards_ == 1) {
        drainShardWith(0, gen, maxEvals, eval);
      } else {
        resolveAllChoices();
        board_.setStagingActive(true);
        bool any = false;
        for (const Shard& sh : shardState_) any = any || sh.pending > 0;
        while (any) {
          // One level-synchronous round: every shard drains its worklist.
          parallelShards(
              [&](unsigned s) { drainShardWith(s, gen, maxEvals, eval); });
          // Barrier step (single-threaded): publish staged boundary changes
          // and seed their readers. Both endpoints are seeded — the
          // consumer-side reader of producer-driven fields, the producer-side
          // reader of consumer-driven fields, and the unaudited writer's
          // confirming re-eval all collapse into this conservative push. A
          // re-evaluation on unchanged inputs is a no-op, so the fixed point
          // is unaffected.
          any = false;
          board_.syncBoundary([&](ChannelId ch) {
            const Channel& c = netlist_.channel(ch);
            if (!nodeStateDriven_[c.producer])
              pushInto(shardState_[plan_.nodeShard[c.producer]], c.producer);
            if (!nodeStateDriven_[c.consumer])
              pushInto(shardState_[plan_.nodeShard[c.consumer]], c.consumer);
          });
          for (const Shard& sh : shardState_) any = any || sh.pending > 0;
        }
        board_.setStagingActive(false);
      }
    } catch (...) {
      // A node threw (CombinationalCycleError, a node's own error) mid-settle:
      // the board holds a partial settle, and the readers of what changed
      // may still be pending. Empty the worklists, leave the board usable —
      // staged-but-unpublished boundary writes must not swallow the next
      // kernel's (or an external writer's) stores — and re-seed every node
      // next time, so a retried step does not run on the stale signals.
      board_.setStagingActive(false);
      clearWorklists();
      invalidateSignals();
      throw;
    }
    edgeTrackValid_ = true;
  }

  /// The dirty-tracked clock edge: every shard clocks its own nodes — one
  /// shard directly, more on the executor.
  template <typename Clock>
  void edgeWith(const Clock& clock) {
    const std::uint64_t gen = ++edgeGen_;
    if (shards_ == 1)
      edgeShardWith(0, gen, clock);
    else
      parallelShards([&](unsigned s) { edgeShardWith(s, gen, clock); });
    sparseSeedValid_ = true;
  }

  /// Shard `s`'s edge. It clocks (a) its nodes whose hint demands every cycle
  /// and (b) its nodes adjacent to a channel with an actual transfer/kill
  /// event. The interior scan walks the incrementally maintained hot-group
  /// list — 64 channels per entry, event masks word-parallel — and compacts
  /// groups that went quiet in passing, so a once-hot group costs one check,
  /// not a permanent entry; interior endpoints are owned by construction. The
  /// boundary region is shared and small (empty with one shard): it is
  /// scanned unconditionally, filtered by ownership. clock(id) must write
  /// only node `id`'s record, so the only shared writes are the
  /// ownership-filtered (word-exclusive) edge-mark bitmap.
  template <typename Clock>
  void edgeShardWith(unsigned s, std::uint64_t gen, const Clock& clock) {
    Shard& sh = shardState_[s];
    sh.edgeList.clear();
    const auto mark = [&](NodeId id) {
      const std::size_t w = id >> 6;  // bitmap words are owner-exclusive
      if (edgeWordGen_[w] != gen) {
        edgeWordGen_[w] = gen;
        edgeBits_[w] = 0;
      }
      const std::uint64_t m = std::uint64_t{1} << (id & 63);
      if (!(edgeBits_[w] & m)) {
        edgeBits_[w] |= m;
        sh.edgeList.push_back(id);
      }
    };
    for (const NodeId id : sh.alwaysEdge) mark(id);
    std::size_t keep = 0;
    for (const std::uint32_t g : sh.hotGroups) {
      if (board_.activityAtGroup(g) == 0) {
        groupHot_[g] = 0;
        continue;
      }
      sh.hotGroups[keep++] = g;
      scanEventGroups(g, g + 1, [&](NodeId id) {
        if (id != kNoNode) mark(id);  // padding slots carry no endpoints
      });
    }
    sh.hotGroups.resize(keep);
    const auto [blo, bhi] = board_.boundaryGroupRange();
    scanEventGroups(blo, bhi, [&](NodeId id) {
      if (id != kNoNode && plan_.nodeShard[id] == s) mark(id);
    });
    for (const NodeId id : sh.edgeList) clock(id);
    // The clocked stateful nodes are the only ones whose state can differ at
    // the next settle, so they (plus the per-cycle readers) become its seeds.
    sh.clocked.clear();
    for (const NodeId id : sh.edgeList)
      if (nodeStateful_[id]) sh.clocked.push_back(id);
  }

  /// Runs fn(shard) on the executor, one worker lane per shard (type-erased
  /// so the kernel-loop templates stay free of the executor header).
  void parallelShards(const std::function<void(unsigned)>& fn);
  /// Serializes every live node's state: the node section of packState()
  /// and all of packStateInto().
  void packNodeState(StateWriter& w) const;
  /// Decodes a node section into unpackRecords_, committing nothing.
  void stageNodeState(StateReader r);
  /// Decodes a kept cycle into sweepScratch_, committing nothing.
  void stageKeptCycle(StateReader& r);

  /// The protocol monitor's word-parallel pass: true if any plane group holds
  /// a channel that breaks a §3.1 rule this cycle.
  bool protocolScanFindsViolation() const;
  /// The monitor's per-channel reporting pass, in channel-id order; runs only
  /// in a cycle whose scan found a violation.
  void reportProtocolViolations();

  void edgeFull();
  void edgeAudited();
  void edgeEpilogue();
  /// Scans plane groups [lo, hi) for event bits, calling mark(node) on each
  /// adjacent endpoint (owner filtering is the caller's mark).
  template <typename Mark>
  void scanEventGroups(std::size_t lo, std::size_t hi, const Mark& mark) {
    for (std::size_t g = lo; g < hi; ++g) {
      if (board_.activityAtGroup(g) == 0) continue;
      std::uint64_t ev = board_.eventsAtGroup(g).any();
      while (ev != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(ev));
        ev &= ev - 1;
        const std::uint32_t slot = static_cast<std::uint32_t>(g * 64 + bit);
        mark(board_.producerAtSlot(slot));
        mark(board_.consumerAtSlot(slot));
      }
    }
  }
  Executor& exec();

  const Netlist& netlist_;
  SignalBoard board_;       ///< current signals (SoA)
  std::map<ChannelId, std::vector<Transfer>> logs_;  ///< see logTransfers
  /// The protocol monitor's view of the previous settled cycle: all four
  /// control planes, but only the payloads of stopped tokens (the Retry+ data
  /// check) — every other payload is stale. Kept only while checking is on.
  SignalBoard prevBoard_;
  // Value-snapshot scratch boards (sweep convergence, cross-check pre/event,
  // a restored kept cycle), re-laid only when the topology cache refreshes —
  // never per settle.
  SignalBoard sweepScratch_;
  SignalBoard ccPre_;
  SignalBoard ccEvent_;
  std::uint64_t cycle_ = 0;
  bool havePrev_ = false;

  // Event-driven kernel state (scratch, reused across settles).
  SettleKernel kernel_ = SettleKernel::kEventDriven;
  bool crossCheck_ = false;
  bool needFullSeed_ = true;
  /// The board's write-tracked changed bits reflect exactly the un-propagated
  /// writes (false after external writes / sweep settles, which bypass the
  /// consume loop).
  bool changeTrackValid_ = false;
  // The worklist is a two-level bitmap: pendingBits_ holds a bit per node
  // (64 per word, each word owned by one shard), and each shard's
  // pendingWords a bit per pendingBits_ word of its range that holds one,
  // the drain cursor's word aside. Both levels are empty between settles: a
  // drain pops every bit it set, and a settle that throws clears them
  // (clearWorklists).
  /// Generation of the current settle (no O(capacity) clear of evalMeta_).
  std::uint64_t settleGen_ = 0;
  std::vector<std::uint64_t> pendingBits_;  ///< bit set → in worklist
  /// Per-node eval budget (combinational-cycle guard), packed as
  /// count<<40 | gen&(2^40-1): one load/store per eval instead of two arrays.
  std::vector<std::uint64_t> evalMeta_;

  // Clock-edge dirty-tracking: valid whenever the event kernel settled the
  // board (events are then a pure bitplane function of the settled signals).
  bool edgeTrackValid_ = false;
  std::uint64_t edgeGen_ = 0;                 ///< dedup stamp for edge marks
  std::vector<std::uint64_t> edgeBits_;       ///< bitmap: already queued
  std::vector<std::uint64_t> edgeWordGen_;    ///< == edgeGen_ → word valid
  std::vector<std::uint8_t> groupHot_;        ///< membership flag per plane group

  // Sparse settle seeding: after a dirty-tracked edge, only the nodes that
  // were actually clocked (each shard's `clocked`) can have changed state, so
  // the next settle seeds those plus the per-cycle readers instead of every
  // stateful node.
  bool sparseSeedValid_ = false;

  // Sharding: node partition + per-shard scratch + lazily built executor.
  unsigned shards_ = 1;
  ShardPlan plan_;
  std::vector<Shard> shardState_;
  SettleWork retiredWork_;  ///< counters of shards dropped by a relayout
  std::unique_ptr<Executor> exec_;

  // Compiled backend: the op table, laid out with the board and the records
  // (empty under the interpreted backend), and the addresses it runs over.
  Backend backend_ = Backend::kInterpreted;
  compile::Program program_;
  compile::RawBoard raw_;

  // Per-topology caches (live ids, seed set, channel persistence), refreshed
  // whenever the netlist's topologyVersion moves (or the shard count does).
  std::uint64_t topologySeen_ = ~std::uint64_t{0};
  unsigned shardsSeen_ = 0;
  std::vector<NodeId> liveNodes_;
  std::vector<const Node*> nodePtr_;  ///< cached per-id pointers (hot dispatch)
  /// Channel→reader adjacency (CSR), counted out of liveChannels_ with the
  /// board slot resolved at cache-build time: the drain loops walk one
  /// contiguous range per node.
  struct AdjEntry {
    std::uint32_t slot;
    NodeId other;
  };
  std::vector<std::uint32_t> adjOffset_;  ///< indexed by NodeId, size cap+1
  std::vector<AdjEntry> adjFlat_;
  std::vector<NodeId> seedNodes_;            ///< live nodes not kCombPure
  std::vector<NodeId> cycleSeedNodes_;       ///< per-cycle readers + unaudited
  std::vector<NodeId> choiceNodes_;          ///< live nodes with choiceCount>0
  std::vector<std::uint8_t> nodeUnaudited_;  ///< kUnaudited flag per node
  std::vector<std::uint8_t> nodeStateDriven_;  ///< kStateDriven flag per node
  std::vector<std::uint8_t> nodeEdgeOnEvents_;  ///< kOnEvents flag per node
  std::vector<std::uint8_t> nodeStateful_;      ///< !kCombPure flag per node
  std::vector<ChannelId> liveChannels_;
  /// Per plane group of board_: bit set = the slot's channel is persistent,
  /// i.e. not exempt from Retry+ (Netlist::channelPersistence).
  std::vector<std::uint64_t> persistentMask_;

  // Node state records (see "Node state" above).
  static constexpr std::uint32_t kNoRecord = ~std::uint32_t{0};
  std::vector<std::uint64_t> records_;
  std::vector<std::uint32_t> recordOff_;  ///< per NodeId; kNoRecord = none
  /// unpackState scratch, reused: the records it decodes into.
  std::vector<std::uint64_t> unpackRecords_;
  /// The edge audit's scratch, reused: a record's words before its op ran.
  std::vector<std::uint64_t> auditRecord_;

  // Choice bookkeeping: per-node offset into the per-cycle assignment. The
  // cache is two packed bitplanes (known/value) so the per-cycle clear — and
  // setChoicesFrom — is a word fill, not a byte loop.
  std::vector<unsigned> choiceOffset_;  // indexed by NodeId
  unsigned totalChoices_ = 0;
  std::vector<bool> fixedChoices_;
  bool hasFixedChoices_ = false;
  std::vector<std::uint64_t> choiceKnown_;  ///< bit set → value cached
  std::vector<std::uint64_t> choiceValue_;
  std::function<bool(NodeId, unsigned)> choiceProvider_;

  bool protocolChecking_ = false;
  bool throwOnViolation_ = false;
  std::vector<std::string> violations_;
};

}  // namespace esl
