// Bytecode VM for the compiled simulation backend.
//
// Executes the Program produced by compile/compiler.h over the SimContext's
// SignalBoard arena. The VM reuses the context's event-driven kernel loops
// verbatim (the drainShardWith/edgeSparseWith templates — and their sharded
// counterparts settleShardedWith/edgeShardedWith when shards > 1), swapping
// only the per-node dispatch: instead of `nodePtr_[id]->evalComb(ctx)` it
// runs a specialized op over pre-resolved word/bitplane addresses — the
// settle stays a bitmap worklist and the edge stays a hot-group event scan,
// so cycles stay O(active) while per-node cost drops to raw loads/stores.
//
// --- Node-state arena --------------------------------------------------------
//
// Per-node sequential state (EB rings, fork done bits, source cursors, VLU
// operands, pending anti-token counters) lives in one contiguous VM-owned
// u64 arena, indexed by each op's precomputed stateOff, in the record layout
// its ArenaView defines: a settle step streams the op record, its port
// records and its state record instead of chasing into a heap-allocated node
// object (~5–8 cache lines per active op before, ~2–3 sequential streams
// after). The node objects remain the authoritative
// store whenever the VM is not running: every compiled phase adopts
// (node → arena) lazily on entry, and flushState() publishes (arena → node)
// before anything interprets node state — packState(), the sweep/interpreted
// kernels, the cross-check audits. Snapshots therefore stay byte-identical
// to the interpreter: packState always reads freshly flushed node objects.
// Statistics (firings, transfer logs) are excluded from the arena and written
// directly to the nodes — packState excludes them too, so they need no flush
// discipline.
//
// A specialized op runs its node kind's own comb/edge template — the one the
// interpreter runs through ObjectView<K> in evalComb/clockEdge — through
// ArenaView<K> (compile/arena.h): raw board addresses whose writes mirror
// SignalBoard::setBitAt/setDataAt exactly, change tracking included, plus the
// op's arena record. One source, two views, so settled fixpoints — and
// therefore packState() — are bit-identical to the interpreted kernels by
// construction. Cross-check mode still runs the sweep kernel as the runtime
// oracle for the scheduling machinery, and replays every specialized edge
// against the interpreted clockEdge (edgeNodeForAudit) to check the arena
// view itself.
//
// The program is recompiled whenever the netlist's topologyVersion OR the
// board's layoutGeneration moves (a shard-count change permutes slots without
// a topology bump). Recompiling first flushes the old arena into every node
// that is still alive, so state survives netlist surgery and re-layouts. Raw
// board pointers are re-fetched at every phase (bind()).
//
// Sharded composition (shards > 1): the compiler keeps every boundary-
// adjacent node generic (staging-aware Sig accessors), interior specialized
// ops write owner-exclusive planes, and each shard's arena slice starts
// cache-line-aligned — so the staged boundary exchange of the sharded
// kernels carries over unchanged and packState stays bit-identical to the
// serial compiled backend for every shard count.
#pragma once

#include <cstdint>
#include <vector>

#include "compile/arena.h"

namespace esl {
class SimContext;
}

namespace esl::compile {

class Vm {
 public:
  explicit Vm(SimContext& ctx) : ctx_(ctx) {}

  /// Compiled settle: event-driven worklist over specialized ops (sharded
  /// level-synchronous rounds when the context is sharded).
  void settle();
  /// Compiled clock edge: dirty-tracked hot-group scan over specialized ops.
  void edge();

  /// Compiles/binds without running a phase (audit paths).
  void prepare();
  /// True when `id` lowered to a specialized op (generic fallbacks run the
  /// same virtual code as the interpreted kernel, so audits skip them).
  bool hasSpecializedOpFor(NodeId id) const;
  /// Runs one node's compiled clock edge without statistics side effects
  /// (the edge audit replays state transitions; stats must count once).
  /// Self-contained arena surgery: adopts the node object (which the audit
  /// just rewound), replays the op, and flushes the result back so the
  /// caller's packState() comparison sees the compiled transition.
  void edgeNodeForAudit(NodeId id);

  /// Publishes the arena into the node objects (no-op unless a compiled
  /// phase ran since the last flush) and hands authority back to the nodes.
  /// SimContext calls this before ANY interpreted read of node state:
  /// packState, the sweep/interpreted kernels, unpack/reset invalidation.
  void flushState();
  /// Drops the arena without flushing (node objects were just overwritten:
  /// unpackState/reset). The next compiled phase re-adopts.
  void invalidateState() { arenaValid_ = false; }

 private:
  void ensureProgram();
  void bind();
  void evalNode(NodeId id);
  void edgeNode(NodeId id, bool applyStats);
  /// Node → arena for every stateful op (phase entry with a stale arena).
  void adoptArena();
  /// Node → arena / arena → node for one stateful op (the kind's copyState).
  void adoptOp(const Op& op);
  void flushOp(const Op& op);
  template <typename K>
  ArenaView<K> view(const Op& op, bool stats);

  SimContext& ctx_;
  Program prog_;
  bool hasProgram_ = false;

  /// Raw board arrays, re-fetched by bind() before every phase.
  RawBoard raw_;

  /// Node-state arena (u64 records at each op's stateOff). Authoritative only
  /// while arenaValid_; otherwise the node objects are.
  std::vector<std::uint64_t> state_;
  bool arenaValid_ = false;
};

}  // namespace esl::compile
