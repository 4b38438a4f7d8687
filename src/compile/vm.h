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
// --- Node state ---------------------------------------------------------------
//
// Everything a node changes during a run (EB rings, fork done bits, source
// cursors, VLU operands, pending anti-token counters, the shared module's
// scheduler state, memos, statistics) lives in the SimContext's record arena,
// one contiguous u64 vector laid out with the board; each op carries its
// node's record offset. Both backends read and write those records in place:
// a compiled phase, an interpreted phase, packState() and a kGeneric fallback
// all see the same words. The node objects an op points at are only read, so
// contexts over one netlist each run their own program side by side.
//
// A specialized op runs its node kind's own comb/edge template — the one the
// interpreter runs through ObjectView<K> in evalComb/clockEdge — through
// ArenaView<K> (compile/arena.h): raw board addresses whose writes mirror
// SignalBoard::setBitAt/setDataAt exactly, change tracking included, plus the
// op's record. One source, two views, so settled fixpoints — and therefore
// packState() — are bit-identical to the interpreted kernels by construction.
// Cross-check mode still runs the sweep kernel as the runtime oracle for the
// scheduling machinery, and replays every specialized edge against the
// interpreted clockEdge (edgeNodeForAudit) to check the arena view itself.
//
// The program is recompiled whenever the netlist's topologyVersion OR the
// board's layoutGeneration moves (a shard-count change permutes slots without
// a topology bump); the context re-lays its records in the same step, so the
// key covers record offsets too. Raw board and record pointers are re-fetched
// at every phase (bind()).
//
// Sharded composition (shards > 1): the compiler keeps every boundary-
// adjacent node generic (staging-aware Sig accessors), interior specialized
// ops write owner-exclusive planes, and each shard's record slice starts
// cache-line-aligned — so the staged boundary exchange of the sharded
// kernels carries over unchanged and packState stays bit-identical to the
// serial compiled backend for every shard count.
#pragma once

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
  void edgeNodeForAudit(NodeId id) { edgeNode(id, false); }

 private:
  void ensureProgram();
  void bind();
  void evalNode(NodeId id);
  void edgeNode(NodeId id, bool applyStats);
  template <typename K>
  ArenaView<K> view(const Op& op, bool stats);

  SimContext& ctx_;
  Program prog_;
  bool hasProgram_ = false;

  /// Raw board arrays and the record arena, re-fetched by bind() before
  /// every phase.
  RawBoard raw_;
};

}  // namespace esl::compile
