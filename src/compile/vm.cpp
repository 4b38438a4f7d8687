#include "compile/vm.h"

#include "base/rng.h"
#include "elastic/context.h"
#include "elastic/netlist.h"

namespace esl::compile {

// --- lifecycle ---------------------------------------------------------------

void Vm::ensureProgram() {
  // A program is valid for one (topologyVersion, board layoutGeneration)
  // pair: topology moves on splices/transformations, the layout moves on
  // every board re-layout — including shard-count changes, which permute
  // slots WITHOUT a topology bump. Reusing a program across either would
  // store through stale raw offsets.
  if (hasProgram_ && prog_.topologyVersion == ctx_.netlist_.topologyVersion() &&
      prog_.boardLayout == ctx_.board_.layoutGeneration())
    return;
  prog_ = compileProgram(ctx_.netlist_, ctx_.board_, ctx_.recordOff_);
  hasProgram_ = true;
}

void Vm::bind() {
  SignalBoard& b = ctx_.board_;
  raw_ = {&b, b.ctrlData(), b.payloadData(), b.changedData(),
          ctx_.records_.data()};
}

void Vm::settle() {
  ctx_.ensureTopologyCache();  // board layout current before addressing it
  ensureProgram();
  bind();
  if (ctx_.shards_ > 1)
    ctx_.settleShardedWith([this](NodeId id) { evalNode(id); });
  else
    ctx_.settleEventDrivenWith([this](NodeId id) { evalNode(id); });
}

void Vm::edge() {
  ctx_.ensureTopologyCache();
  ensureProgram();
  bind();
  if (ctx_.shards_ > 1)
    ctx_.edgeShardedWith([this](NodeId id) { edgeNode(id, true); });
  else
    ctx_.edgeSparseWith([this](NodeId id) { edgeNode(id, true); });
}

void Vm::prepare() {
  ctx_.ensureTopologyCache();
  ensureProgram();
  bind();
}

bool Vm::hasSpecializedOpFor(NodeId id) const {
  if (!hasProgram_ || id >= prog_.opOf.size()) return false;
  const std::uint32_t idx = prog_.opOf[id];
  return idx != Program::kNoOp && prog_.ops[idx].code != OpCode::kGeneric;
}

template <typename K>
ArenaView<K> Vm::view(const Op& op, bool stats) {
  return ArenaView<K>(ctx_, raw_, op, prog_.ports.data() + op.portBase,
                      raw_.records + op.stateOff, stats);
}

// --- raw payload routing (mirrors SignalBoard::copyDataFromSlotAt) ------------

void RawSig::setDataFrom(const RawSig& src) {
  // Widths are equal by construction, audited when the channels were bound;
  // a specialized op's payloads fit a word.
  const std::uint32_t off = a_->dataOff;
  if (off == SignalBoard::kNoSlot) return;
  std::uint64_t& out = b_->words[off];
  if (out == b_->words[src.a_->dataOff]) return;
  out = b_->words[src.a_->dataOff];
  b_->changed[a_->chWord()] |= a_->bitMask();
}

std::uint64_t ArenaView<FuncNode>::wordResult() const {
  const unsigned n = numInputs();
  const unsigned outW = ports_[n].width;
  const auto mask = [outW](std::uint64_t v) {
    return outW >= 64 ? v : v & ((std::uint64_t{1} << outW) - 1);
  };
  const auto arg = [&](unsigned i) { return in(i).dataLow64(); };
  switch (op_->fnKind) {
    case FuncKind::kId:
      return arg(0);
    case FuncKind::kAddK:
      return mask(arg(0) + op_->fnA);
    case FuncKind::kAdd:
      return mask(arg(0) + arg(1));
    case FuncKind::kXor: {
      std::uint64_t acc = arg(0);
      for (unsigned i = 1; i < n; ++i) acc ^= arg(i);
      return acc;
    }
    case FuncKind::kGray:
      return arg(0) ^ (arg(0) >> 1);
    case FuncKind::kJoinMux: {
      const std::uint64_t sel = arg(0);
      ESL_CHECK(sel < n - 1u, "join mux: select out of range");
      return arg(1 + static_cast<unsigned>(sel));
    }
    case FuncKind::kConcat:
      return arg(0) | arg(1) << ports_[0].width;
    case FuncKind::kPermille:
      return hashChancePermille(arg(0), static_cast<unsigned>(op_->fnA), op_->fnB)
                 ? 1
                 : 0;
    case FuncKind::kOpaque:
      break;
  }
  return 0;
}

// --- dispatch ------------------------------------------------------------------
// Each specialized op is its node kind's comb/edge template instantiated for
// the arena view; kGeneric falls back to the node's virtual evalComb/clockEdge.
// Flattening inlines every instantiation into the kind switch, so an op costs
// no call — the templates are too large for the default inlining budget.
// `applyStats == false` (the edge audit's replay) suppresses only the
// statistics that packState() excludes — serialized state always advances, so
// replaying an edge from a rewound snapshot lands on the same bytes.

[[gnu::flatten]] void Vm::evalNode(NodeId id) {
  const Op& op = prog_.ops[prog_.opOf[id]];
  if (op.code == OpCode::kGeneric) return op.node->evalComb(ctx_);
  visitKind(op.code, [&]<typename K>() { K::comb(view<K>(op, true)); });
}

[[gnu::flatten]] void Vm::edgeNode(NodeId id, bool applyStats) {
  const Op& op = prog_.ops[prog_.opOf[id]];
  if (op.code == OpCode::kGeneric) return op.node->clockEdge(ctx_);
  visitKind(op.code, [&]<typename K>() { K::edge(view<K>(op, applyStats)); });
}

}  // namespace esl::compile
