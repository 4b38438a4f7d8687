#include "compile/compiler.h"

#include <typeinfo>

#include "compile/arena.h"
#include "elastic/netlist.h"
#include "elastic/params.h"

namespace esl::compile {

namespace {

SlotAddr addrFor(const SignalBoard& board, ChannelId ch) {
  SlotAddr a;
  if (ch == kNoChannel) return a;
  const std::uint32_t slot = board.slotOf(ch);
  if (slot == SignalBoard::kNoSlot) return a;
  a.slot = slot;
  a.dataOff = board.dataOffAt(slot);
  a.width = board.widthAtSlot(slot);
  return a;
}

/// Exact-type kind resolution: a user *subclass* of a catalog node may
/// override evalComb/clockEdge, so only a typeid match may specialize.
OpCode classify(const Node& node) {
  for (unsigned c = 0; c < static_cast<unsigned>(OpCode::kGeneric); ++c) {
    const auto code = static_cast<OpCode>(c);
    bool match = false;
    visitKind(code, [&]<typename K>() { match = typeid(node) == typeid(K); });
    if (match) return code;
  }
  return OpCode::kGeneric;
}

/// Attempts to lower a FuncNode's datapath to word arithmetic. Registry-built
/// nodes carry `fn=<catalog name>` in their stored build attributes; the
/// catalog factory already validated the width signature at construction, but
/// every invariant the word kernels rely on is re-checked here — any mismatch
/// keeps the memoized opaque path. Specialized ops are at most a word wide.
/// The attributes are scanned, not read through Params' tracked getters:
/// contexts over one netlist compile it concurrently.
FuncKind specializeFunc(const Node& node, const Op& op,
                        const std::vector<SlotAddr>& ports, std::uint64_t* fnA,
                        std::uint64_t* fnB) {
  const auto attr = [&node](const char* key) -> const std::string* {
    for (const auto& [k, v] : node.buildParams().entries())
      if (k == key) return &v;
    return nullptr;
  };
  const std::string* fnName = attr("fn");
  if (fnName == nullptr) return FuncKind::kOpaque;
  const std::string& fn = *fnName;
  const auto num = [&attr](const char* key, std::uint64_t* out) {
    const std::string* v = attr(key);
    if (v != nullptr) *out = parseU64(*v, std::string("attribute '") + key + "'");
    return v != nullptr;
  };
  const unsigned n = op.nIn;
  const SlotAddr* P = ports.data() + op.portBase;
  const unsigned outW = P[n].width;
  const auto unarySameWidth = [&] { return n == 1 && P[0].width == outW; };
  if (fn == "id" && unarySameWidth()) return FuncKind::kId;
  if (fn == "gray" && unarySameWidth()) return FuncKind::kGray;
  if (fn == "addk" && unarySameWidth() && num("fn.k", fnA)) {
    // Same truncation the factory applies: k is taken modulo the width.
    if (outW < 64) *fnA &= (std::uint64_t{1} << outW) - 1;
    return FuncKind::kAddK;
  }
  if (fn == "add" && n == 2 && P[0].width == outW && P[1].width == outW)
    return FuncKind::kAdd;
  if (fn == "xor" && n >= 1) {
    for (unsigned i = 0; i < n; ++i)
      if (P[i].width != outW) return FuncKind::kOpaque;
    return FuncKind::kXor;
  }
  if (fn == "joinmux" && n >= 3) {
    for (unsigned i = 1; i < n; ++i)
      if (P[i].width != outW) return FuncKind::kOpaque;
    return FuncKind::kJoinMux;
  }
  if (fn == "concat" && n == 2 && P[0].width + P[1].width == outW &&
      P[0].width < 64)
    return FuncKind::kConcat;
  if (fn == "permille" && n == 1 && outW == 1 && num("fn.permille", fnA)) {
    *fnB = 0;
    num("fn.salt", fnB);
    return FuncKind::kPermille;
  }
  return FuncKind::kOpaque;
}

}  // namespace

Program compileProgram(const Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& recordOff) {
  Program prog;
  prog.topologyVersion = nl.topologyVersion();
  prog.boardLayout = board.layoutGeneration();
  prog.opOf.assign(nl.nodeCapacity(), Program::kNoOp);
  const std::vector<NodeId> ids = nl.nodeIds();
  prog.ops.reserve(ids.size());
  for (const NodeId id : ids) {
    const Node& node = nl.node(id);
    Op op;
    op.node = &node;
    op.stateOff = recordOff[id];
    op.nIn = static_cast<std::uint16_t>(node.numInputs());
    op.nOut = static_cast<std::uint16_t>(node.numOutputs());
    op.portBase = static_cast<std::uint32_t>(prog.ports.size());
    // An op may only touch raw addresses when every port resolved and holds
    // at most a word; a node caught mid-surgery (dangling port) keeps the
    // virtual path, which throws the usual accessor error if the dangling
    // channel is actually touched, and the object view handles any width.
    // Under sharding, a node adjacent to a boundary slot also stays generic:
    // boundary writes must go through the staging-aware Sig accessors.
    bool specializable = true;
    const auto addPort = [&](ChannelId ch) {
      const SlotAddr a = addrFor(board, ch);
      specializable = specializable && a.bound() && a.width <= 64 &&
                      !board.inBoundary(a.slot);
      prog.ports.push_back(a);
    };
    for (unsigned i = 0; i < node.numInputs(); ++i) addPort(node.input(i));
    for (unsigned o = 0; o < node.numOutputs(); ++o) addPort(node.output(o));
    op.code = specializable ? classify(node) : OpCode::kGeneric;
    if (op.code == OpCode::kFunc)
      op.fnKind = specializeFunc(node, op, prog.ports, &op.fnA, &op.fnB);
    if (op.code == OpCode::kEb) {
      const auto& eb = static_cast<const ElasticBuffer&>(node);
      op.fnA = eb.capacity();
      op.fnB = eb.antiCapacity();
    }
    prog.opOf[id] = static_cast<std::uint32_t>(prog.ops.size());
    prog.ops.push_back(op);
  }
  return prog;
}

}  // namespace esl::compile
