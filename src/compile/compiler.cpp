#include "compile/compiler.h"

#include <typeinfo>

#include "compile/arena.h"
#include "elastic/netlist.h"

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

}  // namespace

Program compileProgram(const Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& recordOff) {
  Program prog;
  prog.ops.resize(nl.nodeCapacity());
  for (const NodeId id : nl.nodeIds()) {
    const Node& node = nl.node(id);
    Op& op = prog.ops[id];
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
    if (op.code == OpCode::kFunc) {
      const FnOp& fn = static_cast<const FuncNode&>(node).datapath().op;
      op.fnKind = fn.kind;
      op.a = fn.a;
      op.b = fn.b;
    }
    if (op.code == OpCode::kEb) {
      const auto& eb = static_cast<const ElasticBuffer&>(node);
      op.a = eb.capacity();
      op.b = eb.antiCapacity();
    }
  }
  return prog;
}

}  // namespace esl::compile
