// Bytecode compiler for the compiled simulation backend.
//
// compileProgram() lowers a netlist into the op table the compiled backend
// dispatches: one op per node, indexed by NodeId. Each op carries the node's
// kind (resolved to a specialized opcode by exact type), the offset of its
// record in the context's node-state arena (the layout is the kind's,
// elastic/node_view.h), the constants its kind reads on every evaluation (a
// buffer's capacities, a function block's catalog op), and a table of port
// addresses resolved against the board's current layout. The context then
// runs settle rounds and clock edges with raw word loads/stores: no virtual
// dispatch, no Sig accessor proxies, no slot lookups — and no
// pointer-chasing into node objects — on the hot path.
//
// The op and port records are deliberately flat and small (SlotAddr is 12
// bytes; derived coordinates are shifts off the slot index) so one settle
// step streams the op, its ports and its state record from a couple of cache
// lines instead of touching 5–8 scattered heap objects per active node.
//
// Nodes whose exact type is not in the catalog (user subclasses), nodes with
// unbound ports, nodes with a payload wider than 64 bits (the board keeps
// such a payload as several words, the arena view's Word holds one), and —
// under sharding — nodes touching a boundary slot compile to
// OpCode::kGeneric, which falls back to the virtual evalComb/clockEdge
// through the staging-aware Sig accessors, over the same record: the program
// is always total over the netlist.
//
// A program holds raw board offsets and record offsets, so it is valid for
// exactly one layout. SimContext builds it in ensureTopologyCache, in the
// same step that lays out the board and the records, and nowhere else lays
// them out; there is no cache key to keep in step.
#pragma once

#include <cstdint>
#include <vector>

#include "elastic/fn_op.h"
#include "elastic/signal_board.h"

namespace esl {
class Netlist;
class Node;
}  // namespace esl

namespace esl::compile {

/// Specialized per-kind opcodes (exact-type match; subclasses stay generic).
enum class OpCode : std::uint8_t {
  kEb,            ///< ElasticBuffer
  kEb0,           ///< ElasticBuffer0
  kBrokenEb,      ///< BrokenBuffer
  kFork,          ///< ForkNode
  kFunc,          ///< FuncNode
  kEeMux,         ///< EarlyEvalMux
  kSource,        ///< TokenSource
  kSink,          ///< TokenSink
  kNondetSource,  ///< NondetSource
  kNondetSink,    ///< NondetSink
  kShared,        ///< SharedModule
  kVlu,           ///< StallingVLU
  kGeneric,       ///< fallback: virtual evalComb/clockEdge (stays last)
};

/// One channel endpoint, 12 bytes. The plane/word coordinates an op needs
/// are pure shifts of the slot index, computed inline — keeping the record
/// small matters more than pre-computing two shifts: a node's whole port
/// table now fits one cache line.
struct SlotAddr {
  std::uint32_t slot = SignalBoard::kNoSlot;
  std::uint32_t dataOff = SignalBoard::kNoSlot;  ///< first payload word
  std::uint32_t width = 0;                       ///< payload width

  bool bound() const { return slot != SignalBoard::kNoSlot; }
  std::uint32_t ctrlBase() const { return (slot >> 6) * 4; }
  std::uint32_t chWord() const { return slot >> 6; }
  std::uint64_t bitMask() const { return std::uint64_t{1} << (slot & 63); }
};

/// One node lowered to an op. Ports live in Program::ports at [portBase,
/// portBase + nIn + nOut): inputs first, then outputs. Sequential state lives
/// in the context's record arena at stateOff. fnKind/a/b are constants the
/// kind's ArenaView reads on every evaluation (one op load instead of a
/// node-object load).
struct Op {
  OpCode code = OpCode::kGeneric;
  FnOp::Kind fnKind = FnOp::Kind::kOpaque;  ///< kFunc: the catalog op's kind
  std::uint16_t nIn = 0;
  std::uint16_t nOut = 0;
  std::uint32_t portBase = 0;
  std::uint32_t stateOff = 0;  ///< record offset in the context's arena
  std::uint64_t a = 0;  ///< kFunc: FnOp::a; kEb: capacity
  std::uint64_t b = 0;  ///< kFunc: FnOp::b; kEb: anti capacity
  const Node* node = nullptr;  ///< exact type given by `code` (or any, kGeneric)
};

/// The op table: ops indexed by NodeId (a dead id's op is never run).
struct Program {
  std::vector<Op> ops;
  std::vector<SlotAddr> ports;
};

/// The board's raw arrays and the context's record arena, fetched before
/// every compiled phase (the records move on an unpackState).
struct RawBoard {
  SignalBoard* board = nullptr;  ///< BitVec-level payload access
  std::uint64_t* ctrl = nullptr;
  std::uint64_t* words = nullptr;
  std::uint64_t* changed = nullptr;
  std::uint64_t* records = nullptr;
};

/// Lowers the netlist against the board's current layout and the context's
/// record offsets (indexed by NodeId). Nodes touching a boundary slot (the
/// board has some only when sharded) stay generic.
Program compileProgram(const Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& recordOff);

}  // namespace esl::compile
