// Bytecode compiler for the compiled simulation backend.
//
// compileProgram() lowers a netlist once into a flat program of per-node ops:
// each op carries the node's kind (resolved to a specialized opcode by exact
// type), the offset of its record in the context's node-state arena (the
// layout is the kind's, elastic/node_view.h), and a table of port addresses
// resolved against the board's current layout. The VM (src/compile/vm.h)
// then executes settle rounds and clock edges with raw word loads/stores: no
// virtual dispatch, no Sig accessor proxies, no slot lookups — and no
// pointer-chasing into node objects — on the hot path.
//
// The op and port records are deliberately flat and small (SlotAddr is 12
// bytes; derived coordinates are shifts off the slot index) so one settle
// step streams the op, its ports and its state record from a couple of cache
// lines instead of touching 5–8 scattered heap objects per active node.
//
// Nodes whose exact type is not in the catalog (user subclasses), nodes with
// unbound ports, nodes with a payload wider than 64 bits (the arena view
// keeps payloads as words), and — under sharding — nodes touching a boundary
// slot compile to OpCode::kGeneric, which falls back to the virtual
// evalComb/clockEdge through the staging-aware Sig accessors, over the same
// record: the program is always total over the netlist.
//
// A Program is valid for one (topologyVersion, board layoutGeneration) pair;
// the VM recompiles whenever either moves. Topology changes (transformations,
// splices) bump the former; shard-count changes permute the board WITHOUT a
// topology bump, which only the latter catches. The context lays out its
// record arena together with the board, so the same key covers the records.
#pragma once

#include <cstdint>
#include <vector>

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

/// One channel endpoint, 12 bytes. The plane/word coordinates the VM needs
/// are pure shifts of the slot index, computed inline — keeping the record
/// small matters more than pre-computing two shifts: a node's whole port
/// table now fits one cache line.
struct SlotAddr {
  std::uint32_t slot = SignalBoard::kNoSlot;
  std::uint32_t dataOff = SignalBoard::kNoSlot;  ///< words_ | spill_+kWideFlag
  std::uint32_t width = 0;                       ///< payload width

  bool bound() const { return slot != SignalBoard::kNoSlot; }
  std::uint32_t ctrlBase() const { return (slot >> 6) * 4; }
  std::uint32_t chWord() const { return slot >> 6; }
  std::uint64_t bitMask() const { return std::uint64_t{1} << (slot & 63); }
};

/// Datapath specialization of a registry-built FuncNode: known catalog
/// functions whose operands all fit one word lower to direct word arithmetic
/// — no memo probe, no std::function call, no BitVec temporaries. kOpaque
/// keeps the node's memoized fn_ call (arbitrary C++ closures).
enum class FuncKind : std::uint8_t {
  kOpaque,
  kId,        ///< out = in0
  kAddK,      ///< out = (in0 + fnA) mod 2^w
  kAdd,       ///< out = (in0 + in1) mod 2^w
  kXor,       ///< out = in0 ^ in1 ^ ...
  kGray,      ///< out = in0 ^ (in0 >> 1)
  kJoinMux,   ///< out = in[1 + in0]
  kConcat,    ///< out = in0 | in1 << width(in0)
  kPermille,  ///< out = hashChancePermille(in0, fnA, fnB)
};

/// One node lowered to an op. Ports live in Program::ports at [portBase,
/// portBase + nIn + nOut): inputs first, then outputs. Sequential state lives
/// in the context's record arena at stateOff. fnA/fnB hold constants the
/// kind's ArenaView reads on every evaluation (one op load instead of a
/// node-object load).
struct Op {
  OpCode code = OpCode::kGeneric;
  FuncKind fnKind = FuncKind::kOpaque;  ///< kFunc only
  std::uint16_t nIn = 0;
  std::uint16_t nOut = 0;
  std::uint32_t portBase = 0;
  std::uint32_t stateOff = 0;  ///< record offset in the context's arena
  std::uint64_t fnA = 0;  ///< kFunc: addk constant / permille threshold;
                          ///< kEb: capacity
  std::uint64_t fnB = 0;  ///< kFunc: permille salt; kEb: anti capacity
  const Node* node = nullptr;  ///< exact type given by `code` (or any, kGeneric)
};

struct Program {
  static constexpr std::uint32_t kNoOp = ~std::uint32_t{0};

  std::vector<Op> ops;                ///< live nodes, insertion order
  std::vector<std::uint32_t> opOf;    ///< NodeId -> ops index (kNoOp = dead id)
  std::vector<SlotAddr> ports;
  std::uint64_t topologyVersion = 0;  ///< netlist version compiled against
  std::uint64_t boardLayout = 0;      ///< board layoutGeneration compiled against
};

/// Lowers the netlist against the board's current layout and the context's
/// record offsets (indexed by NodeId). Nodes touching a boundary slot (the
/// board has some only when sharded) stay generic.
Program compileProgram(const Netlist& nl, const SignalBoard& board,
                       const std::vector<std::uint32_t>& recordOff);

}  // namespace esl::compile
