// Arena view: the compiled backend's instance of the node kinds' handshakes.
//
// Every specializable kind writes its comb/edge logic once, as templates over
// a view (elastic/node_view.h). ArenaView<K> is the view the VM runs them
// through. Its ports are RawSig proxies over pre-resolved SlotAddr records:
// plain loads and stores into the board's planes and payload arenas, whose
// writes mirror SignalBoard::setBitAt/setDataAt exactly, change tracking
// included. Its sequential state is the op's record in the VM's node-state
// arena, where stored payloads are words (Word); the compiler keeps any op
// whose state does not fit a word generic.
//
// Each stateful kind's record layout lives once, in its ArenaView below:
// plan() sizes the record (stashing the kind's constants in the op), the
// accessors read and write it, and the VM's adopt/flush move state between
// it and the node object with the kind's copyState(). A kind's scalar State
// struct sits bytewise at the head of its record.
#pragma once

#include <cstring>
#include <optional>
#include <type_traits>

#include "compile/compiler.h"
#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/shared.h"
#include "elastic/vlu.h"

namespace esl::compile {

/// The board's raw arrays, re-fetched by the VM before every phase.
struct RawBoard {
  SignalBoard* board = nullptr;  ///< BitVec-level payload access
  std::uint64_t* ctrl = nullptr;
  std::uint64_t* words = nullptr;
  BitVec* spill = nullptr;
  std::uint64_t* changed = nullptr;
};

/// A stored payload of at most 64 bits, as the arena keeps it.
struct Word {
  std::uint64_t bits = 0;
  unsigned width = 0;

  void setBit(unsigned b, bool v) {
    const std::uint64_t m = std::uint64_t{1} << b;
    bits = v ? bits | m : bits & ~m;
  }
  /// Datapath functions and node objects take BitVec payloads.
  operator BitVec() const { return BitVec(width, bits); }  // NOLINT
};

/// A payload as an arena word. A BitVec whose width disagrees with the
/// channel it belongs to cannot be stored (and is unreachable through pushes
/// from the bound channel or a width-checked unpackState).
inline std::uint64_t toWord(Word w, unsigned) { return w.bits; }
inline std::uint64_t toWord(const BitVec& v, unsigned width) {
  ESL_CHECK(v.width() == width,
            "state arena: stored payload width disagrees with the channel");
  return width == 0 ? 0 : v.word0();
}

/// Raw-address port: the arena view's counterpart of Sig. Bits, words and
/// routing copies go straight to the arrays; BitVec payloads go through the
/// board (specialized ops never touch a staged boundary slot).
class RawSig {
 public:
  RawSig(const RawBoard& board, const SlotAddr& addr) : b_(&board), a_(&addr) {}

  bool vf() const { return bit(SignalBoard::kVf); }
  bool sf() const { return bit(SignalBoard::kSf); }
  bool vb() const { return bit(SignalBoard::kVb); }
  bool sb() const { return bit(SignalBoard::kSb); }
  ChannelEvents events() const {
    const std::uint64_t* g = b_->ctrl + a_->ctrlBase();
    const std::uint64_t m = a_->bitMask();
    return ChannelEvents::of((g[SignalBoard::kVf] & m) != 0,
                             (g[SignalBoard::kSf] & m) != 0,
                             (g[SignalBoard::kVb] & m) != 0,
                             (g[SignalBoard::kSb] & m) != 0);
  }
  unsigned width() const { return a_->width; }
  std::uint64_t dataLow64() const {
    const std::uint32_t off = a_->dataOff;
    if (off == SignalBoard::kNoSlot) return 0;
    if (off & SignalBoard::kWideFlag)
      return b_->spill[off & ~SignalBoard::kWideFlag].toUint64();
    return b_->words[off];
  }
  BitVec data() const { return b_->board->dataAt(a_->slot); }
  bool dataEquals(const BitVec& v) const {
    return b_->board->dataEqualsValueAt(a_->slot, v);
  }

  void setVf(bool v) { setBit(SignalBoard::kVf, v); }
  void setSf(bool v) { setBit(SignalBoard::kSf, v); }
  void setVb(bool v) { setBit(SignalBoard::kVb, v); }
  void setSb(bool v) { setBit(SignalBoard::kSb, v); }
  void setData(const BitVec& v) { b_->board->setDataAt(a_->slot, v); }
  /// setData() narrow fast path: `w` is already masked to the slot width, so
  /// the width audit holds by construction and no BitVec is materialized.
  void setData(Word w) {
    if (a_->dataOff == SignalBoard::kNoSlot) return;
    std::uint64_t& cur = b_->words[a_->dataOff];
    const std::uint64_t diff = cur == w.bits ? 0 : a_->bitMask();  // cmov
    cur = w.bits;
    b_->changed[a_->chWord()] |= diff;
  }
  /// Same-width payload routing (fork branches, mux selection).
  void setDataFrom(const RawSig& src);

 private:
  bool bit(unsigned plane) const {
    return (b_->ctrl[a_->ctrlBase() + plane] & a_->bitMask()) != 0;
  }
  void setBit(unsigned plane, bool v) {
    // Branch-free "flip and mark changed iff different": delta is the bit
    // mask when the stored bit differs from v, else 0. Signal writes follow
    // token movement, so a compare-then-write branch mispredicts chronically.
    std::uint64_t& w = b_->ctrl[a_->ctrlBase() + plane];
    const std::uint64_t delta =
        (w ^ (0 - static_cast<std::uint64_t>(v))) & a_->bitMask();
    w ^= delta;
    b_->changed[a_->chWord()] |= delta;
  }

  const RawBoard* b_;
  const SlotAddr* a_;
};

/// Ports, node access, per-cycle inputs and the State of the arena view,
/// built per evaluation on the stack (it vanishes once inlined).
template <typename K>
class ArenaPorts {
 public:
  ArenaPorts(SimContext& ctx, const RawBoard& board, const Op& op,
             const SlotAddr* ports, std::uint64_t* record, bool stats)
      : ctx_(&ctx),
        board_(&board),
        op_(&op),
        ports_(ports),
        record_(record),
        stats_(stats) {}

  RawSig in(unsigned i) const { return {*board_, ports_[i]}; }
  RawSig out(unsigned i) const { return {*board_, ports_[op_->nIn + i]}; }
  unsigned numInputs() const { return op_->nIn; }
  unsigned numOutputs() const { return op_->nOut; }
  Word payload(const RawSig& port) const { return {port.dataLow64(), port.width()}; }

  K& node() const { return static_cast<K&>(*op_->node); }
  bool stats() const { return stats_; }
  bool choice(unsigned i) const { return ctx_->choice(*op_->node, i); }
  std::uint64_t cycle() const { return ctx_->cycle(); }

  auto state() const {
    typename K::State s;
    static_assert(std::is_trivially_copyable_v<decltype(s)>);
    std::memcpy(static_cast<void*>(&s), record_, sizeof s);
    return s;
  }
  template <typename State>
  void setState(const State& s) const {
    std::memcpy(record_, &s, sizeof s);
  }

  /// Record size in words, or nullopt when the state does not fit the word
  /// arena (the compiler then keeps the node generic). Default: the State
  /// struct alone, or no record for kinds without one.
  static std::optional<std::uint32_t> plan(Op&, const SlotAddr*) {
    if constexpr (requires { typename K::State; })
      return stateWords();
    else
      return 0u;
  }

 protected:
  /// Words the kind's State occupies at the head of the record.
  static constexpr std::uint32_t stateWords() {
    return (sizeof(typename K::State) + 7) / 8;
  }

  SimContext* ctx_;
  const RawBoard* board_;
  const Op* op_;
  const SlotAddr* ports_;
  std::uint64_t* record_;
  bool stats_;
};

/// Arena view of a kind whose record is its State alone (sources, sinks) or
/// that has none (the shared module: scheduler and memo stay in node()).
template <typename K>
class ArenaView : public ArenaPorts<K> {
 public:
  using ArenaPorts<K>::ArenaPorts;
};

/// Record: State, then one payload word per ring slot. The capacities ride
/// in the op: the hottest kind never touches its node object.
template <>
class ArenaView<ElasticBuffer> : public ArenaPorts<ElasticBuffer> {
 public:
  using ArenaPorts::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op& op, const SlotAddr* P) {
    if (P[1].width > 64) return std::nullopt;
    const auto& eb = static_cast<const ElasticBuffer&>(*op.node);
    op.fnA = eb.capacity();
    op.fnB = eb.antiCapacity();
    return stateWords() + eb.capacity();
  }
  unsigned capacity() const { return static_cast<unsigned>(op_->fnA); }
  unsigned antiCapacity() const { return static_cast<unsigned>(op_->fnB); }
  Word token(unsigned i) const {
    return {record_[stateWords() + i], ports_[1].width};
  }
  template <typename P>
  void setToken(unsigned i, const P& t) const {
    record_[stateWords() + i] = toWord(t, ports_[1].width);
  }
};

/// Record: State, then the slot's payload word (ElasticBuffer0, BrokenBuffer).
template <typename K>
class SlotArenaView : public ArenaPorts<K> {
 public:
  using ArenaPorts<K>::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op&, const SlotAddr* P) {
    if (P[1].width > 64) return std::nullopt;
    return ArenaPorts<K>::stateWords() + 1;
  }
  Word slot() const {
    return {this->record_[this->stateWords()], this->ports_[1].width};
  }
  template <typename P>
  void setSlot(const P& t) const {
    this->record_[this->stateWords()] = toWord(t, this->ports_[1].width);
  }
};
template <>
class ArenaView<ElasticBuffer0> : public SlotArenaView<ElasticBuffer0> {
 public:
  using SlotArenaView::SlotArenaView;
};
template <>
class ArenaView<BrokenBuffer> : public SlotArenaView<BrokenBuffer> {
 public:
  using SlotArenaView::SlotArenaView;
};

/// Record: the branches' done bits as one mask word.
template <>
class ArenaView<ForkNode> : public ArenaPorts<ForkNode> {
 public:
  using ArenaPorts::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op& op, const SlotAddr*) {
    if (op.nOut > 64) return std::nullopt;
    return 1u;
  }
  bool done(unsigned i) const { return (record_[0] >> i) & 1; }
  void setDone(unsigned i, bool d) const {
    const std::uint64_t m = std::uint64_t{1} << i;
    record_[0] = d ? record_[0] | m : record_[0] & ~m;
  }
};

/// Record: one pending anti-token counter word per data input (payload
/// routing goes through setDataFrom, which handles wide channels).
template <>
class ArenaView<EarlyEvalMux> : public ArenaPorts<EarlyEvalMux> {
 public:
  using ArenaPorts::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op& op, const SlotAddr*) {
    return op.nIn - 1u;
  }
  unsigned pending(unsigned i) const { return static_cast<unsigned>(record_[i]); }
  void setPending(unsigned i, unsigned n) const { record_[i] = n; }
};

/// Record: State, then the held payload word.
template <>
class ArenaView<NondetSource> : public ArenaPorts<NondetSource> {
 public:
  using ArenaPorts::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op&, const SlotAddr* P) {
    if (P[0].width > 64) return std::nullopt;
    return stateWords() + 1;
  }
  Word value() const { return {record_[stateWords()], ports_[0].width}; }
  template <typename P>
  void setValue(const P& x) const {
    record_[stateWords()] = toWord(x, ports_[0].width);
  }
  Word blank() const { return {0, ports_[0].width}; }
};

/// Record: State, then the pending operand word and the result word.
template <>
class ArenaView<StallingVLU> : public ArenaPorts<StallingVLU> {
 public:
  using ArenaPorts::ArenaPorts;
  static std::optional<std::uint32_t> plan(Op&, const SlotAddr* P) {
    if (P[0].width > 64 || P[1].width > 64) return std::nullopt;
    return stateWords() + 2;
  }
  Word pending() const { return {record_[stateWords()], ports_[0].width}; }
  template <typename P>
  void setPending(const P& x) const {
    record_[stateWords()] = toWord(x, ports_[0].width);
  }
  Word result() const { return {record_[stateWords() + 1], ports_[1].width}; }
  template <typename P>
  void setResult(const P& x) const {
    record_[stateWords() + 1] = toWord(x, ports_[1].width);
  }
};

/// No record: the memo stays on the node. Catalog functions whose operands
/// all fit a word (Op::fnKind != kOpaque) skip it for word arithmetic — fn_
/// is pure, so bypassing its memo is unobservable.
template <>
class ArenaView<FuncNode> : public ArenaPorts<FuncNode> {
 public:
  using ArenaPorts::ArenaPorts;
  void computeOutput(RawSig& out) const {
    if (op_->fnKind == FuncKind::kOpaque)
      node().computeMemoized(*this, out);
    else
      out.setData(Word{wordResult(), out.width()});
  }

 private:
  std::uint64_t wordResult() const;
};

/// Calls `f.template operator()<K>()` with the node class K behind a
/// specialized opcode (nothing for kGeneric). The one place the opcode
/// catalog names its node classes.
template <typename F>
void visitKind(OpCode code, F&& f) {
  switch (code) {
    case OpCode::kEb:
      return f.template operator()<ElasticBuffer>();
    case OpCode::kEb0:
      return f.template operator()<ElasticBuffer0>();
    case OpCode::kBrokenEb:
      return f.template operator()<BrokenBuffer>();
    case OpCode::kFork:
      return f.template operator()<ForkNode>();
    case OpCode::kFunc:
      return f.template operator()<FuncNode>();
    case OpCode::kEeMux:
      return f.template operator()<EarlyEvalMux>();
    case OpCode::kSource:
      return f.template operator()<TokenSource>();
    case OpCode::kSink:
      return f.template operator()<TokenSink>();
    case OpCode::kNondetSource:
      return f.template operator()<NondetSource>();
    case OpCode::kNondetSink:
      return f.template operator()<NondetSink>();
    case OpCode::kShared:
      return f.template operator()<SharedModule>();
    case OpCode::kVlu:
      return f.template operator()<StallingVLU>();
    case OpCode::kGeneric:
      return;
  }
}

}  // namespace esl::compile
