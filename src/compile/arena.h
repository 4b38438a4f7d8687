// Arena view: the compiled backend's instance of the node kinds' handshakes.
//
// Every specializable kind writes its comb/edge logic once, as templates over
// a view (elastic/node_view.h). ArenaView<K> is the view the compiled backend
// runs them through, from the op table SimContext builds with the board
// (compile/compiler.h). Its ports are RawSig proxies over pre-resolved
// SlotAddr records: plain loads and stores into the board's planes and
// payload words, whose writes mirror SignalBoard::setBitAt/setDataAt exactly,
// change tracking included. Its state — sequential state, memos, statistics —
// is the node's record in the SimContext's state arena, the same record the
// object view reads, with stored payloads as words (Word): the compiler
// specializes only nodes whose payloads are at most 64 bits wide. The record
// layout and its accessors are the kind's own (K::View, shared with the
// object view); this file adds only the ports, the word payload form, and the
// constants an op carries for its kind. One source, two views, so settled
// fixpoints — and therefore packState() — are bit-identical to the
// interpreted kernels by construction; cross-check mode still audits every
// specialized edge against the interpreted clockEdge, both run from the same
// record words, to check the view itself.
//
// Sharded composition (shards > 1): the compiler keeps every boundary-
// adjacent node generic (staging-aware Sig accessors), interior specialized
// ops write owner-exclusive planes, and each shard's record slice starts
// cache-line-aligned — so the staged boundary exchange of the sharded
// kernels carries over unchanged and packState stays bit-identical to the
// serial compiled backend for every shard count.
#pragma once

#include "compile/compiler.h"
#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/shared.h"
#include "elastic/vlu.h"

namespace esl::compile {

/// A payload of at most 64 bits, as the arena keeps it: its bits, masked to
/// its width. The operators applyFn (elastic/fn_op.h) uses mirror BitVec's.
class Word {
 public:
  /// `bits` must already be masked to `width`.
  Word(unsigned width, std::uint64_t bits) : bits_(bits), width_(width) {}

  unsigned width() const { return width_; }
  std::uint64_t toUint64() const { return bits_; }
  void setBit(unsigned b, bool v) {
    const std::uint64_t m = std::uint64_t{1} << b;
    bits_ = v ? bits_ | m : bits_ & ~m;
  }

  /// Sum modulo 2^width.
  Word operator+(Word o) const {
    const std::uint64_t sum = bits_ + o.bits_;
    return {width_, width_ >= 64 ? sum : sum & ((std::uint64_t{1} << width_) - 1)};
  }
  Word operator^(Word o) const { return {width_, bits_ ^ o.bits_}; }
  Word operator>>(unsigned amount) const {  // amount < 64
    return {width_, bits_ >> amount};
  }
  /// `high` above this word's bits. A 64-bit low half leaves no room for a
  /// high half that fits the word (and a shift by 64 would be undefined).
  Word concat(Word high) const {
    return {width_ + high.width_, width_ >= 64 ? bits_ : bits_ | high.bits_ << width_};
  }

  /// Datapath functions and node objects take BitVec payloads.
  operator BitVec() const { return BitVec(width_, bits_); }  // NOLINT

 private:
  std::uint64_t bits_;
  unsigned width_;
};

/// A payload as a record word. A BitVec whose width disagrees with the
/// channel it belongs to cannot be stored (and is unreachable through pushes
/// from the bound channel or a width-checked unpackState).
inline std::uint64_t toWord(Word w, unsigned) { return w.toUint64(); }
inline std::uint64_t toWord(const BitVec& v, unsigned width) {
  ESL_CHECK(v.width() == width,
            "state arena: stored payload width disagrees with the channel");
  return width == 0 ? 0 : v.word0();
}

/// Raw-address port: the arena view's counterpart of Sig. Bits, words and
/// routing copies go straight to the arrays; BitVec payloads go through the
/// board. Specialized ops never touch a staged boundary slot, nor a payload
/// wider than a word.
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
    return off == SignalBoard::kNoSlot ? 0 : b_->words[off];
  }
  BitVec data() const { return b_->board->dataAt(a_->slot); }
  /// A specialized op's payloads fit a word.
  bool dataEqualsWords(const std::uint64_t* w) const { return dataLow64() == w[0]; }

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
    const std::uint64_t diff = cur == w.toUint64() ? 0 : a_->bitMask();  // cmov
    cur = w.toUint64();
    b_->changed[a_->chWord()] |= diff;
  }
  /// Same-width payload routing (fork branches, mux selection).
  void setDataFrom(const RawSig& src) {
    // Widths are equal by construction, audited when the channels were
    // bound; a specialized op's payloads fit a word.
    const std::uint32_t off = a_->dataOff;
    if (off == SignalBoard::kNoSlot) return;
    std::uint64_t& out = b_->words[off];
    if (out == b_->words[src.a_->dataOff]) return;
    out = b_->words[src.a_->dataOff];
    b_->changed[a_->chWord()] |= a_->bitMask();
  }

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

/// Ports, node access and per-cycle inputs of the arena view, built per
/// evaluation on the stack (it vanishes once inlined), plus the word form of
/// the record's payloads.
template <typename K>
class ArenaPorts : public NodeRecord<K> {
 public:
  ArenaPorts(SimContext& ctx, const RawBoard& board, const Op& op,
             const SlotAddr* ports, std::uint64_t* record)
      : NodeRecord<K>(record), ctx_(&ctx), board_(&board), op_(&op), ports_(ports) {}

  RawSig in(unsigned i) const { return {*board_, ports_[i]}; }
  RawSig out(unsigned i) const { return {*board_, ports_[op_->nIn + i]}; }
  unsigned numInputs() const { return op_->nIn; }
  unsigned numOutputs() const { return op_->nOut; }
  unsigned inWidth(unsigned i) const { return ports_[i].width; }
  unsigned outWidth(unsigned i) const { return ports_[op_->nIn + i].width; }
  Word payload(const RawSig& port) const { return {port.width(), port.dataLow64()}; }

  const K& node() const { return static_cast<const K&>(*op_->node); }
  bool choice(unsigned i) const { return ctx_->choice(*op_->node, i); }
  std::uint64_t cycle() const { return ctx_->cycle(); }

  Word payloadAt(std::uint32_t off, unsigned width) const {
    return {width, this->record_[off]};
  }
  template <typename P>
  void setPayloadAt(std::uint32_t off, unsigned width, const P& p) const {
    this->record_[off] = toWord(p, width);
  }
  static Word zeroPayload(unsigned width) { return {width, 0}; }

 protected:
  SimContext* ctx_;
  const RawBoard* board_;
  const Op* op_;
  const SlotAddr* ports_;
};

/// The arena view: ports plus the kind's record layout.
template <typename K>
class ArenaView : public RecordLayout<K, ArenaPorts<K>>::type {
  using Base = typename RecordLayout<K, ArenaPorts<K>>::type;

 public:
  using Base::Base;
};

/// The buffer's capacities ride in the op: the hottest kind never touches its
/// node object.
template <>
class ArenaView<ElasticBuffer> : public ElasticBuffer::View<ArenaPorts<ElasticBuffer>> {
 public:
  using View::View;
  unsigned capacity() const { return static_cast<unsigned>(op_->a); }
  unsigned antiCapacity() const { return static_cast<unsigned>(op_->b); }
};

/// So does a function block's catalog op.
template <>
class ArenaView<FuncNode> : public FuncNode::View<ArenaPorts<FuncNode>> {
 public:
  using View::View;
  FnOp fnOp() const { return {op_->fnKind, op_->a, op_->b}; }
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
