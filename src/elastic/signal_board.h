// SignalBoard: struct-of-arrays storage for every channel's settled signals.
//
// The four SELF control bits (vf/sf/vb/sb) of all channels live in packed
// 64-channel bitplane groups (one cache line covers all four planes of a
// 64-channel slot group), and every payload lives in one contiguous word
// arena as ⌈width/64⌉ consecutive little-endian words, the form node records
// store payloads in (BitVec::toWords). Replacing the old
// AoS `std::vector<ChannelSignals>` makes the simulation hot paths
// cache-linear and word-parallel:
//   * the event kernel's change detection compares one plane group + one
//     arena word instead of striding over scattered BitVecs;
//   * the clock-edge event scan and the per-channel statistics become
//     bitplane sweeps (transfer/kill masks computed 64 channels at a time);
//   * the SELF protocol monitor checks each rule as one mask per 64-channel
//     group, against a previous-cycle board that keeps the control planes
//     and only the stopped tokens' payloads;
//   * snapshot/compare of the whole board (sweep kernel, cross-check) is a
//     straight copy of two word vectors.
//
// Channels are assigned *slots* by layout(). With a ShardPlan the slots are
// permuted so that each shard's interior channels (both endpoints owned by
// the shard) occupy exclusive, 64-aligned slot ranges — shard workers can
// then read and write their interior planes with plain loads/stores, no
// sharing. Channels whose endpoints live in different shards go to a
// boundary region at the top of the slot space with double-buffered storage:
// while staging is active (inside a parallel settle round) reads see the
// stable *front* values and writes go to the *back* copy (bit writes with
// atomic RMW — back-plane words are shared between producer- and
// consumer-side writers of different shards; payload words have a single
// writer). syncBoundary(), called single-threaded between rounds, publishes
// changed back values to the front and reports the changed channels so the
// kernel can seed their cross-shard readers.
//
// Node code never touches the planes directly: it reads and writes through
// the Sig/ConstSig accessor proxies returned by SimContext::sig(). The
// accessor contract for evalComb is strict: a node must NOT read back a
// field it drives (cache the value in a local instead) — under sharding such
// a read returns the round-start value, not the staged write.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "elastic/channel.h"

namespace esl {

class Netlist;

/// Partition of a netlist's nodes into shards (contiguous blocks of the live
/// node order). shards == 1 means no partitioning: every channel is interior.
struct ShardPlan {
  unsigned shards = 1;
  std::vector<std::uint32_t> nodeShard;  ///< indexed by NodeId (capacity-sized)
};

class SignalBoard {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// (Re)computes the slot layout for the netlist's live channels and
  /// zero-initializes all signals. Audits every channel width against the
  /// endpoint ports (arena sizing depends on them; see Netlist::validate).
  /// Slot addresses resolved against an earlier layout are stale: the
  /// context builds its op table in the same step that calls this.
  void layout(const Netlist& nl, const ShardPlan* plan = nullptr);

  /// Copies per-channel values from another board (typically the pre-relayout
  /// board) for every live channel both boards know with matching width.
  void adoptValuesFrom(const SignalBoard& old);

  /// Number of 64-slot plane groups (each group spans 4 ctrl_ words).
  std::size_t groupCount() const { return slotCount_ / kWordBits; }

  std::uint32_t slotOf(ChannelId ch) const {
    return ch < slotOf_.size() ? slotOf_[ch] : kNoSlot;
  }
  ChannelId channelAtSlot(std::uint32_t slot) const { return chOfSlot_[slot]; }
  unsigned widthAtSlot(std::uint32_t slot) const { return slotWidth_[slot]; }
  NodeId producerAtSlot(std::uint32_t slot) const { return slotProducer_[slot]; }
  NodeId consumerAtSlot(std::uint32_t slot) const { return slotConsumer_[slot]; }

  // --- control-bit access (per slot) ---------------------------------------
  // Plane indices within a 64-slot group's 4-word block.
  enum Plane : unsigned { kVf = 0, kSf = 1, kVb = 2, kSb = 3 };

  bool bitAt(std::uint32_t slot, Plane p) const {
    return (ctrl_[groupBase(slot) + p] >> (slot & 63)) & 1u;
  }
  /// Writes detect change in passing (the word is already in hand for the
  /// RMW) and record it in the changed bitmap — the event kernels consume
  /// those bits instead of diffing against a shadow copy of the board.
  void setBitAt(std::uint32_t slot, Plane p, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (slot & 63);
    if (stagingActive_ && slot >= boundaryBase_) {
      atomicSetBit(&ctrlBack_[groupBase(slot) - backGroupBase_ + p], m, v);
      return;  // boundary changes are detected at the sync barrier
    }
    std::uint64_t& w = ctrl_[groupBase(slot) + p];
    if (((w & m) != 0) == v) return;
    w ^= m;
    changed_[slot >> 6] |= m;
  }

  /// Consumes (tests and clears) a channel's changed bit.
  bool consumeChanged(std::uint32_t slot) {
    const std::uint64_t m = std::uint64_t{1} << (slot & 63);
    std::uint64_t& w = changed_[slot >> 6];
    if (!(w & m)) return false;
    w &= ~m;
    return true;
  }
  /// Drops all recorded changes (kernel re-seed / external-write recovery).
  void clearChanged() { std::fill(changed_.begin(), changed_.end(), 0); }

  /// One plane word (64 slots) of the front planes; `group` = slot / 64.
  std::uint64_t planeWord(std::size_t group, Plane p) const {
    return ctrl_[group * 4 + p];
  }

  // --- payload access (per slot) -------------------------------------------

  // A payload of at most 64 bits is one word, read and written inline; a
  // wider one takes the out-of-line multi-word paths. The compiled dispatch
  // inlines these accessors at every port, so its narrow code must not grow.

  BitVec dataAt(std::uint32_t slot) const {
    const std::uint32_t off = dataOff_[slot];
    if (off == kNoSlot) return BitVec(slotWidth_[slot]);
    if (slotWidth_[slot] > 64) return wideDataAt(slot);
    return BitVec(slotWidth_[slot], words_[off]);
  }
  /// Low 64 payload bits without materializing a BitVec (narrow channels).
  std::uint64_t dataLow64At(std::uint32_t slot) const {
    const std::uint32_t off = dataOff_[slot];
    return off == kNoSlot ? 0 : words_[off];
  }
  void setDataAt(std::uint32_t slot, const BitVec& v);
  /// Word-copy between two slots of THIS board (staging-off fast path).
  void copyDataFromSlotAt(std::uint32_t dst, std::uint32_t src);

  // --- kernel operations ----------------------------------------------------

  /// Front-vs-front comparison of one channel's 4 bits + payload between two
  /// identically laid-out boards (the event kernel's shadow compare).
  bool channelEqualsAt(std::uint32_t slot, const SignalBoard& other) const {
    const std::size_t g = groupBase(slot);
    const std::uint64_t m = std::uint64_t{1} << (slot & 63);
    for (unsigned p = 0; p < 4; ++p)
      if ((ctrl_[g + p] ^ other.ctrl_[g + p]) & m) return false;
    return dataEqualsAt(slot, other);
  }
  /// Payload equality against a value stored as words (BitVec::toWords).
  bool dataEqualsWordsAt(std::uint32_t slot, const std::uint64_t* w) const {
    const std::uint32_t off = dataOff_[slot];
    if (off == kNoSlot) return true;
    if (slotWidth_[slot] > 64) return sameWords(&words_[off], w, slotWidth_[slot]);
    return words_[off] == w[0];
  }
  bool dataEqualsAt(std::uint32_t slot, const SignalBoard& other) const {
    const std::uint32_t off = dataOff_[slot];
    if (off == kNoSlot) return true;
    if (slotWidth_[slot] > 64)
      return sameWords(&words_[off], &other.words_[off], slotWidth_[slot]);
    return words_[off] == other.words_[off];
  }
  /// Zeroes every signal and payload, keeping the layout (context reset).
  void clearValues();

  /// Full value copy from an identically laid-out board (near-memcpy).
  void copyValuesFrom(const SignalBoard& other);
  /// The protocol monitor's previous-cycle copy from an identically laid-out
  /// board: all four control planes, but of the payloads only those of
  /// stopped tokens (vf & sf & ~vb), the one payload the Retry+ check
  /// compares. Every other payload here keeps a stale value.
  void copyControlAndStoppedDataFrom(const SignalBoard& other) {
    for (std::size_t g = 0; g < groupCount(); ++g) {
      const std::uint64_t* src = &other.ctrl_[g * 4];
      std::copy(src, src + 4, &ctrl_[g * 4]);
      for (std::uint64_t m = src[kVf] & src[kSf] & ~src[kVb]; m != 0; m &= m - 1) {
        const std::uint32_t slot = g * 64 + __builtin_ctzll(m);
        const std::uint32_t off = dataOff_[slot];
        if (off == kNoSlot) continue;
        if (slotWidth_[slot] > 64)
          copyWords(&words_[off], &other.words_[off], slotWidth_[slot]);
        else
          words_[off] = other.words_[off];
      }
    }
  }
  /// Full value comparison against an identically laid-out board.
  bool sameValuesAs(const SignalBoard& other) const;

  // --- sharded staging -------------------------------------------------------

  bool inBoundary(std::uint32_t slot) const { return slot >= boundaryBase_; }

  /// Enters/leaves staged-write mode. Entering re-synchronizes the back copy
  /// with the front so stale staging can never leak into a round.
  void setStagingActive(bool active);
  bool stagingActive() const { return stagingActive_; }

  /// Publishes staged boundary writes (back -> front), invoking
  /// changed(ChannelId) for every boundary channel whose signals moved.
  /// Single-threaded: call only between parallel rounds.
  template <typename Fn>
  void syncBoundary(Fn&& changed) {
    for (std::uint32_t slot = boundaryBase_; slot < slotCount_; ++slot) {
      const ChannelId ch = chOfSlot_[slot];
      if (ch == kNoChannel) break;  // padding tail of the boundary region
      if (syncBoundarySlot(slot)) changed(ch);
    }
  }

  /// Per-slot word range [first, last) of one shard's interior slots and of
  /// the boundary region, in *group* units (1 group = 64 slots = 4 words).
  std::pair<std::size_t, std::size_t> shardGroupRange(unsigned shard) const {
    return {shardGroupLo_[shard], shardGroupHi_[shard]};
  }
  std::pair<std::size_t, std::size_t> boundaryGroupRange() const {
    return {boundaryBase_ / kWordBits, slotCount_ / kWordBits};
  }

  // --- event sweeps ----------------------------------------------------------

  /// Transfer/kill event masks of one 64-slot group, computed word-parallel
  /// from the settled front planes.
  struct EventWord {
    std::uint64_t fwd = 0;   ///< vf & ~sf & ~vb
    std::uint64_t kill = 0;  ///< vf & vb
    std::uint64_t bwd = 0;   ///< vb & ~sb & ~vf
    std::uint64_t any() const { return fwd | kill | bwd; }
  };
  EventWord eventsAtGroup(std::size_t group) const {
    const std::size_t g = group * 4;
    const std::uint64_t vf = ctrl_[g + kVf], sf = ctrl_[g + kSf];
    const std::uint64_t vb = ctrl_[g + kVb], sb = ctrl_[g + kSb];
    EventWord e;
    e.kill = vf & vb;
    e.fwd = vf & ~sf & ~vb;
    e.bwd = vb & ~sb & ~vf;
    return e;
  }
  /// vf|vb of one group: channels carrying a token or anti-token ("hot").
  std::uint64_t activityAtGroup(std::size_t group) const {
    return ctrl_[group * 4 + kVf] | ctrl_[group * 4 + kVb];
  }

  /// Snapshot of one channel in the legacy AoS struct form.
  ChannelSignals snapshotAt(std::uint32_t slot) const {
    ChannelSignals s;
    s.vf = bitAt(slot, kVf);
    s.sf = bitAt(slot, kSf);
    s.vb = bitAt(slot, kVb);
    s.sb = bitAt(slot, kSb);
    s.data = dataAt(slot);
    return s;
  }

  // --- raw arena access (compiled backend) -----------------------------------
  // The compiled backend's port proxies (compile/arena.h) address the planes
  // and payload arenas directly, with all offsets resolved at program-compile
  // time; their writes mirror setBitAt/setDataAt exactly, including change
  // tracking.
  // Raw writes are only valid on slots the boundary staging never covers:
  // under sharding the compiler downgrades every node touching a boundary
  // slot to a generic op (virtual eval through the Sig proxies, which honor
  // staging), so specialized ops only ever store to interior, owner-exclusive
  // plane ranges.

  std::uint64_t* ctrlData() { return ctrl_.data(); }
  std::uint64_t* payloadData() { return words_.data(); }
  std::uint64_t* changedData() { return changed_.data(); }
  /// Payload arena offset of a slot: its first word, or kNoSlot for
  /// zero-width channels.
  std::uint32_t dataOffAt(std::uint32_t slot) const { return dataOff_[slot]; }

 private:
  static constexpr unsigned kWordBits = 64;

  static std::size_t groupBase(std::uint32_t slot) {
    return static_cast<std::size_t>(slot >> 6) * 4;
  }
  static void plainSetBit(std::uint64_t* w, std::uint64_t m, bool v) {
    if (v)
      *w |= m;
    else
      *w &= ~m;
  }
  static void atomicSetBit(std::uint64_t* w, std::uint64_t m, bool v);
  bool syncBoundarySlot(std::uint32_t slot);
  // The multi-word payload paths (width > 64), out of line: ⌈width/64⌉
  // words at each pointer.
  BitVec wideDataAt(std::uint32_t slot) const;
  static bool sameWords(const std::uint64_t* a, const std::uint64_t* b,
                        unsigned width);
  static void copyWords(std::uint64_t* dst, const std::uint64_t* src,
                        unsigned width);

  std::size_t slotCount_ = 0;             ///< multiple of 64 (padded)
  std::vector<std::uint32_t> slotOf_;     ///< ChannelId -> slot (kNoSlot = dead)
  std::vector<ChannelId> chOfSlot_;       ///< slot -> ChannelId (kNoChannel = pad)
  std::vector<std::uint32_t> slotWidth_;  ///< slot -> payload width
  std::vector<NodeId> slotProducer_;      ///< slot -> producer node
  std::vector<NodeId> slotConsumer_;      ///< slot -> consumer node

  // Front planes: 4 words per 64-slot group, [vf sf vb sb] interleaved.
  std::vector<std::uint64_t> ctrl_;
  std::vector<std::uint64_t> words_;      ///< payload arena (⌈width/64⌉ words/ch)
  std::vector<std::uint32_t> dataOff_;    ///< slot -> first payload word
  std::vector<std::uint64_t> changed_;    ///< write-tracked change bits/slot

  // Boundary double buffer (back copy of the boundary tail of each store).
  std::uint32_t boundaryBase_ = 0;        ///< first boundary slot (64-aligned)
  std::size_t backGroupBase_ = 0;         ///< ctrl_ index of the first back group
  std::size_t backWordBase_ = 0;          ///< words_ offset of the boundary tail
  std::vector<std::uint64_t> ctrlBack_;
  std::vector<std::uint64_t> wordsBack_;
  bool stagingActive_ = false;

  // Interior group ranges per shard (group = 64 slots).
  std::vector<std::size_t> shardGroupLo_;
  std::vector<std::size_t> shardGroupHi_;
};

// --- accessor proxies --------------------------------------------------------

/// Read-only view of one channel's signals (bound to a board slot).
class ConstSig {
 public:
  ConstSig(const SignalBoard& b, std::uint32_t slot) : b_(&b), slot_(slot) {}

  bool vf() const { return b_->bitAt(slot_, SignalBoard::kVf); }
  bool sf() const { return b_->bitAt(slot_, SignalBoard::kSf); }
  bool vb() const { return b_->bitAt(slot_, SignalBoard::kVb); }
  bool sb() const { return b_->bitAt(slot_, SignalBoard::kSb); }
  ChannelEvents events() const { return ChannelEvents::of(vf(), sf(), vb(), sb()); }
  BitVec data() const { return b_->dataAt(slot_); }
  std::uint64_t dataLow64() const { return b_->dataLow64At(slot_); }
  bool dataEqualsWords(const std::uint64_t* w) const {
    return b_->dataEqualsWordsAt(slot_, w);
  }
  unsigned width() const { return b_->widthAtSlot(slot_); }

  /// Legacy AoS snapshot: lets `const ChannelSignals s = ctx.sig(ch);` keep
  /// working (clockEdge code paths, tests, trace capture).
  operator ChannelSignals() const { return b_->snapshotAt(slot_); }  // NOLINT

  const SignalBoard& board() const { return *b_; }
  std::uint32_t slot() const { return slot_; }

 protected:
  const SignalBoard* b_;
  std::uint32_t slot_;
};

/// Mutable view; writes go through the board (and honor boundary staging).
/// evalComb contract: never read back a field you drive — use a local.
class Sig : public ConstSig {
 public:
  Sig(SignalBoard& b, std::uint32_t slot) : ConstSig(b, slot), mb_(&b) {}

  void setVf(bool v) { mb_->setBitAt(slot_, SignalBoard::kVf, v); }
  void setSf(bool v) { mb_->setBitAt(slot_, SignalBoard::kSf, v); }
  void setVb(bool v) { mb_->setBitAt(slot_, SignalBoard::kVb, v); }
  void setSb(bool v) { mb_->setBitAt(slot_, SignalBoard::kSb, v); }
  void setData(const BitVec& v) { mb_->setDataAt(slot_, v); }
  /// Payload copy straight from another channel's storage (fork/mux routing).
  void setDataFrom(const ConstSig& src);

 private:
  SignalBoard* mb_;
};

/// Event predicates on the proxy views (mirrors the ChannelSignals helpers).
inline bool killEvent(const ConstSig& s) { return s.vf() && s.vb(); }
inline bool fwdTransfer(const ConstSig& s) { return s.vf() && !s.sf() && !s.vb(); }
inline bool bwdTransfer(const ConstSig& s) { return s.vb() && !s.sb() && !s.vf(); }
inline ChannelSymbol channelSymbol(const ConstSig& s) {
  if (s.vb()) return ChannelSymbol::kAntiToken;
  if (s.vf()) return ChannelSymbol::kData;
  return ChannelSymbol::kBubble;
}

}  // namespace esl
