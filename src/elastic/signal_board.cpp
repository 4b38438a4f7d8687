#include "elastic/signal_board.h"

#include <atomic>

#include "elastic/netlist.h"

namespace esl {

namespace {
constexpr std::size_t kGroupSlots = 64;

/// Arena words of a payload of `width` bits.
std::size_t wordsFor(unsigned width) { return (width + 63) / 64; }

std::uint32_t alignUp(std::uint32_t n) {
  return static_cast<std::uint32_t>((n + kGroupSlots - 1) & ~(kGroupSlots - 1));
}
}  // namespace

void SignalBoard::atomicSetBit(std::uint64_t* w, std::uint64_t m, bool v) {
  // Back-plane words are shared between boundary channels staged by different
  // shards; RMW must be atomic. Visibility across rounds comes from the
  // executor barrier, so relaxed ordering suffices.
  std::atomic_ref<std::uint64_t> a(*w);
  if (v)
    a.fetch_or(m, std::memory_order_relaxed);
  else
    a.fetch_and(~m, std::memory_order_relaxed);
}

void SignalBoard::layout(const Netlist& nl, const ShardPlan* plan) {
  const unsigned shards = (plan != nullptr && plan->shards > 1) ? plan->shards : 1;

  slotOf_.assign(nl.channelCapacity(), kNoSlot);
  // Bucket live channels: interior per home shard, cross-shard to boundary.
  std::vector<std::vector<ChannelId>> buckets(shards + 1);
  for (const ChannelId ch : nl.channelIds()) {
    const Channel& c = nl.channel(ch);
    // Arena sizing depends on the recorded width; audit it against the
    // endpoint ports so post-connect width edits cannot corrupt payloads.
    ESL_CHECK(nl.node(c.producer).outputWidth(c.producerPort) == c.width &&
                  nl.node(c.consumer).inputWidth(c.consumerPort) == c.width,
              "SignalBoard: channel '" + c.name +
                  "' width disagrees with its endpoint ports (post-connect "
                  "width edit?)");
    unsigned home = shards;  // boundary
    if (shards == 1)
      home = 0;
    else if (plan->nodeShard[c.producer] == plan->nodeShard[c.consumer])
      home = plan->nodeShard[c.producer];
    buckets[home].push_back(ch);
  }

  shardGroupLo_.assign(shards, 0);
  shardGroupHi_.assign(shards, 0);
  std::uint32_t cur = 0;
  chOfSlot_.clear();
  slotWidth_.clear();
  slotProducer_.clear();
  slotConsumer_.clear();
  words_.clear();
  dataOff_.clear();

  const auto assignSlot = [&](ChannelId ch) {
    const Channel& c = nl.channel(ch);
    slotOf_[ch] = cur;
    chOfSlot_.push_back(ch);
    slotWidth_.push_back(c.width);
    slotProducer_.push_back(c.producer);
    slotConsumer_.push_back(c.consumer);
    dataOff_.push_back(c.width == 0 ? kNoSlot
                                    : static_cast<std::uint32_t>(words_.size()));
    words_.resize(words_.size() + wordsFor(c.width));
    ++cur;
  };
  const auto padToGroup = [&] {
    while (cur != alignUp(cur)) {
      chOfSlot_.push_back(kNoChannel);
      slotWidth_.push_back(0);
      slotProducer_.push_back(kNoNode);
      slotConsumer_.push_back(kNoNode);
      dataOff_.push_back(kNoSlot);
      ++cur;
    }
  };

  for (unsigned s = 0; s < shards; ++s) {
    shardGroupLo_[s] = cur / kGroupSlots;
    for (const ChannelId ch : buckets[s]) assignSlot(ch);
    padToGroup();
    shardGroupHi_[s] = cur / kGroupSlots;
  }
  boundaryBase_ = cur;
  backWordBase_ = words_.size();
  for (const ChannelId ch : buckets[shards]) assignSlot(ch);
  padToGroup();
  slotCount_ = cur;

  ctrl_.assign(slotCount_ / kGroupSlots * 4, 0);
  changed_.assign(slotCount_ / kGroupSlots, 0);
  backGroupBase_ = groupBase(boundaryBase_);
  ctrlBack_.assign(ctrl_.size() - backGroupBase_, 0);
  wordsBack_.assign(words_.begin() + static_cast<std::ptrdiff_t>(backWordBase_),
                    words_.end());
  stagingActive_ = false;
}

void SignalBoard::adoptValuesFrom(const SignalBoard& old) {
  for (std::uint32_t slot = 0; slot < slotCount_; ++slot) {
    const ChannelId ch = chOfSlot_[slot];
    if (ch == kNoChannel || ch >= old.slotOf_.size()) continue;
    const std::uint32_t oldSlot = old.slotOf_[ch];
    if (oldSlot == kNoSlot || old.slotWidth_[oldSlot] != slotWidth_[slot]) continue;
    for (unsigned p = 0; p < 4; ++p)
      plainSetBit(&ctrl_[groupBase(slot) + p], std::uint64_t{1} << (slot & 63),
                  old.bitAt(oldSlot, static_cast<Plane>(p)));
    if (dataOff_[slot] != kNoSlot) setDataAt(slot, old.dataAt(oldSlot));
  }
}

void SignalBoard::setDataAt(std::uint32_t slot, const BitVec& v) {
  ESL_CHECK(v.width() == slotWidth_[slot], "SignalBoard: payload width mismatch");
  const std::uint32_t off = dataOff_[slot];
  if (off == kNoSlot) return;  // zero-width control token
  const bool staged = stagingActive_ && slot >= boundaryBase_;
  if (v.width() > 64) {
    std::uint64_t* dst = staged ? &wordsBack_[off - backWordBase_] : &words_[off];
    if (v.equalsWords(dst)) return;
    v.toWords(dst);
  } else {
    std::uint64_t& w = staged ? wordsBack_[off - backWordBase_] : words_[off];
    const std::uint64_t nv = v.toUint64();
    if (w == nv) return;
    w = nv;
  }
  if (!staged) changed_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
}

void Sig::setDataFrom(const ConstSig& src) {
  // Same-width payload routing (fork branches, mux selection) without
  // materializing a BitVec: a word copy within the arena. Staging only
  // redirects *boundary* writes, so the fast path stays valid for the
  // interior copies that dominate under a 64-aligned shard layout.
  const SignalBoard& sb = src.board();
  const std::uint32_t s = src.slot();
  ESL_CHECK(sb.widthAtSlot(s) == mb_->widthAtSlot(slot_),
            "Sig::setDataFrom: width mismatch");
  if (mb_->widthAtSlot(slot_) == 0) return;
  if (&sb == mb_ && !(mb_->stagingActive() && mb_->inBoundary(slot_)))
    mb_->copyDataFromSlotAt(slot_, s);
  else
    setData(sb.dataAt(s));
}

void SignalBoard::copyDataFromSlotAt(std::uint32_t dst, std::uint32_t src) {
  // Interior-destination fast path only (see Sig::setDataFrom): the write
  // lands in the front arena and is change-tracked like setDataAt; the
  // source always reads the stable front values.
  const std::uint32_t doff = dataOff_[dst];
  const std::uint32_t soff = dataOff_[src];
  if (doff == kNoSlot) return;
  if (slotWidth_[dst] > 64) {
    if (sameWords(&words_[doff], &words_[soff], slotWidth_[dst])) return;
    copyWords(&words_[doff], &words_[soff], slotWidth_[dst]);
  } else {
    std::uint64_t& out = words_[doff];
    if (out == words_[soff]) return;
    out = words_[soff];
  }
  changed_[dst >> 6] |= std::uint64_t{1} << (dst & 63);
}

void SignalBoard::clearValues() {
  std::fill(ctrl_.begin(), ctrl_.end(), 0);
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(changed_.begin(), changed_.end(), 0);
}

void SignalBoard::copyValuesFrom(const SignalBoard& other) {
  ctrl_ = other.ctrl_;
  words_ = other.words_;
}

bool SignalBoard::sameValuesAs(const SignalBoard& other) const {
  return ctrl_ == other.ctrl_ && words_ == other.words_;
}

void SignalBoard::setStagingActive(bool active) {
  if (active) {
    // Re-seed the back copy from the front: between rounds the invariant
    // back == front holds for every synced slot, but a sweep settle or
    // direct write may have moved the front since the last sharded settle.
    std::copy(ctrl_.begin() + static_cast<std::ptrdiff_t>(backGroupBase_),
              ctrl_.end(), ctrlBack_.begin());
    std::copy(words_.begin() + static_cast<std::ptrdiff_t>(backWordBase_),
              words_.end(), wordsBack_.begin());
  }
  stagingActive_ = active;
}

bool SignalBoard::syncBoundarySlot(std::uint32_t slot) {
  const std::size_t g = groupBase(slot);
  const std::size_t bg = g - backGroupBase_;
  const std::uint64_t m = std::uint64_t{1} << (slot & 63);
  bool changed = false;
  for (unsigned p = 0; p < 4; ++p) {
    if ((ctrl_[g + p] ^ ctrlBack_[bg + p]) & m) {
      ctrl_[g + p] = (ctrl_[g + p] & ~m) | (ctrlBack_[bg + p] & m);
      changed = true;
    }
  }
  const std::uint32_t off = dataOff_[slot];
  if (off != kNoSlot) {
    std::uint64_t* front = &words_[off];
    const std::uint64_t* back = &wordsBack_[off - backWordBase_];
    if (!sameWords(front, back, slotWidth_[slot])) {
      copyWords(front, back, slotWidth_[slot]);
      changed = true;
    }
  }
  return changed;
}

BitVec SignalBoard::wideDataAt(std::uint32_t slot) const {
  return BitVec::fromWords(slotWidth_[slot], &words_[dataOff_[slot]]);
}

bool SignalBoard::sameWords(const std::uint64_t* a, const std::uint64_t* b,
                            unsigned width) {
  return std::equal(a, a + wordsFor(width), b);
}

void SignalBoard::copyWords(std::uint64_t* dst, const std::uint64_t* src,
                            unsigned width) {
  std::copy_n(src, wordsFor(width), dst);
}

}  // namespace esl
