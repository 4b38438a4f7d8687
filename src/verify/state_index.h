// Striped visited-set for explicit-state exploration.
//
// Maps packed netlist states to dense state ids, keyed on the canonical
// 64-bit state hash (esl::hashBytes). The table is striped: the hash selects
// one of kStripes independently-locked shards, so concurrent probes from BFS
// worker lanes never contend on a single mutex. Ids are assigned by the
// caller (the checker's deterministic merge), never by the index — which is
// what keeps state numbering identical for every worker count.
//
// Byte storage stays with the caller: entries are (hash, id) only, and a
// probe resolves collisions by comparing against the caller-provided byte
// store. The checker's usage is phase-separated — lanes probe while a level
// expands, only the single-threaded merge inserts — so probes never observe a
// half-built entry; the per-stripe locks additionally keep any interleaved
// use (or a future fully-async explorer) well-defined.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "base/error.h"

namespace esl::verify {

constexpr std::uint32_t kNoState = 0xffffffffu;

class StateIndex {
 public:
  /// Resolves a state id back to its packed bytes (collision check).
  using BytesOf =
      std::function<const std::vector<std::uint8_t>&(std::uint32_t)>;

  explicit StateIndex(BytesOf bytesOf) : bytesOf_(std::move(bytesOf)) {
    ESL_CHECK(static_cast<bool>(bytesOf_), "StateIndex: bytes accessor required");
  }

  /// Id of the state with these bytes, or kNoState.
  std::uint32_t find(std::uint64_t hash,
                     const std::vector<std::uint8_t>& bytes) const {
    const Stripe& s = stripe(hash);
    std::lock_guard<std::mutex> lock(s.m);
    const auto [lo, hi] = s.map.equal_range(hash);
    for (auto it = lo; it != hi; ++it)
      if (bytesOf_(it->second) == bytes) return it->second;
    return kNoState;
  }

  /// Registers `id` under `hash`; the caller has already stored the bytes
  /// where bytesOf_ can see them.
  void insert(std::uint64_t hash, std::uint32_t id) {
    Stripe& s = stripe(hash);
    std::lock_guard<std::mutex> lock(s.m);
    s.map.emplace(hash, id);
  }

  void clear() {
    for (auto& s : stripes_store_) {
      std::lock_guard<std::mutex> lock(s.m);
      s.map.clear();
    }
  }

 private:
  struct Stripe {
    mutable std::mutex m;
    std::unordered_multimap<std::uint64_t, std::uint32_t> map;
  };

  static constexpr std::size_t kStripes = 64;  ///< a power of two

  Stripe& stripe(std::uint64_t hash) {
    return stripes_store_[hash & (kStripes - 1)];
  }
  const Stripe& stripe(std::uint64_t hash) const {
    return stripes_store_[hash & (kStripes - 1)];
  }

  BytesOf bytesOf_;
  mutable std::vector<Stripe> stripes_store_ = std::vector<Stripe>(kStripes);
};

}  // namespace esl::verify
