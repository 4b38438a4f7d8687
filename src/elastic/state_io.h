// Byte-oriented serialization of node state.
//
// The explicit-state model checker (src/verify) snapshots the entire netlist
// state as a byte string; nodes pack and unpack their sequential state through
// these helpers. Performance statistics must NOT be packed (they would blow up
// the reachable state space without changing behaviour).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "base/error.h"

namespace esl {

class StateWriter {
 public:
  StateWriter() = default;
  /// Fast path for per-transition snapshotting (the model checker packs the
  /// whole netlist once per explored edge): adopts an existing buffer so its
  /// capacity is reused instead of reallocated; take() hands it back.
  explicit StateWriter(std::vector<std::uint8_t> reuse) : bytes_(std::move(reuse)) {
    bytes_.clear();
  }

  void writeBool(bool b) { bytes_.push_back(b ? 1 : 0); }

  void writeU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void writeU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  /// Raw byte run (strings, nested byte blobs — the serve spool format).
  void writeBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }

  void writeBitVec(const BitVec& v) {
    writeU32(v.width());
    std::uint8_t acc = 0;
    for (unsigned i = 0; i < v.width(); ++i) {
      if (v.bit(i)) acc |= static_cast<std::uint8_t>(1u << (i % 8));
      if (i % 8 == 7 || i + 1 == v.width()) {
        bytes_.push_back(acc);
        acc = 0;
      }
    }
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class StateReader {
 public:
  /// `offset` skips a caller-parsed prefix (SimContext's snapshot header).
  explicit StateReader(const std::vector<std::uint8_t>& bytes,
                       std::size_t offset = 0)
      : bytes_(bytes), pos_(offset) {}

  bool readBool() { return byte() != 0; }

  std::uint32_t readU32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(byte()) << (8 * i);
    return v;
  }

  std::uint64_t readU64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(byte()) << (8 * i);
    return v;
  }

  std::vector<std::uint8_t> readBytes(std::size_t n) {
    ESL_CHECK(n <= bytes_.size() - pos_, "StateReader: out of data");
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  BitVec readBitVec() {
    const unsigned width = readU32();
    BitVec v(width);
    std::uint8_t acc = 0;
    for (unsigned i = 0; i < width; ++i) {
      if (i % 8 == 0) acc = byte();
      v.setBit(i, (acc >> (i % 8)) & 1);
    }
    return v;
  }

  /// readBitVec() of a payload the reader's node declares `width` bits wide.
  /// A restored token of another width is rejected here: once driven onto
  /// its channel it would fail the board's width audit mid-simulation.
  BitVec readPayload(unsigned width, const std::string& node) {
    BitVec v = readBitVec();
    ESL_CHECK(v.width() == width, "unpackState: payload width " +
                                      std::to_string(v.width()) + " on " + node +
                                      " does not match its declared width " +
                                      std::to_string(width));
    return v;
  }

  bool done() const { return pos_ == bytes_.size(); }

 private:
  std::uint8_t byte() {
    ESL_CHECK(pos_ < bytes_.size(), "StateReader: out of data");
    return bytes_[pos_++];
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

/// Canonical 64-bit hash of a packed state (FNV-1a). Keys the model checker's
/// striped visited set; identical bytes hash identically on every thread.
inline std::uint64_t hashBytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace esl
