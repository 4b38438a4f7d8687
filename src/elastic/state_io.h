// Byte-oriented serialization of state, and the one container it is stored in.
//
// The explicit-state model checker (src/verify) snapshots the entire netlist
// state as a byte string; nodes pack and unpack their sequential state through
// these helpers. Performance statistics must NOT be packed (they would blow up
// the reachable state space without changing behaviour).
//
// Every state that leaves a process (packState() snapshots, serve session
// records) is one container, little-endian: u32 magic "ESLR", u32 version,
// u32 kind, u64 payload length, u32 CRC-32 of the payload, then the payload.
// StateWriter(kind)...seal() writes one; StateReader::open verifies one,
// current version only, before a payload byte is decoded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/bitvec.h"
#include "base/error.h"

namespace esl {

/// The payload's field order: SimContext::packState, SimSession::spoolSave.
enum class StateKind : std::uint32_t { kSnapshot = 1, kSession = 2 };

inline constexpr std::uint32_t kStateMagic = 0x524C5345u;  // "ESLR"
inline constexpr std::uint32_t kStateVersion = 2;
inline constexpr std::size_t kStateHeaderBytes = 24;

class StateWriter {
 public:
  StateWriter() = default;
  /// Fast path for per-transition snapshotting (the model checker packs the
  /// whole netlist once per explored edge): adopts an existing buffer so its
  /// capacity is reused instead of reallocated; take() hands it back.
  explicit StateWriter(std::vector<std::uint8_t> reuse) : bytes_(std::move(reuse)) {
    bytes_.clear();
  }
  /// Opens a container of `kind`: the payload follows, and seal() fills in
  /// the header's length and CRC.
  explicit StateWriter(StateKind kind);

  void writeU8(std::uint8_t v) { bytes_.push_back(v); }
  void writeBool(bool b) { writeU8(b ? 1 : 0); }

  void writeU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void writeU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
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

  /// A sized section: a u64 byte count, then the bytes written until
  /// endSection(beginSection()). StateReader::section() reads one back.
  std::size_t beginSection() {
    writeU64(0);
    return bytes_.size();
  }
  void endSection(std::size_t start) { putAt(start - 8, bytes_.size() - start, 8); }

  void writeString(const std::string& s) {
    writeU64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  /// take() of a container opened by StateWriter(kind), header completed.
  std::vector<std::uint8_t> seal();

 private:
  /// Overwrites `n` bytes at `at` with `v`, little-endian.
  void putAt(std::size_t at, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) bytes_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> bytes_;
};

class StateReader {
 public:
  explicit StateReader(const std::vector<std::uint8_t>& bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  /// Verifies that `bytes` is a current-version container of `kind` — magic,
  /// version, kind, payload length, CRC — and returns a reader over its
  /// payload. Throws EslError, prefixed with `origin`, naming the first
  /// defect; `bytes` must outlive the reader.
  static StateReader open(const std::vector<std::uint8_t>& bytes, StateKind kind,
                          const std::string& origin);

  std::uint8_t readU8() { return byte(); }
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

  /// The next sized section (see StateWriter::beginSection) as a reader of
  /// its own; this reader moves past it.
  StateReader section() {
    const std::size_t n = take(readU64());
    return StateReader(p_ - n, p_);
  }

  std::string readString() {
    const std::size_t n = take(readU64());
    return std::string(reinterpret_cast<const char*>(p_ - n), n);
  }

  bool done() const { return p_ == end_; }

 private:
  StateReader(const std::uint8_t* begin, const std::uint8_t* end)
      : p_(begin), end_(end) {}

  std::uint8_t byte() {
    ESL_CHECK(p_ != end_, "StateReader: out of data");
    return *p_++;
  }
  /// Skips `n` bytes, checked against what is left; returns `n`.
  std::size_t take(std::uint64_t n) {
    ESL_CHECK(n <= static_cast<std::uint64_t>(end_ - p_), "StateReader: out of data");
    p_ += n;
    return static_cast<std::size_t>(n);
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
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
