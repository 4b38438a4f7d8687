// BitVec: fixed-width bit vector value type (width chosen at construction).
//
// Channel payloads in the elastic simulator, datapath operands (including the
// 72-bit SECDED code words) and injected error masks are all BitVec values.
// Semantics are those of an unsigned integer of exactly `width` bits: all
// arithmetic wraps modulo 2^width and every operation keeps the result masked
// to the width.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "base/error.h"

namespace esl {

class BitVec {
 public:
  /// Zero-width empty value (used for pure control tokens).
  BitVec() = default;

  /// `width` bits initialized from the low bits of `value`.
  explicit BitVec(unsigned width, std::uint64_t value = 0);

  /// Parses a binary string, MSB first ("1011" -> width 4, value 11).
  static BitVec fromBinary(const std::string& bits);

  /// All-ones value of the given width.
  static BitVec ones(unsigned width);

  /// Single bit set at `pos` in a vector of `width` bits.
  static BitVec oneHot(unsigned width, unsigned pos);

  unsigned width() const { return width_; }
  bool empty() const { return width_ == 0; }

  bool bit(unsigned pos) const;
  void setBit(unsigned pos, bool value);

  /// Bits [lo, lo+len) as a uint64 (len <= 64). Word-parallel field read.
  std::uint64_t extractBits(unsigned lo, unsigned len) const;
  /// Overwrites bits [lo, lo+len) with the low `len` bits of value (len <= 64).
  void depositBits(unsigned lo, std::uint64_t value, unsigned len);

  /// Low 64 bits (exact value if width() <= 64).
  std::uint64_t toUint64() const;

  /// Word 0 with no width branch (requires width() >= 1). Inline so the
  /// compiled backend's narrow payload moves stay call-free.
  std::uint64_t word0() const {
    return onHeap() ? heapWords_[0] : inlineWords_[0];
  }

  /// The value held as ⌈width/64⌉ little-endian words, already masked to the
  /// width (a node-state record's payload slot), and the way back.
  static BitVec fromWords(unsigned width, const std::uint64_t* words) {
    BitVec v;
    v.width_ = width;
    v.allocate();
    std::copy(words, words + v.wordCount(), v.wordsMut());
    return v;
  }
  void toWords(std::uint64_t* out) const {
    std::copy(words(), words() + wordCount(), out);
  }
  bool equalsWords(const std::uint64_t* w) const {
    return std::equal(words(), words() + wordCount(), w);
  }

  /// True iff every bit is zero (zero-width vectors are zero).
  bool isZero() const;

  unsigned popcount() const;
  bool parity() const;  ///< XOR of all bits.
  /// Parity of `*this & mask` without materializing the AND (widths must
  /// match). Lets ECC-style checks run word-parallel with no allocation.
  bool parityAnd(const BitVec& mask) const;

  /// Bits [lo, lo+len) as a new BitVec of width len.
  BitVec slice(unsigned lo, unsigned len) const;

  /// Concatenation: `this` occupies the low bits, `high` the high bits.
  BitVec concat(const BitVec& high) const;

  /// Zero-extends or truncates to `width` bits.
  BitVec resized(unsigned width) const;

  // Bitwise operators require equal widths.
  BitVec operator~() const;
  BitVec operator&(const BitVec& rhs) const;
  BitVec operator|(const BitVec& rhs) const;
  BitVec operator^(const BitVec& rhs) const;

  // Modular arithmetic, equal widths.
  BitVec operator+(const BitVec& rhs) const;
  BitVec operator-(const BitVec& rhs) const;

  BitVec operator<<(unsigned amount) const;
  BitVec operator>>(unsigned amount) const;

  bool operator==(const BitVec& rhs) const;
  bool operator!=(const BitVec& rhs) const { return !(*this == rhs); }
  /// Unsigned comparison; widths must match.
  std::strong_ordering operator<=>(const BitVec& rhs) const;

  /// MSB-first binary string, e.g. "01011".
  std::string toBinary() const;
  /// Hex string with 0x prefix, e.g. "0x2b".
  std::string toHex() const;

  /// FNV-style hash for use in unordered containers / state hashing.
  std::size_t hash() const;

  // Small-buffer value type: widths up to kInlineWords*64 bits (which covers
  // every datapath in the paper systems, including the 144-bit SECDED pairs)
  // live entirely inline; wider values fall back to the heap. Simulation
  // copies channel payloads constantly, so this keeps the hot path
  // allocation-free.
  BitVec(const BitVec& o) : width_(o.width_) {
    allocate();
    std::copy(o.words(), o.words() + wordCount(), wordsMut());
  }
  BitVec(BitVec&& o) noexcept : width_(o.width_) {
    if (onHeap()) {
      heapWords_ = o.heapWords_;
      o.width_ = 0;
    } else {
      std::copy(o.inlineWords_, o.inlineWords_ + wordCount(), inlineWords_);
    }
  }
  BitVec& operator=(const BitVec& o) {
    if (this == &o) return *this;
    if (wordCount() != o.wordCount()) {
      release();
      width_ = o.width_;
      allocate();
    } else {
      width_ = o.width_;
    }
    std::copy(o.words(), o.words() + wordCount(), wordsMut());
    return *this;
  }
  BitVec& operator=(BitVec&& o) noexcept {
    if (this == &o) return *this;
    release();
    width_ = o.width_;
    if (onHeap()) {
      heapWords_ = o.heapWords_;
      o.width_ = 0;
    } else {
      std::copy(o.inlineWords_, o.inlineWords_ + wordCount(), inlineWords_);
    }
    return *this;
  }
  ~BitVec() { release(); }

 private:
  static constexpr unsigned kWordBits = 64;
  static constexpr unsigned kInlineWords = 3;
  unsigned wordCount() const { return (width_ + kWordBits - 1) / kWordBits; }
  bool onHeap() const { return wordCount() > kInlineWords; }
  const std::uint64_t* words() const { return onHeap() ? heapWords_ : inlineWords_; }
  std::uint64_t* wordsMut() { return onHeap() ? heapWords_ : inlineWords_; }
  /// Zero-initializes storage for the current width.
  void allocate() {
    if (onHeap())
      heapWords_ = new std::uint64_t[wordCount()]();
    else
      for (unsigned i = 0; i < kInlineWords; ++i) inlineWords_[i] = 0;
  }
  void release() {
    if (onHeap()) delete[] heapWords_;
  }
  void maskTop();
  void checkSameWidth(const BitVec& rhs) const;

  unsigned width_ = 0;
  union {
    std::uint64_t inlineWords_[kInlineWords] = {0, 0, 0};
    std::uint64_t* heapWords_;
  };
};

struct BitVecHash {
  std::size_t operator()(const BitVec& v) const { return v.hash(); }
};

}  // namespace esl
