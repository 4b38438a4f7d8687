// Params: the ordered `key=value` attribute list of the netlist IR.
//
// Every data-constructible node kind of the `.esl` format (src/frontend) is
// parameterized by one of these lists: a registry factory reads typed values
// out of it, and the verbatim entries are stored on the constructed Node so
// printing a netlist reproduces exactly the attributes it was built from
// (the print -> parse -> print fixpoint needs no canonicalization pass).
//
// Values are whitespace-free tokens. Numbers accept decimal or 0x-hex;
// lists are comma-separated; BitVec payloads are 0x-hex sized by the
// context's width. Reads are tracked so a factory can reject attributes it
// never consumed (typos fail loudly instead of being ignored).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/bitvec.h"

namespace esl {

class Params {
 public:
  using Entry = std::pair<std::string, std::string>;

  Params() = default;
  Params(std::initializer_list<Entry> kv) : kv_(kv) {}
  /// Takes `kv` as the list; its keys must be distinct (the parser checks).
  explicit Params(std::vector<Entry> kv) : kv_(std::move(kv)) {}
  /// A copy starts with no key read: the marks belong to one factory run.
  Params(const Params& other) : kv_(other.kv_) {}
  Params& operator=(const Params& other) {
    kv_ = other.kv_;
    read_.clear();
    return *this;
  }
  Params(Params&&) = default;
  Params& operator=(Params&&) = default;

  // --- building (used by the C++ netlist builders) --------------------------

  /// Appends, or overwrites an existing key in place.
  Params& set(std::string key, std::string value);
  Params& setU64(std::string key, std::uint64_t v);
  Params& setI64(std::string key, std::int64_t v);
  Params& setReal(std::string key, double v);
  Params& setBits(std::string key, const BitVec& v);
  Params& setU64List(std::string key, const std::vector<std::uint64_t>& v);
  Params& setBitsList(std::string key, const std::vector<BitVec>& v);

  // --- typed reads (registry factories) -------------------------------------
  //
  // The no-default forms throw NetlistError naming the missing key; every
  // read marks the key consumed for unconsumed(). Values parse in place; the
  // error text is built only when a read fails.

  bool has(std::string_view key) const;
  const std::string& str(std::string_view key) const;
  std::string str(std::string_view key, const std::string& fallback) const;
  std::uint64_t u64(std::string_view key) const;
  std::uint64_t u64(std::string_view key, std::uint64_t fallback) const;
  /// u64() checked against 32 bits: widths, counts and capacities.
  unsigned u32(std::string_view key) const;
  unsigned u32(std::string_view key, unsigned fallback) const;
  std::int64_t i64(std::string_view key, std::int64_t fallback) const;
  double real(std::string_view key, double fallback) const;
  /// 0x-hex or decimal, zero-extended/checked against `width` bits.
  BitVec bits(std::string_view key, unsigned width) const;
  /// Comma-separated lists; an absent key or "" reads as the empty list.
  std::vector<std::uint64_t> u64List(std::string_view key) const;
  std::vector<unsigned> u32List(std::string_view key) const;
  std::vector<BitVec> bitsList(std::string_view key, unsigned width) const;

  /// The keys never read since construction, comma-separated ("" when every
  /// key was read). The registry refuses a node whose factory left one, so
  /// unknown attributes in a `.esl` file are an error, not silence.
  std::string unconsumed() const;

  const std::vector<Entry>& entries() const { return kv_; }
  bool empty() const { return kv_.empty(); }

 private:
  const std::string* find(std::string_view key) const;
  const std::string& require(std::string_view key) const;

  std::vector<Entry> kv_;
  mutable std::vector<bool> read_;  ///< parallel to kv_
};

/// Parses decimal or 0x-hex; throws NetlistError naming `what` on garbage
/// or on a value outside the result type (parseU32 names the limit).
std::uint64_t parseU64(std::string_view text, const std::string& what);
std::uint32_t parseU32(std::string_view text, const std::string& what);
std::int64_t parseI64(std::string_view text, const std::string& what);
double parseReal(std::string_view text, const std::string& what);
BitVec parseBits(std::string_view text, unsigned width, const std::string& what);

/// Shortest-round-trip serialization (parseReal(realToken(x)) == x).
std::string realToken(double v);

}  // namespace esl
