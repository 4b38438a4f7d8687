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
#include <utility>
#include <vector>

#include "base/bitvec.h"

namespace esl {

class Params {
 public:
  using Entry = std::pair<std::string, std::string>;

  Params() = default;
  Params(std::initializer_list<Entry> kv) : kv_(kv) {}

  // --- building (used by the C++ netlist builders and the parser) -----------

  /// Appends, or overwrites an existing key in place.
  Params& set(const std::string& key, std::string value);
  Params& setU64(const std::string& key, std::uint64_t v);
  Params& setI64(const std::string& key, std::int64_t v);
  Params& setReal(const std::string& key, double v);
  Params& setBits(const std::string& key, const BitVec& v);
  Params& setU64List(const std::string& key, const std::vector<std::uint64_t>& v);
  Params& setBitsList(const std::string& key, const std::vector<BitVec>& v);

  // --- typed reads (registry factories) -------------------------------------
  //
  // The no-default forms throw NetlistError naming the missing key; every
  // read marks the key consumed for checkConsumed().

  bool has(const std::string& key) const;
  std::string str(const std::string& key) const;
  std::string str(const std::string& key, const std::string& fallback) const;
  std::uint64_t u64(const std::string& key) const;
  std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;
  /// u64() checked against 32 bits: widths, counts and capacities.
  unsigned u32(const std::string& key) const;
  unsigned u32(const std::string& key, unsigned fallback) const;
  std::int64_t i64(const std::string& key, std::int64_t fallback) const;
  double real(const std::string& key, double fallback) const;
  /// 0x-hex or decimal, zero-extended/checked against `width` bits.
  BitVec bits(const std::string& key, unsigned width) const;
  std::vector<std::uint64_t> u64List(const std::string& key) const;
  std::vector<unsigned> u32List(const std::string& key) const;
  std::vector<BitVec> bitsList(const std::string& key, unsigned width) const;

  /// Raw comma-split of a value ("" -> empty list).
  static std::vector<std::string> splitList(const std::string& value);

  /// Throws NetlistError listing any key never read since construction —
  /// called by the registry after a factory ran, so unknown attributes in a
  /// `.esl` file are an error, not silence.
  void checkConsumed(const std::string& context) const;
  /// Marks every `prefix`-prefixed key consumed (for factories that forward
  /// a whole sub-namespace, e.g. `fn.*`, to another component).
  void consumePrefix(const std::string& prefix) const;

  const std::vector<Entry>& entries() const { return kv_; }
  bool empty() const { return kv_.empty(); }

 private:
  const std::string* find(const std::string& key) const;

  std::vector<Entry> kv_;
  mutable std::vector<bool> read_;  ///< parallel to kv_
};

/// Parses decimal or 0x-hex; throws NetlistError naming `what` on garbage
/// or on a value outside the result type (parseU32 names the limit).
std::uint64_t parseU64(const std::string& text, const std::string& what);
std::uint32_t parseU32(const std::string& text, const std::string& what);
std::int64_t parseI64(const std::string& text, const std::string& what);
double parseReal(const std::string& text, const std::string& what);
BitVec parseBits(const std::string& text, unsigned width, const std::string& what);

/// Shortest-round-trip serialization (parseReal(realToken(x)) == x).
std::string realToken(double v);

}  // namespace esl
