#include "elastic/params.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "base/error.h"

namespace esl {

namespace {

bool isHexToken(const std::string& s) {
  return s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
}

unsigned hexNibble(char c, const std::string& what) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  throw NetlistError(what + ": bad hex digit '" + std::string(1, c) + "'");
}

}  // namespace

std::uint64_t parseU64(const std::string& text, const std::string& what) {
  if (text.empty()) throw NetlistError(what + ": empty number");
  std::uint64_t v = 0;
  const bool hex = isHexToken(text);
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != last)
    throw NetlistError(what + ": bad number '" + text + "'");
  return v;
}

std::uint32_t parseU32(const std::string& text, const std::string& what) {
  constexpr std::uint32_t kMax = ~std::uint32_t{0};
  const std::uint64_t v = parseU64(text, what);
  if (v > kMax)
    throw NetlistError(what + ": value " + text + " is above the limit of " +
                       std::to_string(kMax));
  return static_cast<std::uint32_t>(v);
}

std::int64_t parseI64(const std::string& text, const std::string& what) {
  const bool negative = !text.empty() && text[0] == '-';
  const std::uint64_t magnitude = parseU64(negative ? text.substr(1) : text, what);
  // INT64_MIN's magnitude is one more than INT64_MAX's.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + negative;
  if (magnitude > limit)
    throw NetlistError(what + ": value " + text + " is outside the 64-bit signed range");
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

double parseReal(const std::string& text, const std::string& what) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last)
    throw NetlistError(what + ": bad real '" + text + "'");
  return v;
}

BitVec parseBits(const std::string& text, unsigned width, const std::string& what) {
  if (!isHexToken(text)) {
    const std::uint64_t v = parseU64(text, what);
    if (width < 64 && (v >> width) != 0)
      throw NetlistError(what + ": value '" + text + "' wider than " +
                         std::to_string(width) + " bits");
    return BitVec(width, v);
  }
  BitVec v(width);
  const std::string digits = text.substr(2);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const unsigned nib = hexNibble(digits[digits.size() - 1 - i], what);
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned pos = static_cast<unsigned>(4 * i + b);
      if ((nib >> b) & 1) {
        if (pos >= width)
          throw NetlistError(what + ": value '" + text + "' wider than " +
                             std::to_string(width) + " bits");
        v.setBit(pos, true);
      }
    }
  }
  return v;
}

std::string realToken(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  ESL_CHECK(ec == std::errc{}, "realToken: value not serializable");
  return std::string(buf, ptr);
}

Params& Params::set(const std::string& key, std::string value) {
  for (auto& [k, v] : kv_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  kv_.emplace_back(key, std::move(value));
  return *this;
}

Params& Params::setU64(const std::string& key, std::uint64_t v) {
  return set(key, std::to_string(v));
}

Params& Params::setI64(const std::string& key, std::int64_t v) {
  return set(key, std::to_string(v));
}

Params& Params::setReal(const std::string& key, double v) {
  return set(key, realToken(v));
}

Params& Params::setBits(const std::string& key, const BitVec& v) {
  return set(key, v.toHex());
}

Params& Params::setU64List(const std::string& key,
                           const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return set(key, std::move(s));
}

Params& Params::setBitsList(const std::string& key, const std::vector<BitVec>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += v[i].toHex();
  }
  return set(key, std::move(s));
}

const std::string* Params::find(const std::string& key) const {
  if (read_.size() != kv_.size()) read_.resize(kv_.size(), false);
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      read_[i] = true;
      return &kv_[i].second;
    }
  }
  return nullptr;
}

bool Params::has(const std::string& key) const { return find(key) != nullptr; }

std::string Params::str(const std::string& key) const {
  const std::string* v = find(key);
  if (v == nullptr) throw NetlistError("missing attribute '" + key + "'");
  return *v;
}

std::string Params::str(const std::string& key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

std::uint64_t Params::u64(const std::string& key) const {
  return parseU64(str(key), "attribute '" + key + "'");
}

std::uint64_t Params::u64(const std::string& key, std::uint64_t fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : parseU64(*v, "attribute '" + key + "'");
}

unsigned Params::u32(const std::string& key) const {
  return parseU32(str(key), "attribute '" + key + "'");
}

unsigned Params::u32(const std::string& key, unsigned fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : parseU32(*v, "attribute '" + key + "'");
}

std::int64_t Params::i64(const std::string& key, std::int64_t fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : parseI64(*v, "attribute '" + key + "'");
}

double Params::real(const std::string& key, double fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : parseReal(*v, "attribute '" + key + "'");
}

BitVec Params::bits(const std::string& key, unsigned width) const {
  return parseBits(str(key), width, "attribute '" + key + "'");
}

std::vector<std::string> Params::splitList(const std::string& value) {
  std::vector<std::string> out;
  if (value.empty()) return out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    out.push_back(value.substr(start, comma - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

std::vector<std::uint64_t> Params::u64List(const std::string& key) const {
  std::vector<std::uint64_t> out;
  for (const std::string& item : splitList(str(key, "")))
    out.push_back(parseU64(item, "attribute '" + key + "'"));
  return out;
}

std::vector<unsigned> Params::u32List(const std::string& key) const {
  std::vector<unsigned> out;
  for (const std::string& item : splitList(str(key, "")))
    out.push_back(parseU32(item, "attribute '" + key + "'"));
  return out;
}

std::vector<BitVec> Params::bitsList(const std::string& key, unsigned width) const {
  std::vector<BitVec> out;
  for (const std::string& item : splitList(str(key, "")))
    out.push_back(parseBits(item, width, "attribute '" + key + "'"));
  return out;
}

void Params::checkConsumed(const std::string& context) const {
  if (read_.size() != kv_.size()) read_.resize(kv_.size(), false);
  std::string unknown;
  for (std::size_t i = 0; i < kv_.size(); ++i)
    if (!read_[i]) unknown += (unknown.empty() ? "" : ", ") + kv_[i].first;
  if (!unknown.empty())
    throw NetlistError(context + ": unknown attribute(s): " + unknown);
}

void Params::consumePrefix(const std::string& prefix) const {
  if (read_.size() != kv_.size()) read_.resize(kv_.size(), false);
  for (std::size_t i = 0; i < kv_.size(); ++i)
    if (kv_[i].first.rfind(prefix, 0) == 0) read_[i] = true;
}

}  // namespace esl
