#include "elastic/params.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "base/error.h"

namespace esl {

namespace {

bool isHexToken(std::string_view s) {
  return s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
}

// The parsers below take `what`, a callable that builds the error context;
// it runs only when a value is refused.

template <typename What>
unsigned hexNibble(char c, const What& what) {
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  throw NetlistError(what() + ": bad hex digit '" + std::string(1, c) + "'");
}

template <typename What>
std::uint64_t toU64(std::string_view text, const What& what) {
  if (text.empty()) throw NetlistError(what() + ": empty number");
  std::uint64_t v = 0;
  const bool hex = isHexToken(text);
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != last)
    throw NetlistError(what() + ": bad number '" + std::string(text) + "'");
  return v;
}

template <typename What>
std::uint32_t toU32(std::string_view text, const What& what) {
  constexpr std::uint32_t kMax = ~std::uint32_t{0};
  const std::uint64_t v = toU64(text, what);
  if (v > kMax)
    throw NetlistError(what() + ": value " + std::string(text) +
                       " is above the limit of " + std::to_string(kMax));
  return static_cast<std::uint32_t>(v);
}

template <typename What>
std::int64_t toI64(std::string_view text, const What& what) {
  const bool negative = !text.empty() && text[0] == '-';
  const std::uint64_t magnitude = toU64(text.substr(negative ? 1 : 0), what);
  // INT64_MIN's magnitude is one more than INT64_MAX's.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + negative;
  if (magnitude > limit)
    throw NetlistError(what() + ": value " + std::string(text) +
                       " is outside the 64-bit signed range");
  return negative ? static_cast<std::int64_t>(0 - magnitude)
                  : static_cast<std::int64_t>(magnitude);
}

template <typename What>
double toReal(std::string_view text, const What& what) {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (text.empty() || ec != std::errc{} || ptr != last)
    throw NetlistError(what() + ": bad real '" + std::string(text) + "'");
  return v;
}

template <typename What>
BitVec toBits(std::string_view text, unsigned width, const What& what) {
  const auto tooWide = [&] {
    return NetlistError(what() + ": value '" + std::string(text) + "' wider than " +
                        std::to_string(width) + " bits");
  };
  if (!isHexToken(text)) {
    const std::uint64_t v = toU64(text, what);
    if (width < 64 && (v >> width) != 0) throw tooWide();
    return BitVec(width, v);
  }
  BitVec v(width);
  const std::string_view digits = text.substr(2);
  for (std::size_t i = 0; i < digits.size(); ++i) {
    const unsigned nib = hexNibble(digits[digits.size() - 1 - i], what);
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned pos = static_cast<unsigned>(4 * i + b);
      if ((nib >> b) & 1) {
        if (pos >= width) throw tooWide();
        v.setBit(pos, true);
      }
    }
  }
  return v;
}

/// Names attribute `key` in an error.
struct Attribute {
  std::string_view key;
  std::string operator()() const { return "attribute '" + std::string(key) + "'"; }
};

/// Calls `f` on each comma-separated item of `value` ("" has none).
template <typename F>
void forEachItem(std::string_view value, F&& f) {
  if (value.empty()) return;
  for (;;) {
    const std::size_t comma = value.find(',');
    f(value.substr(0, comma));
    if (comma == std::string_view::npos) return;
    value.remove_prefix(comma + 1);
  }
}

}  // namespace

std::uint64_t parseU64(std::string_view text, const std::string& what) {
  return toU64(text, [&] { return what; });
}

std::uint32_t parseU32(std::string_view text, const std::string& what) {
  return toU32(text, [&] { return what; });
}

std::int64_t parseI64(std::string_view text, const std::string& what) {
  return toI64(text, [&] { return what; });
}

double parseReal(std::string_view text, const std::string& what) {
  return toReal(text, [&] { return what; });
}

BitVec parseBits(std::string_view text, unsigned width, const std::string& what) {
  return toBits(text, width, [&] { return what; });
}

std::string realToken(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  ESL_CHECK(ec == std::errc{}, "realToken: value not serializable");
  return std::string(buf, ptr);
}

Params& Params::set(std::string key, std::string value) {
  for (auto& [k, v] : kv_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  kv_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Params& Params::setU64(std::string key, std::uint64_t v) {
  return set(std::move(key), std::to_string(v));
}

Params& Params::setI64(std::string key, std::int64_t v) {
  return set(std::move(key), std::to_string(v));
}

Params& Params::setReal(std::string key, double v) {
  return set(std::move(key), realToken(v));
}

Params& Params::setBits(std::string key, const BitVec& v) {
  return set(std::move(key), v.toHex());
}

Params& Params::setU64List(std::string key, const std::vector<std::uint64_t>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return set(std::move(key), std::move(s));
}

Params& Params::setBitsList(std::string key, const std::vector<BitVec>& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += v[i].toHex();
  }
  return set(std::move(key), std::move(s));
}

const std::string* Params::find(std::string_view key) const {
  if (read_.size() != kv_.size()) read_.resize(kv_.size(), false);
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (kv_[i].first == key) {
      read_[i] = true;
      return &kv_[i].second;
    }
  }
  return nullptr;
}

const std::string& Params::require(std::string_view key) const {
  const std::string* v = find(key);
  if (v == nullptr)
    throw NetlistError("missing attribute '" + std::string(key) + "'");
  return *v;
}

bool Params::has(std::string_view key) const { return find(key) != nullptr; }

const std::string& Params::str(std::string_view key) const { return require(key); }

std::string Params::str(std::string_view key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

std::uint64_t Params::u64(std::string_view key) const {
  return toU64(require(key), Attribute{key});
}

std::uint64_t Params::u64(std::string_view key, std::uint64_t fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : toU64(*v, Attribute{key});
}

unsigned Params::u32(std::string_view key) const {
  return toU32(require(key), Attribute{key});
}

unsigned Params::u32(std::string_view key, unsigned fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : toU32(*v, Attribute{key});
}

std::int64_t Params::i64(std::string_view key, std::int64_t fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : toI64(*v, Attribute{key});
}

double Params::real(std::string_view key, double fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : toReal(*v, Attribute{key});
}

BitVec Params::bits(std::string_view key, unsigned width) const {
  return toBits(require(key), width, Attribute{key});
}

std::vector<std::uint64_t> Params::u64List(std::string_view key) const {
  std::vector<std::uint64_t> out;
  if (const std::string* v = find(key))
    forEachItem(*v, [&](std::string_view item) {
      out.push_back(toU64(item, Attribute{key}));
    });
  return out;
}

std::vector<unsigned> Params::u32List(std::string_view key) const {
  std::vector<unsigned> out;
  if (const std::string* v = find(key))
    forEachItem(*v, [&](std::string_view item) {
      out.push_back(toU32(item, Attribute{key}));
    });
  return out;
}

std::vector<BitVec> Params::bitsList(std::string_view key, unsigned width) const {
  std::vector<BitVec> out;
  if (const std::string* v = find(key))
    forEachItem(*v, [&](std::string_view item) {
      out.push_back(toBits(item, width, Attribute{key}));
    });
  return out;
}

std::string Params::unconsumed() const {
  std::string unknown;
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    if (i < read_.size() && read_[i]) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += kv_[i].first;
  }
  return unknown;
}

}  // namespace esl
