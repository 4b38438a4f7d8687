// Minimal JSON value for the serve wire protocol (src/serve/protocol.h).
//
// The daemon speaks newline-delimited JSON; this is the self-contained
// parser/printer behind it — strict RFC-8259 subset, objects kept as ordered
// key/value vectors so printed requests and responses are deterministic
// byte-for-byte (the serve determinism gate diffs whole transcripts).
// Numbers are IEEE doubles; the protocol keeps every integer field (ids,
// cycle counts, payload sizes) below 2^53 so the round-trip is exact.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace esl::serve::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  static Value boolean(bool b);
  static Value number(double n);
  static Value number(std::uint64_t n);
  static Value str(std::string s);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool isBool() const { return kind_ == Kind::kBool; }
  bool isNumber() const { return kind_ == Kind::kNumber; }
  bool isString() const { return kind_ == Kind::kString; }
  bool isArray() const { return kind_ == Kind::kArray; }
  bool isObject() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw EslError on kind mismatch.
  bool asBool() const;
  double asNumber() const;
  /// Non-negative integer below 2^53 (protocol counters); throws otherwise.
  std::uint64_t asU64() const;
  const std::string& asString() const;
  const std::vector<Value>& items() const;
  std::vector<Value>& items();
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Object helpers. find returns nullptr when absent (or not an object);
  /// set appends or replaces in place, preserving insertion order.
  const Value* find(const std::string& key) const;
  void set(const std::string& key, Value v);
  void push(Value v);  ///< array append

  /// Compact single-line text (no spaces — one request/response per line).
  std::string dump() const;
  /// Strict parse of exactly one JSON document (trailing junk rejected);
  /// throws ParseError with `origin` in the message.
  static Value parse(const std::string& text,
                     const std::string& origin = "<json>");

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

}  // namespace esl::serve::json
