// Error types used across the elastic-systems library.
//
// Configuration/usage errors throw; internal invariant violations are funneled
// through EslError subclasses as well so tests can assert on them.
#pragma once

#include <stdexcept>
#include <string>

namespace esl {

/// Root of the library's exception hierarchy.
class EslError : public std::runtime_error {
 public:
  explicit EslError(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed netlist / node configuration (bad port arity, dangling channel...).
class NetlistError : public EslError {
 public:
  explicit NetlistError(const std::string& what) : EslError(what) {}
};

/// The combinational network did not stabilize (combinational cycle in control).
class CombinationalCycleError : public EslError {
 public:
  explicit CombinationalCycleError(const std::string& what) : EslError(what) {}
};

/// SELF protocol violation observed during simulation (kill & stop overlap, ...).
class ProtocolError : public EslError {
 public:
  explicit ProtocolError(const std::string& what) : EslError(what) {}
};

/// Transformation precondition failed (e.g. Shannon on a non-mux node).
class TransformError : public EslError {
 public:
  explicit TransformError(const std::string& what) : EslError(what) {}
};

/// Internal invariant violation; indicates a library bug, not a user error.
class InternalError : public EslError {
 public:
  explicit InternalError(const std::string& what) : EslError(what) {}
};

/// Syntax error in a textual `.esl` netlist (src/frontend); the message
/// carries file name and line number.
class ParseError : public EslError {
 public:
  explicit ParseError(const std::string& what) : EslError(what) {}
};

namespace detail {
[[noreturn]] void throwInternal(const char* cond, const char* file, int line);
[[noreturn]] void throwCheck(const std::string& msg);
}  // namespace detail

}  // namespace esl

/// Internal invariant; throws InternalError so the condition is testable.
#define ESL_ASSERT(cond)                                          \
  do {                                                            \
    if (!(cond)) ::esl::detail::throwInternal(#cond, __FILE__, __LINE__); \
  } while (false)

/// User-facing precondition: throws EslError carrying `msg` alone (a user
/// reads it, so it names no source location).
#define ESL_CHECK(cond, msg)                       \
  do {                                             \
    if (!(cond)) ::esl::detail::throwCheck((msg)); \
  } while (false)
