// The serve wire protocol: newline-delimited JSON frames over a local socket.
//
// Every frame is one line of compact JSON (the head). A head carrying a
// "bytes": N field is followed by exactly N raw payload bytes and then one
// mandatory '\n' — that is how `.esl` design text, snapshots and drained
// trace streams travel without any escaping (and why payload sizes cannot be
// smuggled: the JSON parser rejects duplicate keys, the reader trusts only
// the declared length).
//
// Connection lifecycle: the server greets with {"serve":"esl","proto":V};
// the client's first request must be {"op":"hello","proto":V} with the same
// version, else the server answers an error frame and hangs up. After the
// handshake, requests carry a client-chosen "id" echoed in the response:
//   {"id":3,"op":"step","session":"s1","cycles":1000}
//   {"id":3,"ok":true,"text":"sink 'snk': 994 transfers\n...","cycle":1000}
// Failures map esl exception types onto stable error kinds:
//   {"id":3,"ok":false,"error":{"kind":"not-found","message":"no session 's1'"}}
#pragma once

#include <string>

#include "base/error.h"
#include "serve/json.h"

namespace esl::serve {

inline constexpr std::uint64_t kProtocolVersion = 1;
/// Default payload cap (a corrupt length must not allocate the moon). Frames
/// declaring more bytes than the reader's cap are rejected before any
/// allocation happens.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

/// A read deadline expired (SO_RCVTIMEO on the client socket). Distinct from
/// ProtocolError so callers can map it to its own exit code.
class TimeoutError : public EslError {
 public:
  using EslError::EslError;
};

/// One frame: the JSON head plus the optional raw payload block.
struct Frame {
  json::Value head;
  std::string payload;
};

/// Buffered frame reader over a socket/pipe fd (fd stays owned by the caller).
class FrameReader {
 public:
  explicit FrameReader(int fd, std::uint64_t maxPayload = kMaxPayloadBytes)
      : fd_(fd), maxPayload_(maxPayload) {}

  /// Reads one frame. Returns false on clean EOF at a frame boundary; throws
  /// ProtocolError on mid-frame EOF, oversized payloads or framing damage,
  /// ParseError on malformed head JSON, TimeoutError when the fd's receive
  /// deadline expires.
  bool read(Frame& out);

 private:
  bool fillSome();  ///< false on EOF

  int fd_;
  std::uint64_t maxPayload_;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// Writes one frame (appending "bytes" to the head when `payload` is
/// non-empty). Loops over partial writes; throws ProtocolError on error.
void writeFrame(int fd, json::Value head, const std::string& payload = {});

/// The server's greeting head.
json::Value greetingHead();

/// Stable protocol error kind for an exception (maps the esl::Error
/// hierarchy; anything unknown is "internal").
std::string errorKind(const std::exception& e);

/// Throws a new exception of the class errorKind() maps to `kind`, carrying
/// `message` (EslError for "error" and for a kind it does not name).
[[noreturn]] void throwKind(const std::string& kind, const std::string& message);

/// Builds {"id":id,"ok":false,"error":{...}} (id omitted when `hasId` false).
json::Value errorHead(bool hasId, std::uint64_t id, const std::string& kind,
                      const std::string& message);

}  // namespace esl::serve
