#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/error.h"
#include "serve/service.h"

namespace esl::serve {

bool FrameReader::fillSome() {
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw TimeoutError("timed out waiting for a reply");
    throw ProtocolError(std::string("socket read failed: ") + std::strerror(errno));
  }
}

bool FrameReader::read(Frame& out) {
  // Head line.
  std::size_t nl;
  while ((nl = buf_.find('\n', pos_)) == std::string::npos) {
    if (buf_.size() - pos_ > maxPayload_)
      throw ProtocolError("frame head exceeds the payload cap without a newline");
    if (!fillSome()) {
      if (pos_ == buf_.size()) return false;  // clean EOF at a boundary
      throw ProtocolError("connection closed mid-frame");
    }
  }
  const std::string line = buf_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  out.head = json::Value::parse(line, "<frame>");
  out.payload.clear();

  // Optional payload block: "bytes": N raw bytes, then one '\n'.
  if (const json::Value* bytes = out.head.find("bytes")) {
    const std::uint64_t n = bytes->asU64();
    // Reject before any buffer grows: an absurd declared length (garbage or
    // hostile) must cost nothing and hang nothing.
    if (n > maxPayload_)
      throw ProtocolError("payload of " + std::to_string(n) +
                          " bytes exceeds the cap of " +
                          std::to_string(maxPayload_));
    while (buf_.size() - pos_ < n + 1) {
      if (!fillSome()) throw ProtocolError("connection closed mid-payload");
    }
    out.payload = buf_.substr(pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    if (buf_[pos_] != '\n')
      throw ProtocolError("payload block is not newline-terminated");
    ++pos_;
  }

  // Keep the buffer from growing without bound across frames.
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

namespace {

void writeAll(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer hanging up mid-write must surface as EPIPE here,
    // not kill the daemon with SIGPIPE. Non-socket fds fall back to write().
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(std::string("socket write failed: ") +
                          std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

void writeFrame(int fd, json::Value head, const std::string& payload) {
  if (!payload.empty()) head.set("bytes", json::Value::number(payload.size()));
  std::string wire = head.dump();
  wire += '\n';
  if (!payload.empty()) {
    wire += payload;
    wire += '\n';
  }
  writeAll(fd, wire.data(), wire.size());
}

json::Value greetingHead() {
  json::Value head = json::Value::object();
  head.set("serve", json::Value::str("esl"));
  head.set("proto", json::Value::number(kProtocolVersion));
  return head;
}

std::string errorKind(const std::exception& e) {
  // Most-derived first: the serve kinds, then the frontend/base hierarchy.
  if (dynamic_cast<const NotFoundError*>(&e) != nullptr) return "not-found";
  if (dynamic_cast<const AdmissionError*>(&e) != nullptr) return "admission";
  if (dynamic_cast<const DrainingError*>(&e) != nullptr) return "draining";
  if (dynamic_cast<const TimeoutError*>(&e) != nullptr) return "timeout";
  if (dynamic_cast<const ParseError*>(&e) != nullptr) return "parse";
  if (dynamic_cast<const ProtocolError*>(&e) != nullptr) return "protocol";
  if (dynamic_cast<const TransformError*>(&e) != nullptr) return "transform";
  if (dynamic_cast<const CombinationalCycleError*>(&e) != nullptr)
    return "comb-cycle";
  if (dynamic_cast<const NetlistError*>(&e) != nullptr) return "netlist";
  if (dynamic_cast<const InternalError*>(&e) != nullptr) return "internal";
  if (dynamic_cast<const EslError*>(&e) != nullptr) return "error";
  return "internal";
}

void throwKind(const std::string& kind, const std::string& message) {
  if (kind == "not-found") throw NotFoundError(message);
  if (kind == "admission") throw AdmissionError(message);
  if (kind == "draining") throw DrainingError(message);
  if (kind == "timeout") throw TimeoutError(message);
  if (kind == "parse") throw ParseError(message);
  if (kind == "protocol") throw ProtocolError(message);
  if (kind == "transform") throw TransformError(message);
  if (kind == "comb-cycle") throw CombinationalCycleError(message);
  if (kind == "netlist") throw NetlistError(message);
  if (kind == "internal") throw InternalError(message);
  throw EslError(message);
}

json::Value errorHead(bool hasId, std::uint64_t id, const std::string& kind,
                      const std::string& message) {
  json::Value err = json::Value::object();
  err.set("kind", json::Value::str(kind));
  err.set("message", json::Value::str(message));
  json::Value head = json::Value::object();
  if (hasId) head.set("id", json::Value::number(id));
  head.set("ok", json::Value::boolean(false));
  head.set("error", std::move(err));
  return head;
}

}  // namespace esl::serve
