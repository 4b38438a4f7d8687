#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/executor.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "serve/protocol.h"

namespace esl::serve {

namespace {

std::string requiredString(const json::Value& head, const std::string& key) {
  const json::Value* v = head.find(key);
  ESL_CHECK(v != nullptr && v->isString(), "request needs a string '" + key + "'");
  return v->asString();
}

std::uint64_t requiredU64(const json::Value& head, const std::string& key) {
  const json::Value* v = head.find(key);
  ESL_CHECK(v != nullptr, "request needs a number '" + key + "'");
  return v->asU64();
}

SimSession::Options sessionOptions(const json::Value& head) {
  SimSession::Options opts;
  if (const json::Value* v = head.find("backend")) {
    const std::string& b = v->asString();
    if (b == "compiled")
      opts.backend = SimContext::Backend::kCompiled;
    else
      ESL_CHECK(b == "interpreted", "unknown backend '" + b + "'");
  }
  if (const json::Value* v = head.find("shards")) {
    Executor::checkLaneCount(v->asU64(), "shard count");
    opts.shards = static_cast<unsigned>(v->asU64());
  }
  if (const json::Value* v = head.find("seed")) opts.seed = v->asU64();
  if (const json::Value* v = head.find("check")) opts.checkProtocol = v->asBool();
  if (const json::Value* v = head.find("cross-check"))
    opts.crossCheck = v->asBool();
  return opts;
}

json::Value okHead(std::uint64_t id) {
  json::Value head = json::Value::object();
  head.set("id", json::Value::number(id));
  head.set("ok", json::Value::boolean(true));
  return head;
}

}  // namespace

Server::Server(Config config)
    : config_(std::move(config)), service_(config_.service) {
  ESL_CHECK(!config_.socketPath.empty(), "serve needs a socket path");
  ESL_CHECK(config_.socketPath.size() < sizeof(sockaddr_un{}.sun_path),
            "socket path too long: '" + config_.socketPath + "'");
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ESL_CHECK(listenFd_ >= 0,
            std::string("cannot create socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socketPath.c_str(),
               sizeof(addr.sun_path) - 1);
  std::remove(config_.socketPath.c_str());  // stale socket from a dead daemon
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
          0 ||
      ::listen(listenFd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw EslError("cannot listen on '" + config_.socketPath + "': " + why);
  }
}

Server::~Server() {
  requestStop();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  if (listenFd_ >= 0) ::close(listenFd_);
  std::remove(config_.socketPath.c_str());
}

void Server::requestStop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Unblock the accept loop; run() does the session/connection teardown.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
}

void Server::requestDrainStop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    drainOnStop_ = true;
  }
  requestStop();
}

void Server::run() {
  while (true) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (requestStop) or failed
    }
    std::lock_guard<std::mutex> lk(m_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    connFds_.push_back(fd);
    threads_.emplace_back([this, fd] { handleConnection(fd); });
  }
  bool drain = false;
  {
    std::lock_guard<std::mutex> lk(m_);
    drain = drainOnStop_;
  }
  if (drain) {
    // SIGTERM path: abort in-flight steps at quantum boundaries (handlers
    // get structured "draining" errors) and spool every resident session so
    // a restart on the same spool directory re-attaches them all.
    try {
      const std::size_t n = service_.drainAndSpool();
      std::fprintf(stderr, "esl serve: drained %zu session(s) to spool\n", n);
      std::fflush(stderr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "esl serve: drain failed: %s\n", e.what());
      std::fflush(stderr);
    }
  } else {
    // Closing every session aborts in-flight steps at quantum boundaries and
    // fails queued ops, so no handler thread stays blocked inside the service.
    for (const std::string& sid : service_.sessionIds()) {
      try {
        service_.close(sid);
      } catch (const NotFoundError&) {
        // a client closed it concurrently
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(m_);
    for (const int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
  threads_.clear();
}

Frame Server::dispatch(const Frame& request, bool& helloDone,
                       bool& wantShutdown) {
  const json::Value* idField = request.head.find("id");
  const bool hasId = idField != nullptr;
  const std::uint64_t id = hasId ? idField->asU64() : 0;
  try {
    const std::string op = requiredString(request.head, "op");
    ESL_CHECK(hasId, "request needs an 'id'");
    if (!helloDone && op != "hello")
      throw ProtocolError("first request must be 'hello' (protocol version " +
                          std::to_string(kProtocolVersion) + ")");
    Frame reply;
    reply.head = okHead(id);

    if (op == "hello") {
      const std::uint64_t proto = requiredU64(request.head, "proto");
      if (proto != kProtocolVersion)
        throw ProtocolError("protocol version mismatch: client speaks " +
                            std::to_string(proto) + ", server speaks " +
                            std::to_string(kProtocolVersion));
      helloDone = true;
      reply.head.set("proto", json::Value::number(kProtocolVersion));
      return reply;
    }
    if (op == "stats") {
      const Service::Stats s = service_.stats();
      reply.head.set("sessions", json::Value::number(s.sessions));
      reply.head.set("resident", json::Value::number(s.resident));
      reply.head.set("peak-resident", json::Value::number(s.peakResident));
      reply.head.set("opened", json::Value::number(s.opened));
      reply.head.set("evictions", json::Value::number(s.evictions));
      reply.head.set("restores", json::Value::number(s.restores));
      reply.head.set("denied", json::Value::number(s.denied));
      reply.head.set("ops", json::Value::number(s.ops));
      reply.head.set("recovered", json::Value::number(s.recovered));
      reply.head.set("quarantined", json::Value::number(s.quarantined));
      return reply;
    }
    if (op == "shutdown") {
      wantShutdown = true;
      return reply;
    }

    const std::string sid = requiredString(request.head, "session");
    if (op == "open") {
      NetlistSpec spec;
      std::string origin;
      if (request.head.find("bytes") != nullptr) {
        // Inline `.esl` body in the payload block.
        origin = "<" + sid + ">";
        if (const json::Value* o = request.head.find("origin"))
          origin = o->asString();
        spec = frontend::parseEsl(request.payload, origin);
      } else {
        origin = requiredString(request.head, "design");
        spec = patterns::designSpec(origin);
      }
      reply.head.set("text", json::Value::str(service_.open(
                                 sid, std::move(spec), origin,
                                 sessionOptions(request.head))));
      return reply;
    }
    if (op == "cmd") {
      const std::string line = requiredString(request.head, "line");
      reply.head.set("text", json::Value::str(service_.command(sid, line)));
      return reply;
    }
    if (op == "step") {
      const std::uint64_t cycles = requiredU64(request.head, "cycles");
      std::uint64_t cycle = 0;
      reply.head.set("text",
                     json::Value::str(service_.step(sid, cycles, &cycle)));
      reply.head.set("cycle", json::Value::number(cycle));
      return reply;
    }
    if (op == "query") {
      const std::string what = requiredString(request.head, "what");
      if (what == "sinks") {
        reply.head.set("text", json::Value::str(service_.sinks(sid)));
      } else if (what == "tput") {
        reply.head.set(
            "text", json::Value::str(service_.tput(
                        sid, requiredString(request.head, "channel"))));
      } else if (what == "cycle") {
        reply.head.set("cycle", json::Value::number(service_.cycle(sid)));
      } else {
        throw EslError("unknown query '" + what + "' (sinks|tput|cycle)");
      }
      return reply;
    }
    if (op == "snapshot") {
      std::uint64_t cycle = 0;
      const std::vector<std::uint8_t> bytes = service_.snapshot(sid, &cycle);
      reply.head.set("cycle", json::Value::number(cycle));
      reply.payload.assign(bytes.begin(), bytes.end());
      return reply;
    }
    if (op == "restore") {
      ESL_CHECK(request.head.find("bytes") != nullptr,
                "restore needs a snapshot payload");
      std::uint64_t cycle = 0;
      service_.restore(sid,
                       std::vector<std::uint8_t>(request.payload.begin(),
                                                 request.payload.end()),
                       &cycle);
      reply.head.set("cycle", json::Value::number(cycle));
      return reply;
    }
    if (op == "watch") {
      std::vector<std::string> channels;
      if (const json::Value* chs = request.head.find("channels"))
        for (const json::Value& ch : chs->items())
          channels.push_back(ch.asString());
      service_.watch(sid, std::move(channels));
      return reply;
    }
    if (op == "drain") {
      std::uint64_t maxBytes = 1 << 20;
      if (const json::Value* m = request.head.find("max")) maxBytes = m->asU64();
      bool more = false;
      reply.payload =
          service_.drain(sid, static_cast<std::size_t>(maxBytes), &more);
      reply.head.set("more", json::Value::boolean(more));
      return reply;
    }
    if (op == "close") {
      service_.close(sid);
      return reply;
    }
    throw EslError("unknown op '" + op + "'");
  } catch (const std::exception& e) {
    Frame reply;
    reply.head = errorHead(hasId, id, errorKind(e), e.what());
    return reply;
  }
}

void Server::handleConnection(int fd) {
  try {
    writeFrame(fd, greetingHead());
    FrameReader reader(fd, config_.maxPayloadBytes);
    Frame request;
    bool helloDone = false;
    bool wantShutdown = false;
    while (reader.read(request)) {
      const Frame reply = dispatch(request, helloDone, wantShutdown);
      writeFrame(fd, reply.head, reply.payload);
      if (!helloDone) break;  // failed handshake: answer, then hang up
      if (wantShutdown) {
        requestStop();
        break;
      }
    }
  } catch (const std::exception& e) {
    // Framing/IO damage: best-effort error frame, then drop the connection.
    try {
      writeFrame(fd, errorHead(false, 0, errorKind(e), e.what()));
    } catch (...) {
    }
  }
  ::close(fd);
}

}  // namespace esl::serve
