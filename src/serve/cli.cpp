#include "serve/cli.h"

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/executor.h"
#include "elastic/params.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/state_file.h"

namespace esl::serve {

namespace {

int serveUsage() {
  std::cerr
      << "usage: esl serve --socket PATH [options]\n"
      << "  --socket PATH      Unix socket to listen on (required)\n"
      << "  --workers N        executor lanes (default: hardware threads)\n"
      << "  --max-resident N   resident session cap before LRU eviction\n"
      << "  --quantum N        max step cycles per scheduler turn\n"
      << "  --high-water N     stream outbox bytes before a session parks\n"
      << "  --spool-dir PATH   eviction spool directory (default: temp dir);\n"
      << "                     a persistent dir is recovered on startup and\n"
      << "                     drained to on SIGTERM/SIGINT\n"
      << "  --durable          checkpoint each session after every completed\n"
      << "                     op (needs --spool-dir); crash loses at most\n"
      << "                     the op in flight\n"
      << "  --max-payload N    per-frame payload cap in bytes\n";
  return 1;
}

int clientUsage() {
  std::cerr
      << "usage: esl client --socket PATH [options] [script.txt]\n"
      << "  --timeout MS       per-reply receive deadline (default: none)\n"
      << "  --retries N        extra connect attempts with backoff\n"
      << "  --backoff MS       first retry delay, doubling (default: 100)\n"
      << "reads commands from script.txt (or stdin), one per line:\n"
      << "  open SID DESIGN [compiled] [shards N] [seed N] [no-check]\n"
      << "  open-esl SID FILE.esl [compiled] [shards N] [seed N] [no-check]\n"
      << "  cmd SID COMMAND...     run a shell command in the session\n"
      << "  step SID N             advance N cycles, print the run report\n"
      << "  sinks SID | tput SID CHANNEL | cycle SID\n"
      << "  snapshot SID FILE | restore SID FILE\n"
      << "  watch SID [CHANNEL...] | drain SID\n"
      << "  close SID | stats | shutdown\n"
      << "exit codes: 0 ok, 1 usage, 2 server-reported error,\n"
      << "            3 cannot connect, 4 reply timeout, 5 connection lost\n";
  return 1;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string t;
  while (is >> t) tokens.push_back(t);
  return tokens;
}

/// Trailing [compiled] [shards N] [seed N] [no-check] option words.
SimSession::Options parseOptionWords(const std::vector<std::string>& t,
                                     std::size_t from) {
  SimSession::Options opts;
  for (std::size_t i = from; i < t.size(); ++i) {
    if (t[i] == "compiled") {
      opts.backend = SimContext::Backend::kCompiled;
    } else if (t[i] == "interpreted") {
      opts.backend = SimContext::Backend::kInterpreted;
    } else if (t[i] == "no-check") {
      opts.checkProtocol = false;
    } else if (t[i] == "cross-check") {
      opts.crossCheck = true;
    } else if (t[i] == "shards" && i + 1 < t.size()) {
      opts.shards = Executor::checkLaneCount(parseU64(t[++i], "shards"), "shards");
    } else if (t[i] == "seed" && i + 1 < t.size()) {
      opts.seed = parseU64(t[++i], "seed");
    } else {
      throw EslError("unknown open option '" + t[i] + "'");
    }
  }
  return opts;
}

std::string readWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ESL_CHECK(static_cast<bool>(in), "cannot read '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Executes one client-script line; returns false on `shutdown` (end of
/// script: the server is gone).
bool clientLine(Client& client, const std::string& line) {
  const std::vector<std::string> t = tokenize(line);
  if (t.empty() || t[0][0] == '#') return true;
  const std::string& verb = t[0];
  const auto arg = [&](std::size_t i) -> const std::string& {
    ESL_CHECK(i < t.size(), "'" + verb + "' needs more arguments");
    return t[i];
  };
  if (verb == "open") {
    std::cerr << client.openDesign(arg(1), arg(2), parseOptionWords(t, 3));
  } else if (verb == "open-esl") {
    std::cerr << client.openEsl(arg(1), readWholeFile(arg(2)), arg(2),
                                parseOptionWords(t, 3));
  } else if (verb == "cmd") {
    // The command is everything after the verb and sid tokens.
    std::size_t at = line.find_first_not_of(" \t") + verb.size();
    at = line.find_first_not_of(" \t", at) + arg(1).size();
    at = line.find_first_not_of(" \t", at);
    ESL_CHECK(at != std::string::npos, "cmd needs a command");
    std::cout << client.cmd(t[1], line.substr(at));
  } else if (verb == "step") {
    std::cout << client.step(arg(1), parseU64(arg(2), "step"));
  } else if (verb == "sinks") {
    std::cout << client.sinks(arg(1));
  } else if (verb == "tput") {
    std::cout << client.tput(arg(1), arg(2));
  } else if (verb == "cycle") {
    std::cout << client.cycle(arg(1)) << "\n";
  } else if (verb == "snapshot") {
    sim::writeFileAtomic(arg(2), client.snapshot(t[1]), "state-file-write");
    std::cerr << "snapshot of '" << t[1] << "' written to '" << t[2] << "'\n";
  } else if (verb == "restore") {
    client.restore(arg(1), sim::readFileBytes(arg(2)));
    std::cerr << "session '" << t[1] << "' restored from '" << t[2] << "'\n";
  } else if (verb == "watch") {
    client.watch(arg(1), std::vector<std::string>(t.begin() + 2, t.end()));
  } else if (verb == "drain") {
    std::cout << client.drainAll(arg(1));
  } else if (verb == "close") {
    client.close(arg(1));
  } else if (verb == "stats") {
    const json::Value s = client.stats();
    std::cout << "sessions=" << s.find("sessions")->asU64()
              << " resident=" << s.find("resident")->asU64()
              << " peak-resident=" << s.find("peak-resident")->asU64()
              << " evictions=" << s.find("evictions")->asU64()
              << " restores=" << s.find("restores")->asU64()
              << " denied=" << s.find("denied")->asU64()
              << " recovered=" << s.find("recovered")->asU64()
              << " quarantined=" << s.find("quarantined")->asU64() << "\n";
  } else if (verb == "shutdown") {
    client.shutdownServer();
    return false;
  } else {
    throw EslError("unknown client command '" + verb + "'");
  }
  return true;
}

// Write end of the shutdown self-pipe; the only thing the signal handler
// touches (write() is async-signal-safe, Server::requestDrainStop is not).
int gSignalPipeWrite = -1;

extern "C" void onTermSignal(int) {
  const char byte = 's';
  if (gSignalPipeWrite >= 0) {
    const ssize_t r = ::write(gSignalPipeWrite, &byte, 1);
    (void)r;
  }
}

}  // namespace

int serveMain(int argc, char** argv) {
  Server::Config config;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "esl serve: " << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    const auto atLeastOne = [&]() -> std::uint64_t {
      const std::uint64_t n = parseU64(value(), arg);
      if (n == 0) throw EslError(arg + " must be at least 1");
      return n;
    };
    try {
      if (arg == "--socket")
        config.socketPath = value();
      else if (arg == "--workers")
        config.service.workers = Executor::checkLaneCount(parseU64(value(), arg), arg);
      else if (arg == "--max-resident")
        config.service.maxResident = static_cast<std::size_t>(atLeastOne());
      else if (arg == "--quantum")
        config.service.quantumCycles = atLeastOne();
      else if (arg == "--high-water")
        config.service.streamHighWater = static_cast<std::size_t>(parseU64(value(), arg));
      else if (arg == "--spool-dir")
        config.service.spoolDir = value();
      else if (arg == "--durable")
        config.service.durable = true;
      else if (arg == "--max-payload")
        config.maxPayloadBytes = parseU64(value(), arg);
      else if (arg == "--help" || arg == "-h")
        return serveUsage(), 0;
      else
        return std::cerr << "esl serve: unknown option " << arg << "\n",
               serveUsage();
    } catch (const std::exception& e) {
      std::cerr << "esl serve: " << e.what() << "\n";
      return 1;
    }
  }
  if (config.socketPath.empty()) return serveUsage();
  const bool persistentSpool = !config.service.spoolDir.empty();
  try {
    Server server(std::move(config));

    // SIGTERM/SIGINT ride a self-pipe: the handler writes one byte, a
    // watcher thread turns it into a graceful drain-stop (spooling every
    // resident session when the spool dir is persistent).
    int pipeFds[2];
    ESL_CHECK(::pipe(pipeFds) == 0, "cannot create the signal pipe");
    gSignalPipeWrite = pipeFds[1];
    struct sigaction sa {};
    sa.sa_handler = onTermSignal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    std::thread watcher([&server, persistentSpool, readFd = pipeFds[0]] {
      char byte = 0;
      while (::read(readFd, &byte, 1) == 1) {
        if (byte != 's') return;  // 'q' from main: run() already returned
        std::cerr << "esl serve: signal received, "
                  << (persistentSpool ? "draining sessions to spool\n"
                                      : "shutting down\n");
        if (persistentSpool)
          server.requestDrainStop();
        else
          server.requestStop();
      }
    });

    // The smoke/bench harnesses wait for this line before connecting.
    std::cout << "esl serve: listening on " << server.socketPath() << std::endl;
    server.run();

    const char quit = 'q';
    const ssize_t r = ::write(pipeFds[1], &quit, 1);
    (void)r;
    watcher.join();
    gSignalPipeWrite = -1;
    ::close(pipeFds[0]);
    ::close(pipeFds[1]);
  } catch (const std::exception& e) {
    std::cerr << "esl serve: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int clientMain(int argc, char** argv) {
  std::string socketPath, scriptPath;
  Client::Options options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "esl client: " << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    try {
      if (arg == "--socket") {
        socketPath = value();
      } else if (arg == "--timeout") {
        options.timeoutMs = parseU64(value(), arg);
      } else if (arg == "--retries") {
        options.retries = parseU32(value(), arg);
      } else if (arg == "--backoff") {
        options.backoffMs = parseU64(value(), arg);
      } else if (arg == "--help" || arg == "-h") {
        return clientUsage(), 0;
      } else if (!arg.empty() && arg[0] == '-') {
        std::cerr << "esl client: unknown option " << arg << "\n";
        return clientUsage();
      } else if (scriptPath.empty()) {
        scriptPath = arg;
      } else {
        std::cerr << "esl client: more than one script\n";
        return clientUsage();
      }
    } catch (const std::exception& e) {
      std::cerr << "esl client: " << e.what() << "\n";
      return 1;
    }
  }
  if (socketPath.empty()) return clientUsage();
  std::ifstream file;
  if (!scriptPath.empty()) {
    file.open(scriptPath);
    if (!file) {
      std::cerr << "esl client: cannot read '" << scriptPath << "'\n";
      return 1;
    }
  }
  std::istream& script = scriptPath.empty() ? std::cin : file;
  std::string line;
  const auto fail = [&line](const std::exception& e, int code) {
    std::cerr << "esl client: " << (line.empty() ? "" : line + ": ") << e.what()
              << "\n";
    return code;
  };
  // Exit codes are part of the contract (see --help): scripts driving the
  // daemon distinguish "it told me no" from "it is not there" from "it died
  // under me" without parsing stderr.
  try {
    Client client(socketPath, options);
    while (std::getline(script, line)) {
      if (!clientLine(client, line)) break;
    }
  } catch (const ConnectError& e) {
    return fail(e, 3);
  } catch (const TimeoutError& e) {
    return fail(e, 4);
  } catch (const ConnectionLostError& e) {
    return fail(e, 5);
  } catch (const std::exception& e) {
    return fail(e, 2);
  }
  return 0;
}

}  // namespace esl::serve
