// Serve-service benchmark: sessions/sec and command latency at 100/1k/5k
// concurrent sessions over the fig1a pipeline, with the resident cap set
// below the session count on the larger tiers so LRU spool eviction and
// restore are on the measured path (the admission/eviction machinery is the
// point of the tier, not an artifact).
//
// Eight client threads round-robin their own session partitions through the
// Service — the in-process core of `esl serve` — so the numbers measure the
// scheduler, residency and spool layers without socket noise (the CI smoke
// covers the wire). Latency is per completed command round-trip (step of 20
// cycles), p50/p99 over every command in the tier.
//
// Modes:
//   bench_serve [--out FILE] [--quick]   measure, print a table, write JSON
//
// JSON rows use the "/workers" name tier, so the regression gate reports
// them without gating (multi-thread wall-clock is machine-dependent; the
// determinism contract is gated by the `serve` test label instead).
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/patterns.h"
#include "serve/service.h"

using namespace esl;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TierResult {
  std::string name;
  std::size_t sessions = 0;
  std::size_t maxResident = 0;
  double opensPerSec = 0.0;
  double cmdsPerSec = 0.0;
  double p50us = 0.0;
  double p99us = 0.0;
  serve::Service::Stats stats;
};

// Retries AdmissionError: under a tight resident cap a burst of concurrent
// opens can momentarily find nothing evictable; backing off and retrying is
// the client contract (the service refuses rather than grows).
template <typename F>
auto admitted(F f) {
  while (true) {
    try {
      return f();
    } catch (const serve::AdmissionError&) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

TierResult runTier(std::size_t sessions, std::size_t maxResident,
                   unsigned clientThreads, unsigned rounds) {
  serve::Service::Config cfg;
  cfg.maxResident = maxResident;
  serve::Service svc(cfg);
  const NetlistSpec spec = patterns::designSpec("fig1a");

  std::vector<std::vector<double>> latencies(clientThreads);
  const auto sidOf = [](std::size_t i) { return "s" + std::to_string(i); };

  // Phase 1: open every session (partitioned across the client threads).
  const double t0 = now();
  {
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < clientThreads; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t i = t; i < sessions; i += clientThreads)
          admitted([&] { return svc.open(sidOf(i), spec, "fig1a", {}); });
      });
    }
    for (std::thread& c : clients) c.join();
  }
  const double openSecs = now() - t0;

  // Phase 2: round-robin step commands; every round-trip is timed.
  const double t1 = now();
  {
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < clientThreads; ++t) {
      clients.emplace_back([&, t] {
        std::vector<double>& lat = latencies[t];
        lat.reserve(rounds * (sessions / clientThreads + 1));
        for (unsigned r = 0; r < rounds; ++r) {
          for (std::size_t i = t; i < sessions; i += clientThreads) {
            const double c0 = now();
            admitted([&] { return svc.step(sidOf(i), 20); });
            lat.push_back((now() - c0) * 1e6);
          }
        }
      });
    }
    for (std::thread& c : clients) c.join();
  }
  const double cmdSecs = now() - t1;

  TierResult res;

  {
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < clientThreads; ++t) {
      clients.emplace_back([&, t] {
        for (std::size_t i = t; i < sessions; i += clientThreads)
          svc.close(sidOf(i));
      });
    }
    for (std::thread& c : clients) c.join();
  }
  res.stats = svc.stats();  // after close: sessions must be 0, no leaks

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());
  res.name = "serve/fig1a/sessions" + std::to_string(sessions) + "/workers" +
             std::to_string(clientThreads);
  res.sessions = sessions;
  res.maxResident = maxResident;
  res.opensPerSec = static_cast<double>(sessions) / openSecs;
  res.cmdsPerSec = static_cast<double>(all.size()) / cmdSecs;
  res.p50us = all.empty() ? 0.0 : all[all.size() / 2];
  res.p99us = all.empty() ? 0.0 : all[all.size() * 99 / 100];
  return res;
}

// Restart-recovery tier: spool N stepped sessions to a persistent directory,
// then measure (a) a fresh Service's startup scan — the directory listing
// plus full CRC validation of every record — and (b) the first-touch
// restores that re-materialize each session. Reported as sessions/s
// re-attached; the crash smoke gates correctness of the same path, this row
// tracks its cost.
struct RecoveryResult {
  std::string name;
  std::size_t sessions = 0;
  double attachPerSec = 0.0;   ///< startup scan (listing + CRC)
  double restorePerSec = 0.0;  ///< first-touch spool restores
  std::uint64_t recovered = 0;
};

RecoveryResult runRecoveryTier(std::size_t sessions) {
  char tmpl[] = "/tmp/esl_bench_recover_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "cannot create recovery spool dir\n");
    std::exit(1);
  }
  serve::Service::Config cfg;
  cfg.spoolDir = dir;
  cfg.maxResident = sessions + 8;  // isolate restore cost from re-eviction
  cfg.warn = [](const std::string&) {};
  const NetlistSpec spec = patterns::designSpec("fig1a");
  const auto sidOf = [](std::size_t i) { return "s" + std::to_string(i); };
  {
    serve::Service svc(cfg);
    for (std::size_t i = 0; i < sessions; ++i)
      svc.open(sidOf(i), spec, "fig1a", {});
    for (std::size_t i = 0; i < sessions; ++i) svc.step(sidOf(i), 20);
    svc.drainAndSpool();
  }

  RecoveryResult res;
  res.name = "serve/recover/sessions" + std::to_string(sessions) + "/workers1";
  res.sessions = sessions;
  const double t0 = now();
  serve::Service svc(cfg);
  const double scanSecs = now() - t0;
  res.recovered = svc.stats().recovered;
  const double t1 = now();
  for (std::size_t i = 0; i < sessions; ++i) svc.step(sidOf(i), 1);
  const double restoreSecs = now() - t1;
  for (std::size_t i = 0; i < sessions; ++i) svc.close(sidOf(i));
  res.attachPerSec = static_cast<double>(sessions) / scanSecs;
  res.restorePerSec = static_cast<double>(sessions) / restoreSecs;

  if (DIR* d = ::opendir(dir)) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name != "." && name != "..")
        std::remove((std::string(dir) + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir);
  return res;
}

void writeJson(const std::string& path, const std::vector<TierResult>& rows,
               const std::vector<RecoveryResult>& recoveries) {
  std::ofstream os(path);
  os << "{\n  \"benchmarks\": [\n";
  bool first = true;
  for (const TierResult& r : rows) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"" << r.name << "\", \"real_time\": " << r.p99us * 1e3
       << ", \"p50_us\": " << r.p50us << ", \"p99_us\": " << r.p99us
       << ", \"opens_per_sec\": " << r.opensPerSec
       << ", \"cmds_per_sec\": " << r.cmdsPerSec
       << ", \"sessions\": " << r.sessions
       << ", \"max_resident\": " << r.maxResident
       << ", \"evictions\": " << r.stats.evictions
       << ", \"restores\": " << r.stats.restores
       << ", \"denied\": " << r.stats.denied << "}";
  }
  for (const RecoveryResult& r : recoveries) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"" << r.name << "\", \"real_time\": "
       << 1e9 * static_cast<double>(r.sessions) /
              std::max(r.attachPerSec, 1e-9)
       << ", \"attach_per_sec\": " << r.attachPerSec
       << ", \"restore_per_sec\": " << r.restorePerSec
       << ", \"sessions\": " << r.sessions
       << ", \"recovered\": " << r.recovered << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: bench_serve [--out FILE] [--quick]\n");
      return 1;
    }
  }

  // sessions, resident cap: the 1k/5k tiers keep the cap far below the
  // session count so every round-robin pass churns the eviction spool.
  std::vector<std::pair<std::size_t, std::size_t>> tiers = {
      {100, 256}, {1000, 512}, {5000, 1024}};
  if (quick) tiers.pop_back();
  const unsigned clientThreads = 8;
  const unsigned rounds = quick ? 2 : 3;

  std::printf("=== serve session scaling (fig1a, %u client threads) ===\n",
              clientThreads);
  std::printf("%9s %9s %11s %11s %9s %9s %9s %9s %7s\n", "sessions",
              "resident", "opens/s", "cmds/s", "p50(us)", "p99(us)", "evict",
              "restore", "denied");
  std::vector<TierResult> rows;
  for (const auto& [sessions, cap] : tiers) {
    const TierResult r = runTier(sessions, cap, clientThreads, rounds);
    std::printf("%9zu %9zu %11.0f %11.0f %9.1f %9.1f %9llu %9llu %7llu\n",
                r.sessions, r.maxResident, r.opensPerSec, r.cmdsPerSec, r.p50us,
                r.p99us, static_cast<unsigned long long>(r.stats.evictions),
                static_cast<unsigned long long>(r.stats.restores),
                static_cast<unsigned long long>(r.stats.denied));
    if (r.stats.sessions != 0) {
      std::printf("FAIL: %llu sessions leaked after close\n",
                  static_cast<unsigned long long>(r.stats.sessions));
      return 1;
    }
    rows.push_back(r);
  }

  std::printf("=== restart recovery (durable spool, fig1a) ===\n");
  std::printf("%9s %13s %13s %9s\n", "sessions", "attach/s", "restore/s",
              "recovered");
  std::vector<RecoveryResult> recoveries;
  std::vector<std::size_t> recoverTiers = {100, 1000};
  if (quick) recoverTiers.pop_back();
  for (const std::size_t sessions : recoverTiers) {
    const RecoveryResult r = runRecoveryTier(sessions);
    std::printf("%9zu %13.0f %13.0f %9llu\n", r.sessions, r.attachPerSec,
                r.restorePerSec, static_cast<unsigned long long>(r.recovered));
    if (r.recovered != r.sessions) {
      std::printf("FAIL: recovered %llu of %zu spooled sessions\n",
                  static_cast<unsigned long long>(r.recovered), r.sessions);
      return 1;
    }
    recoveries.push_back(r);
  }

  if (!outPath.empty()) {
    writeJson(outPath, rows, recoveries);
    std::printf("wrote %s\n", outPath.c_str());
  }
  return 0;
}
