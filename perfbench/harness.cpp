// Benchmark harness for the esl simulator, its serve layers and daemon.
//
// Run through run.py, which builds this file against the checkout's library,
// writes the seeded `.esl` input and passes it here. The harness measures from
// outside: it times calls into each layer's public functions
// (frontend::parseEsl, NetlistSpec::build, sim::Simulator, SimContext's
// settle/checkProtocol/edge, serve::SimSession, serve::SpoolDir, the frame
// protocol) and, in traced runs, drives a real `esl serve` process over its
// Unix socket with the repository's own client. See README.md for the
// workloads, the metrics and the layer -> metric map.
//
// Output: a human-readable table, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs report
// the end-to-end metrics, traced runs (--trace 1) the per-layer metrics. Any
// correctness mismatch prints the JSON with "correct": false and exits 1.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "elastic/context.h"
#include "elastic/registry.h"
#include "frontend/esl_format.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/spool.h"
#include "sim/simulator.h"

namespace {

using Clock = std::chrono::steady_clock;
using esl::SimContext;
using esl::serve::Client;
using esl::serve::SimSession;

const Clock::time_point gEpoch = Clock::now();

double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double since(Clock::time_point t0) { return secondsBetween(t0, Clock::now()); }

/// CPU seconds of the calling thread. Unlike wall time it excludes the spells
/// a shared host deschedules the vCPU (steal time).
double threadCpuSeconds() {
  timespec t{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples strictly beyond the nearest-rank percentile.
std::size_t beyond(std::size_t n, double p) {
  return n - std::min(n, static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))));
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

// --- spans -------------------------------------------------------------------

/// In-memory span log: name, start, end and parent span. Written out as TSV
/// when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  std::int32_t open(const char* name, std::int32_t parent = -1) {
    if (!on_) return -1;
    spans_.push_back({name, ns(Clock::now()), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = ns(Clock::now());
  }
  void add(const char* name, Clock::time_point a, Clock::time_point b,
           std::int32_t parent) {
    if (!on_) return;
    if (spans_.size() < kMaxSpans)
      spans_.push_back({name, ns(a), ns(b), parent});
    else
      ++dropped_;
  }
  std::size_t dropped() const { return dropped_; }
  /// Writes one TSV line per span; returns the count.
  std::size_t write(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << (s.parent < 0 ? std::string("-") : std::to_string(s.parent))
          << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\n';
    }
    return spans_.size();
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start, end;
    std::int32_t parent;
  };
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - gEpoch).count();
  }
  /// Past this many spans the log keeps counting instead of recording (the
  /// timings still use every cycle).
  static constexpr std::size_t kMaxSpans = 200'000;
  bool on_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
};

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string samples;  ///< printed beside the value
};

struct Result {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0, failed = 0;

  void add(const std::string& name, double value, const std::string& unit,
           const std::string& samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double vmHwmMb(const std::string& statusPath) {
  std::ifstream in(statusPath);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

unsigned cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- workloads ---------------------------------------------------------------

struct Design {
  std::string origin;
  std::string text;
};

struct Workload {
  std::uint64_t fill;    ///< cycles to steady state, run once and shared
  std::uint64_t window;  ///< fixed check window, a multiple of 2 * period
  std::size_t period;    ///< cycles after which the design's work repeats
  std::size_t block;     ///< cycles per mode before the next mode's turn
  int setups;            ///< set-up repetitions behind setup_s
};

Workload workloadFor(const std::string& name) {
  // The ladder is full (every channel has an event every cycle) by ~2.8k
  // cycles and then does the same work every cycle; the fork/join tree
  // repeats its 64-cycle injection period from ~500 cycles, so its window
  // halves span whole periods.
  if (name == "sim-speculative") return {3000, 1000, 1, 16, 9};
  if (name == "sim-sparse") return {512, 512, 64, 64, 5};
  throw std::runtime_error("unknown workload '" + name + "'");
}

struct Mode {
  const char* suffix;  ///< metric-name suffix
  SimContext::Backend backend;
  unsigned shards;
};
const Mode kModes[] = {
    {"", SimContext::Backend::kInterpreted, 1},
    {".compiled", SimContext::Backend::kCompiled, 1},
    {".sharded2", SimContext::Backend::kInterpreted, 2},
};

// --- sim: the CLI path -------------------------------------------------------

struct Loaded {
  std::unique_ptr<esl::Netlist> nl;
  std::unique_ptr<esl::sim::Simulator> sim;
  std::vector<esl::ChannelId> channels;
};

struct LoadTimes {
  double parse = 0, build = 0, ctor = 0, first = 0;
  double total() const { return parse + build + ctor + first; }
};

/// parseEsl -> build -> Simulator with the `sim` verb's options -> first cycle.
Loaded loadDesign(const Design& d, const Mode& m, LoadTimes& t, SpanLog& log,
                  std::int32_t parent) {
  Loaded l;
  const auto t0 = Clock::now();
  esl::NetlistSpec spec = esl::frontend::parseEsl(d.text, d.origin);
  const auto t1 = Clock::now();
  l.nl = std::make_unique<esl::Netlist>(spec.build());
  const auto t2 = Clock::now();
  esl::sim::SimOptions opts{.checkProtocol = true, .throwOnViolation = false};
  opts.backend = m.backend;
  opts.shards = m.shards;
  l.sim = std::make_unique<esl::sim::Simulator>(*l.nl, opts);
  const auto t3 = Clock::now();
  l.sim->step();
  const auto t4 = Clock::now();
  l.channels = l.nl->channelIds();
  log.add("frontend.parseEsl", t0, t1, parent);
  log.add("elastic.build", t1, t2, parent);
  log.add("sim.Simulator", t2, t3, parent);
  log.add("sim.first_cycle", t3, t4, parent);
  t.parse = secondsBetween(t0, t1);
  t.build = secondsBetween(t1, t2);
  t.ctor = secondsBetween(t2, t3);
  t.first = secondsBetween(t3, t4);
  return l;
}

struct Counts {
  std::uint64_t fwd = 0, kill = 0, bwd = 0;
  std::uint64_t active() const { return fwd + kill + bwd; }
  Counts operator-(const Counts& o) const {
    return {fwd - o.fwd, kill - o.kill, bwd - o.bwd};
  }
  bool operator==(const Counts&) const = default;
};

/// Channel events so far. A channel carries at most one of transfer / kill /
/// backward transfer per cycle, so active() counts channel-cycles with an
/// event.
Counts eventCounts(const Loaded& l) {
  Counts c;
  for (const esl::ChannelId ch : l.channels) {
    const esl::sim::ChannelStats& s = l.sim->channelStats(ch);
    c.fwd += s.fwdTransfers;
    c.kill += s.kills;
    c.bwd += s.bwdTransfers;
  }
  return c;
}

/// Runs the design to its steady state once, on the compiled backend (the
/// fastest), and returns the packState() bytes every mode resumes from.
std::vector<std::uint8_t> fillState(const Design& d, std::uint64_t cycles) {
  esl::Netlist nl = esl::frontend::parseEsl(d.text, d.origin).build();
  esl::sim::SimOptions opts{.checkProtocol = true, .throwOnViolation = false};
  opts.backend = SimContext::Backend::kCompiled;
  esl::sim::Simulator sim(nl, opts);
  sim.run(cycles);
  return sim.ctx().packState();
}

/// One execution mode's live simulator and its measurements.
struct ModeRun {
  Loaded live;
  std::vector<double> setups, parse, build, first;  ///< per setup repetition
  /// Every timed cycle, in order: wall time, and the thread's CPU time.
  std::vector<double> wall, cpu;
  std::size_t channels = 0;
  Counts c0, cMid;
  // Check point at restore + window: deterministic across modes and commits.
  std::string report;
  std::vector<std::uint8_t> state;
  Counts half[2];
  std::size_t violations = 0;
  // Traced passes (µs per cycle).
  double settleUs = 0, protocolUs = 0, edgeUs = 0, stepUs = 0;
  bool replayMatches = true;
};

/// `setups` full loads (the last one is kept), then a restore of the shared
/// steady state, as `esl --load-state` resumes a run. A restore invalidates
/// the sparse seed set and the compiled arena; the two warm-up cycles pay
/// those one-time costs outside the timing.
void setUpMode(ModeRun& r, const Design& d, const std::vector<std::uint8_t>& filled,
               const Mode& mode, int setups, SpanLog& log) {
  for (int rep = 0; rep < setups; ++rep) {
    r.live = {};  // the previous repetition's memory goes first
    const std::int32_t s = log.open("sim.setup");
    LoadTimes t;
    r.live = loadDesign(d, mode, t, log, s);
    log.close(s);
    r.setups.push_back(t.total());
    r.parse.push_back(t.parse);
    r.build.push_back(t.build);
    r.first.push_back(t.first);
  }
  r.channels = r.live.channels.size();
  r.live.sim->ctx().unpackState(filled);
  r.live.sim->run(2);
  r.c0 = eventCounts(r.live);
}

/// One timed block of `block` cycles, each cycle timed; records the check
/// point when the window completes.
void timedBlock(ModeRun& r, const Workload& w) {
  for (std::size_t b = 0; b < w.block; ++b) {
    const auto a = Clock::now();
    const double c = threadCpuSeconds();
    r.live.sim->step();
    r.cpu.push_back(threadCpuSeconds() - c);
    r.wall.push_back(since(a));
    if (r.wall.size() == w.window / 2) r.cMid = eventCounts(r.live);
    if (r.wall.size() == w.window) {
      const Counts cEnd = eventCounts(r.live);
      r.half[0] = r.cMid - r.c0;
      r.half[1] = cEnd - r.cMid;
      r.report = esl::sim::runReport(*r.live.nl, r.live.sim->ctx());
      r.state = r.live.sim->ctx().packState();
    }
  }
}

struct SimPart {
  std::vector<std::uint8_t> filled;  ///< shared steady state
  ModeRun modes[3];
  double peakRssMb = 0;  ///< after the interpreted mode is loaded and restored
};

/// Simulated cycles per second of a typical period: each cycle position in
/// the repeating period contributes the median of its samples. A cycle
/// stalled by the host (a descheduled vCPU, a page-cache flush) moves one
/// sample, not the result, and the cheap and expensive cycles of a periodic
/// design keep their true weights.
double cyclesPerSecond(const ModeRun& r, const Workload& w) {
  std::vector<std::vector<double>> at(w.period);
  for (std::size_t i = 0; i < r.wall.size(); ++i) at[i % w.period].push_back(r.wall[i]);
  double period = 0;
  for (const std::vector<double>& v : at) period += median(v);
  return static_cast<double>(w.period) / period;
}

/// Mean untraced µs per cycle.
double usPerCycle(const ModeRun& r) {
  return 1e6 * sum(r.wall) / static_cast<double>(r.wall.size());
}

/// One cycle driven through the three context phases, or through
/// Simulator::step; accumulates seconds into t[settle, protocol, edge, step].
void tracedCycle(esl::sim::Simulator& sim, bool phases, double* t, SpanLog& log,
                 std::int32_t pass) {
  const auto a = Clock::now();
  if (!phases) {
    sim.step();
    const auto b = Clock::now();
    log.add("sim.step", a, b, pass);
    t[3] += secondsBetween(a, b);
    return;
  }
  SimContext& ctx = sim.ctx();
  ctx.settle();
  const auto b = Clock::now();
  ctx.checkProtocol();
  const auto d = Clock::now();
  ctx.edge();
  const auto e = Clock::now();
  log.add("elastic.settle", a, b, pass);
  log.add("elastic.checkProtocol", b, d, pass);
  log.add("elastic.edge", d, e, pass);
  t[0] += secondsBetween(a, b);
  t[1] += secondsBetween(b, d);
  t[2] += secondsBetween(d, e);
}

/// Two traced passes over exactly the untraced cycles, per mode, on two
/// simulators restored to the same state and run in alternating blocks: one
/// drives the three context phases directly, the other calls Simulator::step,
/// whose remainder over the phases is the channel-statistics sweep. Pairing
/// the blocks puts both passes under the same host conditions, so drift
/// between passes does not swamp that small remainder. Both must end in the
/// untraced pass's state.
void tracedPasses(SimPart& p, const Design& d, const Workload& w, SpanLog& log) {
  const std::size_t cycles = p.modes[0].wall.size();
  for (int m = 0; m < 3; ++m) {
    ModeRun& r = p.modes[m];
    LoadTimes ignored;
    const Loaded twin = loadDesign(d, kModes[m], ignored, log, -1);
    const std::vector<std::uint8_t> end = r.live.sim->ctx().packState();
    esl::sim::Simulator* const sims[2] = {r.live.sim.get(), twin.sim.get()};
    for (esl::sim::Simulator* s : sims) {
      s->ctx().unpackState(p.filled);
      s->run(2);
    }
    double t[4] = {};
    const std::int32_t pass = log.open("sim.traced_pair");
    for (std::size_t done = 0; done < cycles; done += w.block)
      for (int k = 0; k < 2; ++k)
        for (std::size_t b = 0; b < w.block; ++b) tracedCycle(*sims[k], k == 0, t, log, pass);
    log.close(pass);
    for (esl::sim::Simulator* s : sims)
      if (s->ctx().packState() != end) r.replayMatches = false;
    const double n = static_cast<double>(cycles) / 1e6;
    r.settleUs = t[0] / n;
    r.protocolUs = t[1] / n;
    r.edgeUs = t[2] / n;
    r.stepUs = t[3] / n;
  }
}

/// The three execution modes on the workload's design. Their timed blocks
/// interleave over the whole budget, so slow spells on a shared host land on
/// every mode alike.
SimPart runSim(const Design& d, const Workload& w, double seconds, bool trace, Result& res,
               SpanLog& log) {
  SimPart p;
  p.filled = fillState(d, w.fill);
  for (int m = 0; m < 3; ++m) {
    setUpMode(p.modes[m], d, p.filled, kModes[m], m == 0 ? w.setups : 1, log);
    if (m == 0) p.peakRssMb = vmHwmMb("/proc/self/status");
  }
  const double budget = trace ? seconds / 3.0 : seconds;
  const std::int32_t pass = log.open("sim.untraced_pass");
  const auto t0 = Clock::now();
  while (p.modes[0].wall.size() < w.window || since(t0) < budget)
    for (ModeRun& r : p.modes) timedBlock(r, w);
  log.close(pass);
  for (ModeRun& r : p.modes) r.violations = r.live.sim->ctx().protocolViolations().size();
  if (trace) tracedPasses(p, d, w, log);
  for (ModeRun& r : p.modes) r.live = {};

  // Correctness: every mode reaches the same report, state bytes and event
  // counts at the check point, with no protocol violation.
  const ModeRun& ref = p.modes[0];
  for (int m = 0; m < 3; ++m) {
    const ModeRun& r = p.modes[m];
    const std::string mode = std::string("interpreted") + kModes[m].suffix;
    res.check(r.violations == 0, mode + ": " + std::to_string(r.violations) +
                                     " protocol violations");
    res.check(r.report == ref.report, mode + ": run report differs from interpreted");
    res.check(r.state == ref.state, mode + ": packState bytes differ from interpreted");
    res.check(r.half[0] == ref.half[0] && r.half[1] == ref.half[1],
              mode + ": model counts differ from interpreted");
    res.check(r.replayMatches, mode + ": traced pass ended in a different state");
  }
  // Steady-window guard: the second half of the window must carry the same
  // activity as the first, and tokens must be flowing.
  const double a0 = static_cast<double>(ref.half[0].active());
  const double a1 = static_cast<double>(ref.half[1].active());
  res.check(ref.half[0].fwd > 0 && ref.half[1].fwd > 0, "window: no transfers");
  const double drift = a0 > 0 ? a1 / a0 : 0.0;
  res.check(std::fabs(drift - 1.0) <= 0.05,
            "window: active_drift " + num(drift) + " (still filling or draining)");
  return p;
}

// --- serve: in-process layers ------------------------------------------------

/// One frame round trip over a socketpair: a request carrying `payload` (the
/// `open` frame shape) and a short report reply. Returns µs per round trip.
std::vector<double> protoRoundtrips(const std::string& payload, int reps) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  std::thread server([fd = sv[1]] {
    try {
      esl::serve::FrameReader reader(fd);
      esl::serve::Frame f;
      std::uint64_t id = 0;
      while (reader.read(f)) {
        esl::serve::json::Value h = esl::serve::json::Value::object();
        h.set("id", esl::serve::json::Value::number(++id));
        h.set("ok", esl::serve::json::Value::boolean(true));
        h.set("text", esl::serve::json::Value::str(
                          "sink 'sink': 1000 transfers\nprotocol violations: 0\n"));
        esl::serve::writeFrame(fd, std::move(h));
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: proto echo: " << e.what() << "\n";
    }
  });
  std::vector<double> us;
  try {
    esl::serve::FrameReader reader(sv[0]);
    for (int i = 0; i < reps; ++i) {
      esl::serve::json::Value h = esl::serve::json::Value::object();
      h.set("id", esl::serve::json::Value::number(std::uint64_t(i + 1)));
      h.set("op", esl::serve::json::Value::str("open"));
      h.set("session", esl::serve::json::Value::str("s"));
      const auto a = Clock::now();
      esl::serve::writeFrame(sv[0], std::move(h), payload);
      esl::serve::Frame reply;
      if (!reader.read(reply)) throw std::runtime_error("proto echo hung up");
      us.push_back(1e6 * since(a));
    }
  } catch (...) {
    ::shutdown(sv[0], SHUT_RDWR);
    server.join();
    ::close(sv[0]);
    ::close(sv[1]);
    throw;
  }
  ::shutdown(sv[0], SHUT_WR);
  server.join();
  ::close(sv[0]);
  ::close(sv[1]);
  return us;
}

struct LayerSamples {
  double step = 0, save = 0, write = 0, read = 0, load = 0;
  std::vector<double> roundtrip;
};

/// SimSession::step from the steady state, spoolSave/spoolLoad, and SpoolDir
/// write/read in persistent mode (as the daemon runs with --spool-dir),
/// in-process; then frame round trips carrying the design.
LayerSamples serveLayers(const Design& d, const std::vector<std::uint8_t>& filled,
                         std::uint64_t stepCycles, Result& res, SpanLog& log) {
  LayerSamples out;
  const std::int32_t span = log.open("serve.layers");
  std::filesystem::remove_all("layer-spool");
  esl::serve::SpoolDir spool;
  spool.open("layer-spool", true);
  SimSession s(esl::frontend::parseEsl(d.text, d.origin), d.origin, {});
  s.restore(filled);
  const auto timed = [&](const char* name, double& into, const auto& fn) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    log.add(name, a, b, span);
    into = 1e6 * secondsBetween(a, b);
  };
  std::vector<std::uint8_t> bytes, record;
  std::unique_ptr<SimSession> back;
  timed("session.step", out.step, [&] { s.step(stepCycles); });
  out.step /= static_cast<double>(stepCycles);
  timed("session.spoolSave", out.save, [&] { bytes = s.spoolSave(); });
  timed("spool.writeRecord", out.write, [&] { spool.writeRecord("layer", bytes); });
  timed("spool.readRecord", out.read, [&] { record = spool.readRecord("layer"); });
  timed("session.spoolLoad", out.load, [&] { back = SimSession::spoolLoad(record); });
  res.check(record == bytes && back->report() == s.report() &&
                back->snapshot() == s.snapshot(),
            "spool round trip changed the session");
  spool.removeRecord("layer");
  std::filesystem::remove_all("layer-spool");
  const auto a = Clock::now();
  out.roundtrip = protoRoundtrips(d.text, 5);
  log.add("proto.roundtrips", a, Clock::now(), span);
  log.close(span);
  return out;
}

// --- serve: the daemon -------------------------------------------------------

/// An `esl serve` child process. The destructor kills and reaps it if it is
/// still running, so no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args) {
    std::vector<std::string> argv{bin, "serve"};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char*> cargv;
    for (std::string& a : argv) cargv.push_back(a.data());
    cargv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    const int err = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out[1], 1);
      if (err >= 0) ::dup2(err, 2);
      ::close(out[0]);
      ::execv(cargv[0], cargv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (err >= 0) ::close(err);
    stdout_ = out[0];
    if (pid_ < 0) {
      ::close(stdout_);
      throw std::runtime_error("fork failed");
    }
    // The daemon prints its "listening" line once the socket accepts.
    char c = 0;
    std::string line;
    while (::read(stdout_, &c, 1) == 1 && c != '\n') line += c;
    if (line.find("listening") == std::string::npos) {
      stop();
      throw std::runtime_error("esl serve did not start (see daemon.log)");
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Waits for exit; returns the exit code (128 + signal when killed).
  int wait() {
    int st = 0;
    ::waitpid(pid_, &st, 0);
    pid_ = -1;
    return WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
  }

 private:
  /// Kills and reaps the child if it still runs; closes its stdout pipe.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (stdout_ >= 0) ::close(stdout_);
    stdout_ = -1;
  }

  pid_t pid_ = -1;
  int stdout_ = -1;
};

struct ServeStats {
  std::uint64_t sessions = 0, evictions = 0, restores = 0, ops = 0;
};

ServeStats stats(Client& c) {
  const esl::serve::json::Value v = c.stats();
  const auto get = [&](const char* k) {
    const esl::serve::json::Value* f = v.find(k);
    return f ? f->asU64() : 0;
  };
  return {get("sessions"), get("evictions"), get("restores"), get("ops")};
}

enum OpKind { kStep, kSnap, kRestore, kOpen, kKinds };

struct Probe {
  std::vector<double> ms[kKinds];  ///< client spans per command kind
  std::uint64_t commands = 0;
  ServeStats d0, d1;  ///< daemon stats around the commands
};

/// One session of the workload's design on a real daemon (socket, spool and
/// daemon log inside the work directory): open, restore of the steady state,
/// then four step / snapshot / restore rounds. Every reply must match an
/// in-process SimSession given the same commands, and the daemon must report
/// no sessions after the close and exit 0.
Probe serveProbe(const std::string& eslBin, const Design& d,
                 const std::vector<std::uint8_t>& filled, std::uint64_t stepCycles,
                 Result& res, SpanLog& log) {
  Probe p;
  SimSession local(esl::frontend::parseEsl(d.text, d.origin), d.origin, {});
  std::filesystem::remove("serve.sock");
  std::filesystem::remove_all("spool");
  Daemon daemon(eslBin, {"--socket", "serve.sock", "--spool-dir", "spool", "--workers",
                         std::to_string(std::min(2u, cpuCount()))});
  esl::serve::ClientOptions o;
  o.timeoutMs = 120'000;
  Client c("serve.sock", o);
  p.d0 = stats(c);
  const auto timed = [&](OpKind k, const char* name, const auto& fn) {
    const auto a = Clock::now();
    fn();
    const auto b = Clock::now();
    log.add(name, a, b, -1);
    p.ms[k].push_back(1e3 * secondsBetween(a, b));
    ++p.commands;
  };
  timed(kOpen, "client.open", [&] { c.openEsl("probe", d.text, d.origin); });
  timed(kRestore, "client.restore", [&] { c.restore("probe", filled); });
  local.restore(filled);
  for (int i = 0; i < 4; ++i) {
    std::string report;
    std::vector<std::uint8_t> snap;
    timed(kStep, "client.step", [&] { report = c.step("probe", stepCycles); });
    local.step(stepCycles);
    res.check(report == local.report(), "serve: step report differs from SimSession");
    timed(kSnap, "client.snapshot", [&] { snap = c.snapshot("probe"); });
    res.check(snap == local.snapshot(), "serve: snapshot differs from SimSession");
    timed(kRestore, "client.restore", [&] { c.restore("probe", snap); });
    local.restore(snap);
  }
  res.check(c.sinks("probe") == local.report(), "serve: final sinks report differs");
  p.d1 = stats(c);
  c.close("probe");
  res.check(stats(c).sessions == 0, "serve: stats shows sessions after close");
  c.shutdownServer();
  res.check(daemon.wait() == 0, "serve: daemon exit code nonzero");
  std::filesystem::remove_all("spool");
  return p;
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload, esl, work, design;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--esl") a.esl = v;
    else if (k == "--work") a.work = v;
    else if (k == "--design") a.design = v;
    else throw std::runtime_error("unknown option " + k);
  }
  if (a.workload.empty() || a.esl.empty() || a.work.empty() || a.design.empty() ||
      a.seconds <= 0)
    throw std::runtime_error("usage: perfbench_harness --workload W --seed N "
                             "--seconds S --trace 0|1 --esl BIN --work DIR --design F");
  return a;
}

std::string samples(std::size_t n) { return "n=" + std::to_string(n); }

void reportEndToEnd(const Workload& w, const SimPart& sim, Result& res) {
  const ModeRun& in = sim.modes[0];
  res.add("setup_s", median(in.setups), "s", samples(in.setups.size()));
  for (int m = 0; m < 2; ++m)
    res.add(std::string("cycles_per_s") + kModes[m].suffix,
            cyclesPerSecond(sim.modes[m], w), "1/s",
            samples(sim.modes[m].wall.size()) + " cycles");
  // The sharded rate rides on the host's thread wake-up latency, which on a
  // shared VM swings by more than any allowed regression bound, so it is
  // printed but is not an end-to-end metric.
  res.notes.push_back("cycles_per_s.sharded2 " + num(cyclesPerSecond(sim.modes[2], w)) +
                      " 1/s, " + samples(sim.modes[2].wall.size()) + " cycles");
  res.add("peak_rss_mb", sim.peakRssMb, "MiB", "interpreted mode loaded");
  // An op is one interpreted cycle. It runs on this one thread, so its CPU
  // time is the cycle's own cost; wall-time tails on a shared host are steal.
  const std::size_t n = in.cpu.size();
  res.add("op_p50_ms", 1e3 * median(in.cpu), "ms", samples(n) + " cycles, CPU time");
  res.add("op_p99_ms", 1e3 * percentile(in.cpu, 0.99), "ms",
          samples(n) + ", " + std::to_string(beyond(n, 0.99)) + " beyond");
  res.attempted = n;
}

void reportLayers(const Workload& w, const SimPart& sim, const LayerSamples& ls,
                  const Probe& probe, Result& res) {
  const ModeRun& in = sim.modes[0];
  const ModeRun& co = sim.modes[1];
  res.add("load.parse_s", median(in.parse), "s", samples(in.parse.size()));
  res.add("load.build_s", median(in.build), "s", samples(in.build.size()));
  res.add("load.first_cycle_s", median(in.first), "s", samples(in.first.size()));
  res.add("load.first_cycle_s.compiled", median(co.first), "s", samples(co.first.size()));
  for (int m = 0; m < 3; ++m) {
    const ModeRun& r = sim.modes[m];
    const std::string sfx = kModes[m].suffix;
    const std::string n = samples(r.wall.size()) + " cycles per pass";
    res.add("cycle.settle_us" + sfx, r.settleUs, "us", n);
    res.add("cycle.edge_us" + sfx, r.edgeUs, "us", n);
    res.add("cycle.protocol_us" + sfx, r.protocolUs, "us", n);
    res.add("cycle.stats_us" + sfx, r.stepUs - r.settleUs - r.protocolUs - r.edgeUs, "us", n);
  }
  const double window = static_cast<double>(w.window);
  const Counts total{in.half[0].fwd + in.half[1].fwd, in.half[0].kill + in.half[1].kill,
                     in.half[0].bwd + in.half[1].bwd};
  const std::string wn = samples(w.window) + " window cycles";
  res.add("cycle.active_frac",
          static_cast<double>(total.active()) / (window * static_cast<double>(in.channels)),
          "ratio", wn);
  res.add("model.transfers_per_cycle", static_cast<double>(total.fwd) / window, "1/cycle", wn);
  res.add("model.kills_per_cycle", static_cast<double>(total.kill) / window, "1/cycle", wn);
  res.add("model.useful_frac",
          static_cast<double>(total.fwd) / static_cast<double>(total.fwd + total.kill),
          "ratio", wn);
  res.add("window.active_drift",
          static_cast<double>(in.half[1].active()) / static_cast<double>(in.half[0].active()),
          "ratio", wn);
  res.add("session.step_us_per_cycle", ls.step, "us", "n=1");
  res.add("spool.save_us", ls.save, "us", "n=1");
  res.add("spool.write_us", ls.write, "us", "n=1");
  res.add("spool.read_us", ls.read, "us", "n=1");
  res.add("spool.load_us", ls.load, "us", "n=1");
  res.add("proto.roundtrip_us", median(ls.roundtrip), "us", samples(ls.roundtrip.size()));
  const char* names[kKinds] = {"op.step_ms", "op.snapshot_ms", "op.restore_ms", "op.open_ms"};
  for (int k = 0; k < kKinds; ++k)
    res.add(names[k], median(probe.ms[k]), "ms", samples(probe.ms[k].size()));
  const double cmds = static_cast<double>(probe.commands);
  const std::string cn = samples(probe.commands) + " commands";
  const double restores = static_cast<double>(probe.d1.restores - probe.d0.restores);
  res.add("serve.restores_per_op", restores / cmds, "ratio", cn);
  res.add("serve.evictions_per_op",
          static_cast<double>(probe.d1.evictions - probe.d0.evictions) / cmds, "ratio", cn);
  res.add("serve.resident_hit_frac", 1.0 - restores / cmds, "ratio", cn);
  res.add("serve.service_ops_per_cmd", static_cast<double>(probe.d1.ops - probe.d0.ops) / cmds,
          "ratio", cn);
  // Tracing overhead: the traced Simulator::step time per cycle against the
  // untraced one, interpreted. Stats is the step remainder over the phases,
  // so the four phases sum to the traced step time; each mode's sum is
  // checked against its untraced per-cycle time.
  res.add("trace.overhead_frac", in.stepUs / usPerCycle(in) - 1.0, "ratio",
          "interpreted cycles");
  for (int m = 0; m < 3; ++m) {
    const double ratio = sim.modes[m].stepUs / usPerCycle(sim.modes[m]);
    res.notes.push_back(std::string("phase sum") + kModes[m].suffix + " / untraced = " +
                        num(ratio) + (std::fabs(ratio - 1.0) <= 0.1 ? "" : "  (outside 0.1)"));
  }
}

int run(const Args& a) {
  const Workload w = workloadFor(a.workload);
  const Design d{std::filesystem::path(a.design).filename().string(), readFile(a.design)};
  std::filesystem::create_directories(a.work);
  std::filesystem::current_path(a.work);

  Result res;
  SpanLog log(a.trace);
  const SimPart sim = runSim(d, w, a.seconds, a.trace, res, log);
  if (a.trace) {
    const LayerSamples ls = serveLayers(d, sim.filled, 32, res, log);
    const Probe probe = serveProbe(a.esl, d, sim.filled, 64, res, log);
    reportLayers(w, sim, ls, probe, res);
    res.attempted = probe.commands;
    std::ofstream out("spans.tsv");
    out << "id\tparent\tname\tstart_ns\tend_ns\n";
    const std::size_t n = log.write(out);
    res.notes.push_back("spans: " + std::to_string(n) + " written to " + a.work +
                        "/spans.tsv, " + std::to_string(log.dropped()) + " not recorded");
  } else {
    reportEndToEnd(w, sim, res);
  }

  std::cout << "perfbench " << a.workload << " seed=" << a.seed << " seconds=" << a.seconds
            << " trace=" << (a.trace ? 1 : 0) << "\n";
  for (const Metric& m : res.metrics)
    std::printf("  %-30s %16.6g %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples.c_str());
  for (const std::string& n : res.notes) std::cout << "  note: " << n << "\n";
  for (const std::string& f : res.failures) std::cout << "  FAIL: " << f << "\n";
  const bool correct = res.failures.empty();
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << res.attempted
     << ", \"failed\": " << res.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    js << (i ? ", " : "") << '"' << jsonEscape(m.name) << "\": {\"value\": " << num(m.value)
       << ", \"unit\": \"" << jsonEscape(m.unit) << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
