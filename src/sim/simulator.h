// Simulator: runs a netlist cycle by cycle and collects statistics.
//
// Wraps SimContext with: a seeded choice provider (nondet environment nodes
// behave randomly but reproducibly), per-channel transfer/kill statistics,
// throughput measurement, and an optional trace recorder.
//
// The choice provider is a stateless hash of (seed, cycle, node, index) — a
// pure per-cycle function, so resolution order can never leak into the drawn
// values. That is what lets the sweep and a one-shard context resolve lazily
// while more shards pre-resolve every slot, with bit-identical outcomes (and
// it makes the sweep/event/sharded kernels agree choice for choice by
// construction).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "base/rng.h"
#include "elastic/context.h"
#include "sim/trace.h"

namespace esl::sim {

struct SimOptions {
  bool checkProtocol = true;       ///< monitor SELF properties every cycle
  bool throwOnViolation = true;    ///< raise ProtocolError immediately
  std::uint64_t seed = 0x5e1fULL;  ///< choice-provider seed
  /// Settle kernel (see SimContext): event-driven worklist by default, with
  /// the dense sweep retained as reference/fallback.
  SimContext::SettleKernel kernel = SimContext::SettleKernel::kEventDriven;
  /// Run both kernels every cycle and throw InternalError on disagreement.
  bool crossCheckKernels = false;
  /// Shard the netlist across N worker lanes per cycle (1 = serial). Settled
  /// signals and packed state are bit-identical for every value.
  unsigned shards = 1;
  /// Simulation backend: the interpreted node kernels, or the compiled
  /// bytecode VM (bit-identical, no virtual dispatch on the hot path).
  /// Composes with shards > 1: interior nodes run specialized ops while
  /// boundary-adjacent nodes take the staging-aware interpreted path.
  SimContext::Backend backend = SimContext::Backend::kInterpreted;
};

struct ChannelStats {
  std::uint64_t fwdTransfers = 0;
  std::uint64_t kills = 0;
  std::uint64_t bwdTransfers = 0;
};

class Simulator {
 public:
  explicit Simulator(const Netlist& netlist, SimOptions options = {});

  SimContext& ctx() { return ctx_; }
  std::uint64_t cycle() const { return ctx_.cycle(); }

  /// Attach a trace recorder (optional; must outlive the simulator runs).
  void attachTrace(TraceRecorder* trace) { trace_ = trace; }

  void step();
  void run(std::uint64_t cycles);

  const ChannelStats& channelStats(ChannelId ch) const { return stats_.at(ch); }
  /// channelStats() for channels that may postdate the simulator (interactive
  /// surgery): zero until the first event touches them.
  ChannelStats channelStatsOrZero(ChannelId ch) const {
    return ch < stats_.size() ? stats_[ch] : ChannelStats{};
  }
  /// Forward transfers per cycle on `ch` since reset.
  double throughput(ChannelId ch) const;

 private:
  SimContext ctx_;
  SimOptions options_;
  std::vector<ChannelStats> stats_;
  TraceRecorder* trace_ = nullptr;
};

/// The canonical end-of-run report — one "sink '<name>': N transfers" line
/// per TokenSink (netlist order) and the protocol-violation count. One
/// renderer shared by the shell's `sim` verb, the CLI's `--sim` and the
/// serve daemon, so their outputs byte-diff clean against each other.
/// `sinkCarry`/`violationCarry` add counts accumulated before a state-only
/// restore (the serve daemon's evict/restore cycle: received counts are
/// statistics, deliberately outside packState()).
std::string runReport(const Netlist& nl, const SimContext& ctx,
                      const std::map<std::string, std::uint64_t>* sinkCarry =
                          nullptr,
                      std::uint64_t violationCarry = 0);

/// "throughput(<channel>) = <value, 4 decimals>\n": the one rendering of a
/// measured throughput, shared like runReport by the CLI's `--tput`, the
/// shell's `tput` verb and the serve daemon's tput query.
std::string throughputLine(const std::string& channel, double value);

}  // namespace esl::sim
