// SimSession: one serve-daemon session — a design plus a persistent simulator.
//
// Where the shell's `sim` verb builds a throwaway Simulator per command, a
// serve session keeps one alive across commands so `step 1000` twice equals
// `--sim 2000` once: the choice provider is a pure function of (seed, cycle,
// node, index), so chunking a run into quanta is identity-preserving by
// construction. Transform and query verbs reuse the shell's command language
// (shell::Session on the same netlist); verbs that would replace the netlist
// under the live simulator (build/load/undo/redo) or run a whole simulation
// inside one command, outside the quantum scheduler (sim/tput/trace), are
// rejected — serve has its own step/query surface.
//
// Sessions can leave memory and come back: spoolSave() packs the session
// into one StateKind::kSession container — options, origin, the design as
// `.esl` text, the packState() snapshot payload, then the perf-side carries
// packState() deliberately excludes (sink transfer counts, per-channel stats,
// violation count); spoolLoad() verifies it — a backend or shard count out of
// range is an EslError — and rebuilds a session whose every subsequent
// report, tput and snapshot is byte-identical to one that never left. This
// is the LRU eviction path of serve::Service and the migration path between
// daemons.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shell/session.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace esl::serve {

class SimSession {
 public:
  struct Options {
    SimContext::Backend backend = SimContext::Backend::kInterpreted;
    unsigned shards = 1;
    std::uint64_t seed = 0x5e1fULL;
    bool checkProtocol = true;
    bool crossCheck = false;
  };

  /// Builds the design and the persistent simulator. `origin` labels the
  /// design in status output and spool records.
  SimSession(NetlistSpec spec, const std::string& origin, Options options);

  const std::string& origin() const { return origin_; }
  const Options& options() const { return options_; }
  Netlist& netlist() { return *shell_.netlist(); }
  std::uint64_t cycle() const { return sim_->cycle(); }

  /// Runs one shell command (transform/query surface). Returns the shell's
  /// printable output; throws EslError for forbidden verbs (see above).
  /// Shell-internal errors come back as "error: ..." text, shell-style.
  std::string command(const std::string& line);

  /// Advances the persistent simulator. The serve scheduler calls this one
  /// bounded quantum at a time; N calls of 1 cycle equal one call of N.
  void step(std::uint64_t cycles);

  /// Sink transfer totals + violation count, carries included — the same
  /// bytes the CLI's `--sim N` run prints for the same cumulative history.
  std::string report();
  /// "throughput(<ch>) = <x.xxxx>\n", carries included (CLI `--tput` format).
  std::string tputLine(const std::string& channel);
  std::uint64_t violationCount();

  // --- Snapshots -------------------------------------------------------------

  /// packState(): the snapshot container, as --save-state writes it.
  std::vector<std::uint8_t> snapshot();
  /// Replaces the simulator with a fresh one restored from `bytes` — CLI
  /// `--load-state` semantics: statistics (transfer counts, channel stats,
  /// carries) restart at zero; sequential state, the cycle counter and the
  /// protocol monitor's kept cycle come from the snapshot. Throws EslError
  /// on a foreign, version-mismatched or damaged snapshot, and then leaves
  /// the session untouched.
  void restore(const std::vector<std::uint8_t>& bytes);

  // --- Trace streaming -------------------------------------------------------

  /// Watches channels for the per-cycle trace stream; replaces any previous
  /// watch set. Watching sessions are not evictable (the letter table is
  /// stream state the spool does not carry).
  void watch(const std::vector<std::string>& channels);
  bool watching() const { return trace_ != nullptr; }
  /// Lines captured since the last drain (see TraceRecorder::drainStreamText).
  std::string drainStream();

  // --- Eviction spool --------------------------------------------------------

  std::vector<std::uint8_t> spoolSave();
  static std::unique_ptr<SimSession> spoolLoad(
      const std::vector<std::uint8_t>& record);

 private:
  std::unique_ptr<sim::Simulator> makeSimulator();

  std::string origin_;
  Options options_;
  shell::Session shell_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::TraceRecorder> trace_;

  // Perf-side history carried across evict/restore (packState() excludes it).
  std::map<std::string, std::uint64_t> sinkCarry_;
  std::map<std::string, sim::ChannelStats> statCarry_;
  std::uint64_t violationCarry_ = 0;
};

}  // namespace esl::serve
