// Service: the serve daemon's session manager and scheduler.
//
// Owns every SimSession, keyed by client-chosen id, and farms their work onto
// the work-stealing Executor via submit(): each session is a strict FIFO of
// pending operations, and at most one scheduler "turn" per session is in
// flight at a time — concurrent clients of one session serialize through its
// queue, so any interleaving of N sessions produces per-session results
// byte-identical to the same commands run serially (the determinism contract
// the serve tests gate).
//
// Fairness: a step is executed at most `quantumCycles` per turn, then the
// turn re-submits itself to the back of the executor's task queue — a
// million-cycle step cannot starve other sessions. Chunking is free:
// the simulator's choice provider is a pure per-(cycle, node, index) hash,
// so step(a); step(b) is bit-identical to step(a+b).
//
// Residency: an admission-control cap bounds in-memory sessions. Opening (or
// restoring) past the cap evicts the least-recently-used idle session to a
// spool record (SimSession::spoolSave — one checksummed container holding
// design text + snapshot + perf carries); its next
// operation restores it transparently, reports intact. When nothing is
// evictable — or the spool disk refuses the write — the open is refused with
// AdmissionError, never OOM and never a crash.
//
// Durability: with a persistent Config::spoolDir the service recovers on
// construction — scanning the spool directory, re-attaching every session
// whose record verifies, quarantining damaged records (renamed `.corrupt`,
// warning emitted, startup continues). Re-attachment is lazy: recovered
// sessions sit evicted until first touched. Config::durable additionally
// checkpoints a session's record after every completed operation, so a
// SIGKILL at any instant loses at most the operation in flight; without it
// only evicted/drained sessions survive a crash. drainAndSpool() is the
// graceful-shutdown half: in-flight steps abort at their next quantum
// boundary with DrainingError and every resident session is spooled.
//
// Back-pressure: a watching session appends trace text to its outbox each
// quantum; past `streamHighWater` the session parks — no further quanta run —
// until drain() (from any connection) pulls the outbox below half the mark.
// Memory stays bounded; the stream's concatenated bytes stay deterministic.
//
// Lock order: the single manager mutex is never held across session work or
// file IO — turns claim exclusivity with the `running` flag instead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/executor.h"
#include "serve/session.h"
#include "serve/spool.h"

namespace esl::serve {

/// Operation addressed to a session id this service does not know.
class NotFoundError : public EslError {
 public:
  using EslError::EslError;
};

/// Open refused: resident cap reached and no session is evictable, or the
/// spool disk refused the eviction write.
class AdmissionError : public EslError {
 public:
  using EslError::EslError;
};

/// Operation refused or aborted because the service is draining for
/// shutdown. In-flight steps abort at their next quantum boundary; the
/// session's state is spooled, so a restarted daemon resumes it intact.
class DrainingError : public EslError {
 public:
  using EslError::EslError;
};

class Service {
 public:
  struct Config {
    unsigned workers = 0;  ///< executor lanes (0 = one per hardware thread)
    std::size_t maxResident = 256;          ///< admission-control cap
    std::uint64_t quantumCycles = 100'000;  ///< max step cycles per turn
    std::size_t streamHighWater = 1 << 20;  ///< outbox bytes before parking
    std::string spoolDir;  ///< eviction spool; empty = private temp dir
    /// Checkpoint each session's spool record after every completed
    /// operation (requires a persistent spoolDir). Crash loses at most the
    /// operation in flight. Watching sessions are not checkpointed — the
    /// trace letter table is stream state the spool does not carry.
    bool durable = false;
    /// Structured warning sink (recovery reports, checkpoint failures);
    /// defaults to one "esl serve: <message>" line on stderr.
    std::function<void(const std::string&)> warn;
  };

  struct Stats {
    std::uint64_t sessions = 0;   ///< known (resident + evicted)
    std::uint64_t resident = 0;
    std::uint64_t peakResident = 0;
    std::uint64_t opened = 0;
    std::uint64_t evictions = 0;
    std::uint64_t restores = 0;
    std::uint64_t denied = 0;
    std::uint64_t ops = 0;  ///< operations completed across all sessions
    std::uint64_t recovered = 0;    ///< sessions re-attached at startup
    std::uint64_t quarantined = 0;  ///< damaged records renamed .corrupt
  };

  explicit Service(Config config);
  /// Waits for in-flight turns, then drops all sessions; a private temp
  /// spool dir is deleted, a persistent one keeps its records for restart.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Every call below is synchronous: it enqueues onto the session's FIFO (or
  // acts under the manager lock for open/close/drain/stats) and blocks until
  // its result is ready. Errors surface as thrown esl exceptions.

  /// Creates a session. `sid` must be [A-Za-z0-9._-]{1,64} and unused.
  /// Returns a one-line status ("session 's1': 12 nodes, 14 channels\n").
  std::string open(const std::string& sid, NetlistSpec spec,
                   const std::string& origin, SimSession::Options options);
  /// Runs one shell command (SimSession::command) and returns its output.
  std::string command(const std::string& sid, const std::string& line);
  // step, snapshot and restore: a non-null `cycle` receives the session's
  // cycle as the operation completes, read by that queued operation itself.

  /// Advances `cycles` cycles (quantum-chunked) and returns the run report —
  /// the same bytes the CLI prints after `--sim cycles`.
  std::string step(const std::string& sid, std::uint64_t cycles,
                   std::uint64_t* cycle = nullptr);
  /// The run report without stepping.
  std::string sinks(const std::string& sid);
  std::string tput(const std::string& sid, const std::string& channel);
  std::uint64_t cycle(const std::string& sid);
  std::vector<std::uint8_t> snapshot(const std::string& sid,
                                     std::uint64_t* cycle = nullptr);
  void restore(const std::string& sid, std::vector<std::uint8_t> bytes,
               std::uint64_t* cycle = nullptr);
  /// Watch channels for trace streaming (empty list stops watching).
  /// Watching pins the session resident (the letter table is stream state).
  void watch(const std::string& sid, std::vector<std::string> channels);
  /// Pulls up to `maxBytes` from the stream outbox; sets `*more` when bytes
  /// remain. Unparks the session once the outbox falls below half the
  /// high-water mark.
  std::string drain(const std::string& sid, std::size_t maxBytes, bool* more);
  /// Removes the session. A running turn aborts at its next quantum boundary;
  /// queued operations fail with "session closed". Blocks until removed.
  void close(const std::string& sid);

  /// Graceful-shutdown drain: refuses new operations, aborts in-flight steps
  /// at their next quantum boundary (DrainingError), fails queued operations,
  /// then spools every resident session to the persistent spool directory.
  /// Returns the number of sessions now on disk. Requires a persistent
  /// spoolDir; spool failures are warned and skipped, never fatal.
  std::size_t drainAndSpool();

  std::vector<std::string> sessionIds();
  Stats stats();

 private:
  /// What an op hands its waiter: its output, or the kind and message of
  /// the error it failed with. A failure crosses threads as these values;
  /// the waiter throws an exception of its own (no exception object is
  /// shared between the lane and the waiting thread).
  struct Outcome {
    std::string out;
    std::string errorKind;  ///< errorKind() of the failure; empty on success
    std::string error;      ///< the failure's message
  };
  /// The outcome of an op that failed with `e`.
  static Outcome failure(const std::exception& e);

  struct Op {
    std::function<std::string(SimSession&)> fn;  ///< null for step ops
    std::uint64_t stepCycles = 0;                ///< remaining (step ops)
    std::uint64_t* cycle = nullptr;  ///< receives the cycle at completion
    std::shared_ptr<std::promise<Outcome>> done;
  };

  struct Entry {
    std::string id;
    std::unique_ptr<SimSession> session;  ///< null while evicted
    std::string spoolPath;                ///< non-empty while evicted
    std::deque<Op> queue;
    bool running = false;  ///< a turn (or eviction/open) owns `session`
    bool parked = false;   ///< back-pressure: outbox over high water
    bool closing = false;
    bool watching = false;  ///< mirror of session->watching() for eviction
    std::string outbox;    ///< pending stream bytes
    std::uint64_t lastUse = 0;  ///< LRU tick
    std::vector<std::shared_ptr<std::promise<void>>> closeWaiters;
  };

  /// Enqueues `fn` (or a step of `stepCycles`) and waits for the result.
  std::string enqueue(const std::string& sid,
                      std::function<std::string(SimSession&)> fn,
                      std::uint64_t stepCycles = 0,
                      std::uint64_t* cycle = nullptr);
  /// One scheduler turn for `sid`; runs on an executor lane.
  void runTurn(const std::string& sid);
  /// Claims a residency slot, evicting the LRU idle session if needed.
  /// Throws AdmissionError when over cap with nothing evictable or the
  /// eviction spool write fails.
  void reserveResidency();
  /// Restores an evicted session from its spool record (caller owns the
  /// entry). Validates the record's checksum; damage surfaces as EslError.
  void ensureResident(Entry& e);
  /// Finishes a close: fails queued ops, erases the entry, signals waiters.
  /// Called with the lock held; completes promises after unlocking.
  void finishClose(std::unique_lock<std::mutex>& lk, Entry& e);
  /// Durable-mode checkpoint of a resident session's record (caller owns the
  /// entry via `running`). Failures warn — the operation already succeeded.
  void checkpoint(Entry& e);
  /// Fails every queued op of `e` with DrainingError (lock held; promises
  /// completed after unlocking by the caller-provided sink).
  void failQueueDraining(Entry& e, std::vector<Op>& failed);
  void emitWarning(const std::string& message);

  Entry* findLocked(const std::string& sid);

  Config config_;
  Executor executor_;
  SpoolDir spool_;
  bool ownsSpoolDir_ = false;

  std::mutex m_;
  std::map<std::string, std::unique_ptr<Entry>> table_;
  std::uint64_t tick_ = 0;
  std::size_t resident_ = 0;
  bool draining_ = false;
  Stats stats_{};
};

}  // namespace esl::serve
