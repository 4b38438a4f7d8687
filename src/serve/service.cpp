#include "serve/service.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "base/fault_inject.h"
#include "serve/protocol.h"
#include "sim/state_file.h"

namespace esl::serve {

namespace {

bool validSessionId(const std::string& sid) {
  if (sid.empty() || sid.size() > 64) return false;
  for (const char c : sid) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Service::Service(Config config)
    : config_(std::move(config)), executor_(config_.workers) {
  ESL_CHECK(config_.quantumCycles > 0, "quantumCycles must be positive");
  ESL_CHECK(config_.maxResident > 0, "maxResident must be positive");
  if (config_.spoolDir.empty()) {
    char tmpl[] = "/tmp/esl-serve-spool-XXXXXX";
    ESL_CHECK(::mkdtemp(tmpl) != nullptr, "cannot create a spool directory");
    config_.spoolDir = tmpl;
    ownsSpoolDir_ = true;
  }
  ESL_CHECK(!config_.durable || !ownsSpoolDir_,
            "durable mode needs a persistent spool directory (set spoolDir)");
  spool_.open(config_.spoolDir, /*persistent=*/!ownsSpoolDir_);
  if (spool_.persistent()) {
    // Restart recovery: re-attach every session whose record verifies.
    // Re-attachment is lazy — entries start evicted and restore on first
    // touch, so a spool of thousands costs startup only a scan.
    std::vector<std::string> warnings;
    std::uint64_t quarantined = 0;
    const std::vector<std::string> found = spool_.recover(warnings, &quarantined);
    for (const std::string& w : warnings) emitWarning("recovery: " + w);
    stats_.quarantined = quarantined;
    for (const std::string& sid : found) {
      if (!validSessionId(sid)) {
        emitWarning("recovery: ignoring record with invalid session id '" +
                    sid + "'");
        continue;
      }
      auto e = std::make_unique<Entry>();
      e->id = sid;
      e->spoolPath = spool_.recordPath(sid);
      e->lastUse = ++tick_;
      table_.emplace(sid, std::move(e));
      ++stats_.recovered;
    }
  }
}

Service::~Service() {
  // Turns re-submit themselves while work remains, each before its own task
  // returns, so waitIdle() cannot wake between chunks of a chain. Parked
  // sessions with queued work hold no task, so this returns; the server is
  // expected to close every session before destroying the service.
  try {
    executor_.waitIdle();
  } catch (...) {
    // Turns catch their own exceptions into op promises; nothing expected.
  }
  if (ownsSpoolDir_) {
    // Private temp dir dies with the service. A persistent dir keeps its
    // records: that is the restart story.
    for (const auto& [id, e] : table_)
      if (!e->spoolPath.empty()) std::remove(e->spoolPath.c_str());
    ::rmdir(config_.spoolDir.c_str());
  }
}

void Service::emitWarning(const std::string& message) {
  if (config_.warn) {
    config_.warn(message);
    return;
  }
  std::fprintf(stderr, "esl serve: %s\n", message.c_str());
  std::fflush(stderr);
}

void Service::checkpoint(Entry& e) {
  if (!config_.durable || e.session == nullptr || e.session->watching()) return;
  try {
    spool_.writeRecord(e.id, e.session->spoolSave());
  } catch (const EslError& ex) {
    // The operation already succeeded in memory; losing one checkpoint
    // degrades crash coverage, not correctness.
    emitWarning("session '" + e.id +
                "': durable checkpoint failed: " + ex.what());
  }
}

Service::Entry* Service::findLocked(const std::string& sid) {
  const auto it = table_.find(sid);
  if (it == table_.end() || it->second->closing)
    throw NotFoundError("no session '" + sid + "'");
  return it->second.get();
}

std::string Service::open(const std::string& sid, NetlistSpec spec,
                          const std::string& origin,
                          SimSession::Options options) {
  ESL_CHECK(validSessionId(sid),
            "session id must be 1-64 chars of [A-Za-z0-9._-], got '" + sid + "'");
  {
    std::unique_lock<std::mutex> lk(m_);
    if (draining_)
      throw DrainingError("service is draining for shutdown; retry after restart");
    ESL_CHECK(table_.find(sid) == table_.end(),
              "session '" + sid + "' already exists");
    // Placeholder claims the name; `running` parks arriving ops in its queue
    // until the build below installs the session.
    auto e = std::make_unique<Entry>();
    e->id = sid;
    e->running = true;
    e->lastUse = ++tick_;
    table_.emplace(sid, std::move(e));
  }
  std::string status;
  try {
    reserveResidency();
    try {
      auto session = std::make_unique<SimSession>(std::move(spec), origin, options);
      Netlist& nl = session->netlist();
      status = "session '" + sid + "': " + std::to_string(nl.nodeIds().size()) +
               " nodes, " + std::to_string(nl.channelIds().size()) + " channels\n";
      Entry* installed = nullptr;
      {
        std::unique_lock<std::mutex> lk(m_);
        installed = table_.at(sid).get();
        installed->session = std::move(session);
        ++stats_.opened;
      }
      checkpoint(*installed);  // `running` still claims the entry
    } catch (...) {
      std::unique_lock<std::mutex> lk(m_);
      --resident_;
      throw;
    }
  } catch (...) {
    std::unique_lock<std::mutex> lk(m_);
    Entry* e = table_.at(sid).get();
    // Ops that raced in while the name was claimed fail with the close path.
    e->closing = true;
    e->running = false;
    finishClose(lk, *e);
    throw;
  }
  bool kickIt = false;
  {
    std::unique_lock<std::mutex> lk(m_);
    Entry* e = table_.at(sid).get();
    e->lastUse = ++tick_;
    if (e->closing) {
      finishClose(lk, *e);
      return status;
    }
    if (!e->queue.empty() && !e->parked)
      kickIt = true;
    else
      e->running = false;
  }
  if (kickIt)
    executor_.submit([this, sid] { runTurn(sid); });
  return status;
}

Service::Outcome Service::failure(const std::exception& e) {
  return {{}, errorKind(e), e.what()};
}

std::string Service::enqueue(const std::string& sid,
                             std::function<std::string(SimSession&)> fn,
                             std::uint64_t stepCycles, std::uint64_t* cycle) {
  auto done = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> fut = done->get_future();
  bool kickIt = false;
  {
    std::unique_lock<std::mutex> lk(m_);
    if (draining_)
      throw DrainingError("service is draining for shutdown; retry after restart");
    Entry* e = findLocked(sid);
    e->queue.push_back(Op{std::move(fn), stepCycles, cycle, done});
    e->lastUse = ++tick_;
    if (!e->running && !e->parked) {
      e->running = true;
      kickIt = true;
    }
  }
  if (kickIt)
    executor_.submit([this, sid] { runTurn(sid); });
  Outcome outcome = fut.get();
  if (!outcome.errorKind.empty()) throwKind(outcome.errorKind, outcome.error);
  return std::move(outcome.out);
}

std::string Service::command(const std::string& sid, const std::string& line) {
  return enqueue(sid, [line](SimSession& s) { return s.command(line); });
}

std::string Service::step(const std::string& sid, std::uint64_t cycles,
                          std::uint64_t* cycle) {
  if (cycles == 0)
    return enqueue(sid, [](SimSession& s) { return s.report(); }, 0, cycle);
  return enqueue(sid, nullptr, cycles, cycle);
}

std::string Service::sinks(const std::string& sid) {
  return enqueue(sid, [](SimSession& s) { return s.report(); });
}

std::string Service::tput(const std::string& sid, const std::string& channel) {
  return enqueue(sid, [channel](SimSession& s) { return s.tputLine(channel); });
}

std::uint64_t Service::cycle(const std::string& sid) {
  return std::stoull(
      enqueue(sid, [](SimSession& s) { return std::to_string(s.cycle()); }));
}

std::vector<std::uint8_t> Service::snapshot(const std::string& sid,
                                            std::uint64_t* cycle) {
  const std::string bytes = enqueue(
      sid,
      [](SimSession& s) {
        const std::vector<std::uint8_t> snap = s.snapshot();
        return std::string(snap.begin(), snap.end());
      },
      0, cycle);
  return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

void Service::restore(const std::string& sid, std::vector<std::uint8_t> bytes,
                      std::uint64_t* cycle) {
  enqueue(
      sid,
      [bytes = std::move(bytes)](SimSession& s) {
        s.restore(bytes);
        return std::string("restored at cycle ") + std::to_string(s.cycle()) +
               "\n";
      },
      0, cycle);
}

void Service::watch(const std::string& sid, std::vector<std::string> channels) {
  enqueue(sid, [channels = std::move(channels)](SimSession& s) {
    s.watch(channels);
    return std::string();
  });
}

std::string Service::drain(const std::string& sid, std::size_t maxBytes,
                           bool* more) {
  std::string out;
  bool kickIt = false;
  {
    std::unique_lock<std::mutex> lk(m_);
    Entry* e = findLocked(sid);
    const std::size_t n = std::min(maxBytes, e->outbox.size());
    out = e->outbox.substr(0, n);
    e->outbox.erase(0, n);
    if (more != nullptr) *more = !e->outbox.empty();
    e->lastUse = ++tick_;
    if (e->parked && e->outbox.size() <= config_.streamHighWater / 2) {
      e->parked = false;
      if (!e->running && !e->queue.empty()) {
        e->running = true;
        kickIt = true;
      }
    }
  }
  if (kickIt)
    executor_.submit([this, sid] { runTurn(sid); });
  return out;
}

void Service::close(const std::string& sid) {
  std::future<void> fut;
  {
    std::unique_lock<std::mutex> lk(m_);
    Entry* e = findLocked(sid);
    e->closing = true;
    if (!e->running) {
      finishClose(lk, *e);
      return;
    }
    auto waiter = std::make_shared<std::promise<void>>();
    fut = waiter->get_future();
    e->closeWaiters.push_back(std::move(waiter));
  }
  fut.get();
}

void Service::failQueueDraining(Entry& e, std::vector<Op>& failed) {
  for (Op& op : e.queue) failed.push_back(std::move(op));
  e.queue.clear();
}

std::size_t Service::drainAndSpool() {
  ESL_CHECK(spool_.persistent(),
            "drainAndSpool needs a persistent spool directory");
  {
    std::unique_lock<std::mutex> lk(m_);
    draining_ = true;
  }
  // In-flight turns observe draining_ at their next quantum boundary and
  // abort; no new turns start. After the executor empties, parked or idle
  // sessions may still hold queued ops — fail those here.
  try {
    executor_.waitIdle();
  } catch (...) {
  }
  std::vector<Op> failed;
  std::vector<Entry*> toSpool;
  std::size_t spooled = 0;
  {
    std::unique_lock<std::mutex> lk(m_);
    for (const auto& [id, e] : table_) {
      failQueueDraining(*e, failed);
      if (e->closing) continue;
      if (e->session == nullptr) {
        // Already evicted: its durable record is the spooled state.
        if (!e->spoolPath.empty()) ++spooled;
        continue;
      }
      if (e->running) continue;  // an open() still installing; state not ours
      e->running = true;  // claims `session`; close() will wait for us
      toSpool.push_back(e.get());
    }
  }
  for (const Op& op : failed)
    op.done->set_value(failure(DrainingError(
        "step aborted at quantum boundary: service is draining for shutdown")));
  for (Entry* e : toSpool) {
    if (e->session->watching())
      emitWarning("session '" + e->id +
                  "': watch state is stream-local and will not survive the "
                  "restart");
    std::string spoolError;
    try {
      spool_.writeRecord(e->id, e->session->spoolSave());
    } catch (const EslError& ex) {
      spoolError = ex.what();
    }
    std::unique_lock<std::mutex> lk(m_);
    e->running = false;
    if (spoolError.empty()) {
      e->session.reset();
      e->spoolPath = spool_.recordPath(e->id);
      --resident_;
      ++stats_.evictions;
      ++spooled;
    } else {
      lk.unlock();
      emitWarning("session '" + e->id +
                  "': drain spool failed, state lost: " + spoolError);
      lk.lock();
    }
    if (e->closing) finishClose(lk, *e);
  }
  return spooled;
}

std::vector<std::string> Service::sessionIds() {
  std::unique_lock<std::mutex> lk(m_);
  std::vector<std::string> ids;
  ids.reserve(table_.size());
  for (const auto& [id, e] : table_)
    if (!e->closing) ids.push_back(id);
  return ids;
}

Service::Stats Service::stats() {
  std::unique_lock<std::mutex> lk(m_);
  Stats s = stats_;
  s.sessions = table_.size();
  s.resident = resident_;
  return s;
}

void Service::finishClose(std::unique_lock<std::mutex>& lk, Entry& e) {
  std::deque<Op> dropped = std::move(e.queue);
  auto waiters = std::move(e.closeWaiters);
  const std::string sid = e.id;
  if (e.session != nullptr) --resident_;
  table_.erase(sid);  // destroys e
  lk.unlock();
  // Remove the durable record too: a closed session must not resurrect on
  // restart. Covers both evicted records and durable-mode checkpoints.
  spool_.removeRecord(sid);
  for (const Op& op : dropped)
    op.done->set_value(failure(NotFoundError("session '" + sid + "' closed")));
  for (const auto& w : waiters) w->set_value();
}

void Service::reserveResidency() {
  while (true) {
    Entry* victim = nullptr;
    {
      std::unique_lock<std::mutex> lk(m_);
      if (resident_ < config_.maxResident) {
        ++resident_;
        stats_.peakResident =
            std::max<std::uint64_t>(stats_.peakResident, resident_);
        return;
      }
      for (const auto& [id, ep] : table_) {
        Entry& c = *ep;
        // Evictable = resident and fully idle. Watching sessions are pinned:
        // the trace letter table is stream state the spool does not carry.
        if (c.session == nullptr || c.running || c.closing || c.watching ||
            !c.queue.empty())
          continue;
        if (victim == nullptr || c.lastUse < victim->lastUse) victim = &c;
      }
      if (victim == nullptr) {
        ++stats_.denied;
        throw AdmissionError(
            "resident session cap (" + std::to_string(config_.maxResident) +
            ") reached and no idle session is evictable; close or drain "
            "sessions and retry");
      }
      victim->running = true;  // claims `session` for the spool write
    }
    std::string spoolError;
    try {
      spool_.writeRecord(victim->id, victim->session->spoolSave());
    } catch (const EslError& ex) {
      spoolError = ex.what();
    }
    bool kickIt = false;
    std::string vid;
    {
      std::unique_lock<std::mutex> lk(m_);
      vid = victim->id;
      victim->running = false;
      if (spoolError.empty()) {
        victim->session.reset();
        victim->spoolPath = spool_.recordPath(vid);
        --resident_;
        ++stats_.evictions;
      }
      if (victim->closing) {
        finishClose(lk, *victim);
      } else if (!victim->queue.empty() && !victim->parked) {
        victim->running = true;
        kickIt = true;
      }
    }
    if (kickIt)
      executor_.submit([this, vid] { runTurn(vid); });
    if (!spoolError.empty()) {
      // Graceful degradation: an unwritable spool (disk full, injected
      // fault) refuses the admission instead of crashing the daemon. The
      // victim stays resident and intact.
      std::unique_lock<std::mutex> lk(m_);
      ++stats_.denied;
      lk.unlock();
      throw AdmissionError("cannot spool session '" + vid +
                           "' to make room: " + spoolError +
                           "; admission refused");
    }
  }
}

void Service::ensureResident(Entry& e) {
  if (e.session != nullptr) return;
  reserveResidency();
  try {
    auto session = SimSession::spoolLoad(spool_.readRecord(e.id));
    {
      std::unique_lock<std::mutex> lk(m_);
      e.session = std::move(session);
      e.spoolPath.clear();
      ++stats_.restores;
    }
    // Durable mode keeps the on-disk record: it still matches the restored
    // state exactly, and the next completed op rewrites it. Otherwise the
    // record would go stale the moment the session steps — remove it so a
    // crash can never resurrect an outdated state.
    if (!config_.durable) spool_.removeRecord(e.id);
  } catch (...) {
    std::unique_lock<std::mutex> lk(m_);
    --resident_;
    throw;
  }
}

void Service::runTurn(const std::string& sid) {
  Entry* e = nullptr;
  Op op;
  bool isStep = false;
  {
    std::unique_lock<std::mutex> lk(m_);
    const auto it = table_.find(sid);
    if (it == table_.end()) return;
    e = it->second.get();
    if (e->closing) {
      finishClose(lk, *e);
      return;
    }
    if (draining_) {
      // Abort at the quantum boundary: fail everything queued (including a
      // mid-flight step op still at the front) and stop. drainAndSpool()
      // spools the session's current state once the executor empties.
      std::vector<Op> failed;
      failQueueDraining(*e, failed);
      e->running = false;
      lk.unlock();
      for (const Op& f : failed)
        f.done->set_value(failure(DrainingError(
            "step aborted at quantum boundary: service is draining for "
            "shutdown")));
      return;
    }
    if (e->parked || e->queue.empty()) {
      e->running = false;
      return;
    }
    isStep = e->queue.front().stepCycles > 0;
    if (isStep) {
      op = e->queue.front();  // stays queued until its last chunk completes
    } else {
      op = std::move(e->queue.front());
      e->queue.pop_front();
    }
  }
  try {
    ensureResident(*e);
    if (!isStep) {
      std::string out = op.fn(*e->session);
      {
        std::unique_lock<std::mutex> lk(m_);
        e->watching = e->session->watching();
        ++stats_.ops;
      }
      checkpoint(*e);
      if (op.cycle != nullptr) *op.cycle = e->session->cycle();
      op.done->set_value({std::move(out), {}, {}});
    } else {
      std::uint64_t remaining = 0;
      {
        std::unique_lock<std::mutex> lk(m_);
        remaining = e->queue.front().stepCycles;
      }
      const std::uint64_t chunk = std::min(remaining, config_.quantumCycles);
      e->session->step(chunk);
      // The scheduler's kill-at-quantum-boundary hook: a kExit plan here is
      // the deterministic SIGKILL the crash tests recover from.
      fault::hitPoint("serve-quantum");
      std::string stream;
      if (e->session->watching()) stream = e->session->drainStream();
      bool opDone = false;
      {
        std::unique_lock<std::mutex> lk(m_);
        e->queue.front().stepCycles -= chunk;
        opDone = e->queue.front().stepCycles == 0;
        if (!stream.empty()) {
          e->outbox += stream;
          if (e->outbox.size() >= config_.streamHighWater) e->parked = true;
        }
        if (opDone) {
          e->queue.pop_front();
          ++stats_.ops;
        }
      }
      if (opDone) {
        checkpoint(*e);
        if (op.cycle != nullptr) *op.cycle = e->session->cycle();
        op.done->set_value({e->session->report(), {}, {}});
      }
    }
  } catch (...) {
    {
      std::unique_lock<std::mutex> lk(m_);
      // A failed step op is still at the front of the queue; drop it.
      if (isStep && !e->queue.empty() && e->queue.front().done == op.done)
        e->queue.pop_front();
    }
    Outcome failed;
    try {
      throw;
    } catch (const std::exception& ex) {
      failed = failure(ex);
    } catch (...) {
      failed = {{}, "internal", "unknown exception"};
    }
    op.done->set_value(std::move(failed));
  }
  bool resubmit = false;
  {
    std::unique_lock<std::mutex> lk(m_);
    e->lastUse = ++tick_;
    if (e->closing) {
      finishClose(lk, *e);
      return;
    }
    if (!e->parked && !e->queue.empty())
      resubmit = true;
    else
      e->running = false;
  }
  if (resubmit)
    executor_.submit([this, sid] { runTurn(sid); });
}

}  // namespace esl::serve
