#include "serve/session.h"

#include <sstream>

#include "base/error.h"
#include "base/executor.h"
#include "elastic/endpoints.h"
#include "elastic/state_io.h"
#include "frontend/esl_format.h"

namespace esl::serve {

SimSession::SimSession(NetlistSpec spec, const std::string& origin, Options options)
    : origin_(origin), options_(options) {
  shell_.loadSpec(std::move(spec), origin);
  sim_ = makeSimulator();
}

std::unique_ptr<sim::Simulator> SimSession::makeSimulator() {
  sim::SimOptions opts;
  opts.checkProtocol = options_.checkProtocol;
  // Violations are reported through report(), shell-style, never thrown.
  opts.throwOnViolation = false;
  opts.seed = options_.seed;
  opts.crossCheckKernels = options_.crossCheck;
  opts.shards = options_.shards;
  opts.backend = options_.backend;
  auto sim = std::make_unique<sim::Simulator>(*shell_.netlist(), opts);
  if (trace_ != nullptr) sim->attachTrace(trace_.get());
  return sim;
}

std::string SimSession::command(const std::string& line) {
  std::istringstream is(line);
  std::string verb;
  is >> verb;
  // build/load/undo/redo replace the netlist the live simulator holds a
  // reference into; sim/tput/trace run a whole simulation inside one command,
  // outside the quantum scheduler that keeps a session's work bounded; save
  // writes to the daemon's filesystem. All have serve-native equivalents.
  for (const char* v : {"build", "load", "save", "undo", "redo", "sim", "tput",
                        "trace"}) {
    if (verb == v)
      throw EslError("'" + verb +
                     "' is not available in a serve session; use the serve "
                     "open/step/query/snapshot/watch ops instead");
  }
  return shell_.execute(line);
}

void SimSession::step(std::uint64_t cycles) { sim_->run(cycles); }

std::string SimSession::report() {
  return sim::runReport(*shell_.netlist(), sim_->ctx(), &sinkCarry_,
                        violationCarry_);
}

std::string SimSession::tputLine(const std::string& channel) {
  Netlist& nl = *shell_.netlist();
  const Channel* ch = nl.findChannel(channel);
  ESL_CHECK(ch != nullptr, "no channel named '" + channel + "'");
  std::uint64_t fwd = sim_->channelStatsOrZero(ch->id).fwdTransfers;
  const auto it = statCarry_.find(channel);
  if (it != statCarry_.end()) fwd += it->second.fwdTransfers;
  const std::uint64_t cycles = sim_->cycle();
  const double tput =
      cycles == 0 ? 0.0 : static_cast<double>(fwd) / static_cast<double>(cycles);
  return sim::throughputLine(channel, tput);
}

std::uint64_t SimSession::violationCount() {
  return sim_->ctx().protocolViolations().size() + violationCarry_;
}

std::vector<std::uint8_t> SimSession::snapshot() { return sim_->ctx().packState(); }

void SimSession::restore(const std::vector<std::uint8_t>& bytes) {
  // CLI --load-state semantics: a fresh simulator (statistics and carries
  // start at zero), then the snapshot's sequential state and cycle counter.
  // It is built aside, so a rejected snapshot leaves the session as it was.
  std::unique_ptr<sim::Simulator> fresh = makeSimulator();
  fresh->ctx().unpackState(bytes, "restore");
  sim_ = std::move(fresh);
  sinkCarry_.clear();
  statCarry_.clear();
  violationCarry_ = 0;
}

void SimSession::watch(const std::vector<std::string>& channels) {
  if (channels.empty()) {
    trace_.reset();
    sim_->attachTrace(nullptr);
    return;
  }
  auto trace = std::make_unique<sim::TraceRecorder>();
  Netlist& nl = *shell_.netlist();
  for (const std::string& name : channels) {
    const Channel* ch = nl.findChannel(name);
    ESL_CHECK(ch != nullptr, "no channel named '" + name + "'");
    trace->addChannel(ch->id, name);
  }
  trace_ = std::move(trace);
  sim_->attachTrace(trace_.get());
}

std::string SimSession::drainStream() {
  ESL_CHECK(trace_ != nullptr, "session is not watching any channels");
  return trace_->drainStreamText();
}

std::vector<std::uint8_t> SimSession::spoolSave() {
  Netlist& nl = *shell_.netlist();
  StateWriter w(StateKind::kSession);
  w.writeU32(static_cast<std::uint32_t>(options_.backend));
  w.writeU32(options_.shards);
  w.writeU64(options_.seed);
  w.writeBool(options_.checkProtocol);
  w.writeBool(options_.crossCheck);
  w.writeString(origin_);
  // The transformed design as .esl text: fromNetlist -> build is bit-identical
  // (a gated invariant), which is what makes the spool a faithful park.
  w.writeString(frontend::printEsl(NetlistSpec::fromNetlist(nl)));
  const std::size_t snapshot = w.beginSection();
  sim_->ctx().packSnapshot(w);
  w.endSection(snapshot);

  // Perf-side history, folded down to totals: existing carries plus whatever
  // the live simulator has accumulated since the last restore.
  std::map<std::string, std::uint64_t> sinks = sinkCarry_;
  for (const NodeId id : nl.nodeIds()) {
    if (const auto* sink = dynamic_cast<const TokenSink*>(&nl.node(id)))
      sinks[sink->name()] += sink->received(sim_->ctx());
  }
  w.writeU64(sinks.size());
  for (const auto& [name, n] : sinks) {
    w.writeString(name);
    w.writeU64(n);
  }
  std::map<std::string, sim::ChannelStats> stats = statCarry_;
  for (const ChannelId ch : nl.channelIds()) {
    const sim::ChannelStats live = sim_->channelStatsOrZero(ch);
    sim::ChannelStats& acc = stats[nl.channel(ch).name];
    acc.fwdTransfers += live.fwdTransfers;
    acc.kills += live.kills;
    acc.bwdTransfers += live.bwdTransfers;
  }
  w.writeU64(stats.size());
  for (const auto& [name, st] : stats) {
    w.writeString(name);
    w.writeU64(st.fwdTransfers);
    w.writeU64(st.kills);
    w.writeU64(st.bwdTransfers);
  }
  w.writeU64(violationCount());
  return w.seal();
}

std::unique_ptr<SimSession> SimSession::spoolLoad(
    const std::vector<std::uint8_t>& record) {
  StateReader r = StateReader::open(record, StateKind::kSession, "spool record");
  Options opts;
  const std::uint32_t backend = r.readU32();
  ESL_CHECK(backend <= static_cast<std::uint32_t>(SimContext::Backend::kCompiled),
            "spool record: unknown backend " + std::to_string(backend));
  opts.backend = static_cast<SimContext::Backend>(backend);
  opts.shards = r.readU32();
  Executor::checkLaneCount(opts.shards, "shard count");
  opts.seed = r.readU64();
  opts.checkProtocol = r.readBool();
  opts.crossCheck = r.readBool();
  const std::string origin = r.readString();
  const std::string esl = r.readString();
  auto session = std::make_unique<SimSession>(frontend::parseEsl(esl, origin),
                                              origin, opts);
  session->sim_->ctx().unpackSnapshot(r.section());
  const std::uint64_t sinkCount = r.readU64();
  for (std::uint64_t i = 0; i < sinkCount; ++i) {
    const std::string name = r.readString();
    session->sinkCarry_[name] = r.readU64();
  }
  const std::uint64_t statCount = r.readU64();
  for (std::uint64_t i = 0; i < statCount; ++i) {
    const std::string name = r.readString();
    sim::ChannelStats& st = session->statCarry_[name];
    st.fwdTransfers = r.readU64();
    st.kills = r.readU64();
    st.bwdTransfers = r.readU64();
  }
  session->violationCarry_ = r.readU64();
  ESL_CHECK(r.done(), "trailing bytes in spool record");
  return session;
}

}  // namespace esl::serve
