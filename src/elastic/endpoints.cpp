#include "elastic/endpoints.h"

#include <algorithm>

namespace esl {

// ---------------------------------------------------------------------------
// TokenSource
// ---------------------------------------------------------------------------

TokenSource::TokenSource(std::string name, unsigned width, Generator gen, Gate gate)
    : Node(std::move(name)), width_(width), gen_(std::move(gen)), gate_(std::move(gate)) {
  ESL_CHECK(static_cast<bool>(gen_), "TokenSource: generator required");
  declareOutput(width);
}

TokenSource::Generator TokenSource::listOf(std::vector<std::uint64_t> values,
                                           unsigned width) {
  return [values = std::move(values), width](std::uint64_t i) -> std::optional<BitVec> {
    if (i >= values.size()) return std::nullopt;
    return BitVec(width, values[i]);
  };
}

TokenSource::Generator TokenSource::counting(unsigned width, std::uint64_t start) {
  return [width, start](std::uint64_t i) -> std::optional<BitVec> {
    return BitVec(width, start + i);
  };
}

std::uint32_t TokenSource::recordWords() const {
  return stateWords<State>() + 2 + payloadWords(width_);
}

void TokenSource::reset(std::uint64_t* record) const {
  const auto v = recordView(*this, record);
  std::fill(record, record + recordWords(), 0);  // an empty memo
  State s;
  s.offering = (!gate_ || gate_(0)) && v.hasToken(0);
  v.setState(s);
}

std::uint64_t TokenSource::killed(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).state().killed;
}

void TokenSource::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void TokenSource::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void TokenSource::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU64(s.index);
  w.writeBool(s.offering);
  w.writeU32(s.killCredit);
}

void TokenSource::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  State s = v.state();  // keeps the statistic
  s.index = r.readU64();
  s.offering = r.readBool();
  s.killCredit = r.readU32();
  v.setState(s);
}

void TokenSource::timing(TimingModel& m) const {
  m.launch({output(0), NetKind::kFwd}, 0.0);
}

// ---------------------------------------------------------------------------
// TokenSink
// ---------------------------------------------------------------------------

TokenSink::TokenSink(std::string name, unsigned width, Gate ready,
                     unsigned antiBudget, Gate antiGate)
    : Node(std::move(name)),
      width_(width),
      ready_(std::move(ready)),
      antiGate_(std::move(antiGate)),
      antiBudget_(antiBudget) {
  declareInput(width);
}

std::uint32_t TokenSink::recordWords() const { return stateWords<State>(); }

void TokenSink::reset(std::uint64_t* record) const {
  recordView(*this, record).setState(State{false, antiBudget_});
}

std::uint64_t TokenSink::received(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).state().received;
}

void TokenSink::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void TokenSink::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void TokenSink::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU32(s.antiRemaining);
  w.writeBool(s.antiActive);
}

void TokenSink::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  State s = v.state();  // keeps the statistic
  s.antiRemaining = r.readU32();
  s.antiActive = r.readBool();
  v.setState(s);
}

void TokenSink::timing(TimingModel& m) const {
  m.launch({input(0), NetKind::kBwd}, 0.0);
}

// ---------------------------------------------------------------------------
// NondetSource
// ---------------------------------------------------------------------------

NondetSource::NondetSource(std::string name, unsigned width, unsigned killCreditCap,
                           unsigned dataBits, unsigned maxIdle)
    : Node(std::move(name)),
      width_(width),
      cap_(killCreditCap),
      dataBits_(dataBits),
      maxIdle_(maxIdle) {
  ESL_CHECK(dataBits_ <= width_, "NondetSource: dataBits exceed width");
  declareOutput(width);
}

std::uint32_t NondetSource::recordWords() const {
  return stateWords<State>() + payloadWords(width_);
}

void NondetSource::reset(std::uint64_t* record) const {
  const auto v = recordView(*this, record);
  v.setState(State{});
  v.setValue(v.blank());
}

void NondetSource::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void NondetSource::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void NondetSource::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const State s = v.state();
  w.writeBool(s.offering);
  w.writeBitVec(v.value());
  w.writeU32(s.killCredit);
  w.writeU32(s.idleStreak);
}

void NondetSource::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  State s;
  s.offering = r.readBool();
  v.setValue(r.readPayload(width_, name()));
  s.killCredit = r.readU32();
  s.idleStreak = r.readU32();
  v.setState(s);
}

// ---------------------------------------------------------------------------
// NondetSink
// ---------------------------------------------------------------------------

NondetSink::NondetSink(std::string name, unsigned width, unsigned maxConsecutiveStops,
                       bool emitsAntiTokens)
    : Node(std::move(name)),
      width_(width),
      maxStops_(maxConsecutiveStops),
      emitsAnti_(emitsAntiTokens) {
  declareInput(width);
}

std::uint32_t NondetSink::recordWords() const { return stateWords<State>(); }

void NondetSink::reset(std::uint64_t* record) const {
  recordView(*this, record).setState(State{});
}

void NondetSink::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void NondetSink::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void NondetSink::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU32(s.stops);
  w.writeBool(s.antiActive);
}

void NondetSink::unpackState(std::uint64_t* record, StateReader& r) const {
  State s;
  s.stops = r.readU32();
  s.antiActive = r.readBool();
  recordView(*this, record).setState(s);
}

}  // namespace esl
