#include "elastic/endpoints.h"

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

std::optional<BitVec> TokenSource::tokenAt(std::uint64_t index) const {
  if (memoValid_ && memoIndex_ == index) return memoTok_;
  std::optional<BitVec> v = gen_(index);
  if (v) ESL_CHECK(v->width() == width_, "TokenSource: generated width mismatch");
  memoIndex_ = index;
  memoTok_ = v;
  memoValid_ = true;
  return v;
}

std::uint32_t TokenSource::recordWords() const { return stateWords<State>(); }

void TokenSource::reset(std::uint64_t* record) {
  emitted_ = 0;
  killedCount_ = 0;
  State s;
  s.offering = (!gate_ || gate_(0)) && tokenAt(0).has_value();
  recordView(*this, record).setState(s);
}

void TokenSource::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void TokenSource::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void TokenSource::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU64(s.index);
  w.writeBool(s.offering);
  w.writeU32(s.killCredit);
}

void TokenSource::unpackState(std::uint64_t* record, StateReader& r) {
  State s;
  s.index = r.readU64();
  s.offering = r.readBool();
  s.killCredit = r.readU32();
  recordView(*this, record).setState(s);
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

void TokenSink::reset(std::uint64_t* record) {
  recordView(*this, record).setState(State{false, antiBudget_});
  transfers_.clear();
}

void TokenSink::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void TokenSink::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void TokenSink::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU32(s.antiRemaining);
  w.writeBool(s.antiActive);
}

void TokenSink::unpackState(std::uint64_t* record, StateReader& r) {
  State s;
  s.antiRemaining = r.readU32();
  s.antiActive = r.readBool();
  recordView(*this, record).setState(s);
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

void NondetSource::reset(std::uint64_t* record) {
  const auto v = recordView(*this, record);
  v.setState(State{});
  v.setValue(v.blank());
}

void NondetSource::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void NondetSource::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void NondetSource::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const State s = v.state();
  w.writeBool(s.offering);
  w.writeBitVec(v.value());
  w.writeU32(s.killCredit);
  w.writeU32(s.idleStreak);
}

void NondetSource::unpackState(std::uint64_t* record, StateReader& r) {
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

void NondetSink::reset(std::uint64_t* record) {
  recordView(*this, record).setState(State{});
}

void NondetSink::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void NondetSink::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void NondetSink::packState(const std::uint64_t* record, StateWriter& w) const {
  const State s = recordView(*this, record).state();
  w.writeU32(s.stops);
  w.writeBool(s.antiActive);
}

void NondetSink::unpackState(std::uint64_t* record, StateReader& r) {
  State s;
  s.stops = r.readU32();
  s.antiActive = r.readBool();
  recordView(*this, record).setState(s);
}

}  // namespace esl
