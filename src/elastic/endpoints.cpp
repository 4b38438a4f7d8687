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

void TokenSource::reset() {
  st_ = State{};
  emitted_ = 0;
  killedCount_ = 0;
  st_.offering = (!gate_ || gate_(0)) && tokenAt(0).has_value();
}

void TokenSource::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void TokenSource::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void TokenSource::packState(StateWriter& w) const {
  w.writeU64(st_.index);
  w.writeBool(st_.offering);
  w.writeU32(st_.killCredit);
}

void TokenSource::unpackState(StateReader& r) {
  st_.index = r.readU64();
  st_.offering = r.readBool();
  st_.killCredit = r.readU32();
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

void TokenSink::reset() {
  st_ = {false, antiBudget_};
  transfers_.clear();
}

void TokenSink::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void TokenSink::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void TokenSink::packState(StateWriter& w) const {
  w.writeU32(st_.antiRemaining);
  w.writeBool(st_.antiActive);
}

void TokenSink::unpackState(StateReader& r) {
  st_.antiRemaining = r.readU32();
  st_.antiActive = r.readBool();
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
      maxIdle_(maxIdle),
      value_(width) {
  ESL_CHECK(dataBits_ <= width_, "NondetSource: dataBits exceed width");
  declareOutput(width);
}

void NondetSource::reset() {
  st_ = State{};
  value_ = BitVec(width_);
}

void NondetSource::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void NondetSource::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void NondetSource::packState(StateWriter& w) const {
  w.writeBool(st_.offering);
  w.writeBitVec(value_);
  w.writeU32(st_.killCredit);
  w.writeU32(st_.idleStreak);
}

void NondetSource::unpackState(StateReader& r) {
  st_.offering = r.readBool();
  value_ = r.readPayload(width_, name());
  st_.killCredit = r.readU32();
  st_.idleStreak = r.readU32();
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

void NondetSink::reset() { st_ = State{}; }

void NondetSink::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void NondetSink::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void NondetSink::packState(StateWriter& w) const {
  w.writeU32(st_.stops);
  w.writeBool(st_.antiActive);
}

void NondetSink::unpackState(StateReader& r) {
  st_.stops = r.readU32();
  st_.antiActive = r.readBool();
}

}  // namespace esl
