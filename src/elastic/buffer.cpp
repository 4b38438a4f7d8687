#include "elastic/buffer.h"

#include <limits>

namespace esl {

// ---------------------------------------------------------------------------
// ElasticBuffer (Lf=1, Lb=1, C=capacity)
// ---------------------------------------------------------------------------

namespace {

/// State, then the ring of `capacity` token slots; in 64 bits, so a ring the
/// 32-bit record offsets cannot hold is refused instead of wrapping.
std::uint64_t ebRecordWords(unsigned capacity, unsigned width) {
  return stateWords<ElasticBuffer::State>() +
         std::uint64_t{capacity} * payloadWords(width);
}

}  // namespace

ElasticBuffer::ElasticBuffer(std::string name, unsigned width, unsigned capacity,
                             std::vector<BitVec> initTokens, unsigned antiCapacity,
                             int initAntiTokens)
    : Node(std::move(name)),
      width_(width),
      capacity_(capacity),
      antiCapacity_(antiCapacity),
      init_(std::move(initTokens)),
      initAnti_(initAntiTokens) {
  ESL_CHECK(capacity_ >= 2, "ElasticBuffer: capacity must be >= Lf+Lb = 2 "
                            "(use BrokenBuffer to study the violation)");
  ESL_CHECK(init_.size() <= capacity_, "ElasticBuffer: too many initial tokens");
  ESL_CHECK(initAnti_ >= 0 && static_cast<unsigned>(initAnti_) <= antiCapacity_,
            "ElasticBuffer: bad initial anti-token count");
  ESL_CHECK(init_.empty() || initAnti_ == 0,
            "ElasticBuffer: cannot initialize both tokens and anti-tokens");
  for (const BitVec& v : init_)
    ESL_CHECK(v.width() == width_, "ElasticBuffer: init token width mismatch");
  const std::uint64_t words = ebRecordWords(capacity_, width_);
  ESL_CHECK(words <= std::numeric_limits<std::uint32_t>::max(),
            "ElasticBuffer '" + Node::name() + "': capacity " +
                std::to_string(capacity_) + " at width " + std::to_string(width_) +
                " needs a record of " + std::to_string(words) +
                " words, above the limit of 4294967295");
  declareInput(width_);
  declareOutput(width_);
}

std::uint32_t ElasticBuffer::recordWords() const {
  return static_cast<std::uint32_t>(ebRecordWords(capacity_, width_));
}

void ElasticBuffer::reset(std::uint64_t* record) const {
  const auto v = recordView(*this, record);
  for (unsigned i = 0; i < init_.size(); ++i) v.setToken(i, init_[i]);
  v.setState(State{0, static_cast<unsigned>(init_.size()), initAnti_});
}

int ElasticBuffer::occupancy(const SimContext& ctx) const {
  const State s = recordView(*this, ctx.record(id())).state();
  return static_cast<int>(s.count) - s.anti;
}

void ElasticBuffer::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void ElasticBuffer::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void ElasticBuffer::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const State s = v.state();
  w.writeU32(s.count);
  for (unsigned i = 0; i < s.count; ++i) {
    unsigned idx = s.head + i;
    if (idx >= capacity_) idx -= capacity_;
    w.writeBitVec(v.token(idx));
  }
  w.writeU32(static_cast<std::uint32_t>(s.anti));
}

void ElasticBuffer::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  const unsigned n = r.readU32();
  ESL_CHECK(n <= capacity_,
            "ElasticBuffer::unpackState: token count exceeds capacity on " + name());
  for (unsigned i = 0; i < n; ++i) v.setToken(i, r.readPayload(width_, name()));
  const std::uint32_t anti = r.readU32();
  ESL_CHECK(anti <= antiCapacity_,
            "ElasticBuffer::unpackState: anti-token count exceeds the anti "
            "capacity on " + name());
  ESL_CHECK(n == 0 || anti == 0,
            "ElasticBuffer::unpackState: tokens and anti-tokens stored "
            "together on " + name());
  v.setState(State{0, n, static_cast<int>(anti)});
}

logic::Cost ElasticBuffer::cost() const {
  logic::Cost c = logic::ebCost(width_);
  // Extra latch ranks beyond the C=2 baseline.
  if (capacity_ > 2) c.area += (capacity_ - 2) * logic::latchCost(width_).area;
  return c;
}

void ElasticBuffer::timing(TimingModel& m) const {
  // Fully registered in both directions: launch both nets, no through-arcs.
  m.launch({output(0), NetKind::kFwd}, 1.0);
  m.launch({input(0), NetKind::kBwd}, 1.0);
}

// ---------------------------------------------------------------------------
// ElasticBuffer0 (Lf=1, Lb=0, C=1) — Fig. 5
// ---------------------------------------------------------------------------

ElasticBuffer0::ElasticBuffer0(std::string name, unsigned width,
                               std::optional<BitVec> initToken)
    : Node(std::move(name)), width_(width), init_(std::move(initToken)) {
  if (init_) ESL_CHECK(init_->width() == width_, "ElasticBuffer0: init width mismatch");
  declareInput(width_);
  declareOutput(width_);
}

std::uint32_t ElasticBuffer0::recordWords() const {
  return stateWords<State>() + payloadWords(width_);
}

void ElasticBuffer0::reset(std::uint64_t* record) const {
  const auto v = recordView(*this, record);
  v.setSlot(init_ ? *init_ : BitVec(width_));
  v.setState(State{init_.has_value()});
}

void ElasticBuffer0::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void ElasticBuffer0::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void ElasticBuffer0::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const bool full = v.state().full;
  w.writeBool(full);
  if (full) w.writeBitVec(v.slot());
}

void ElasticBuffer0::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  const bool full = r.readBool();
  if (full) v.setSlot(r.readPayload(width_, name()));
  v.setState(State{full});
}

logic::Cost ElasticBuffer0::cost() const { return logic::eb0Cost(width_); }

void ElasticBuffer0::timing(TimingModel& m) const {
  m.launch({output(0), NetKind::kFwd}, 1.0);
  // Combinational backward paths (§4.3: chaining these accumulates delay).
  m.arc({output(0), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  m.arc({input(0), NetKind::kFwd}, {input(0), NetKind::kBwd}, 1.0);
}

// ---------------------------------------------------------------------------
// BrokenBuffer — violates C >= Lf + Lb
// ---------------------------------------------------------------------------

BrokenBuffer::BrokenBuffer(std::string name, unsigned width)
    : Node(std::move(name)), width_(width) {
  declareInput(width_);
  declareOutput(width_);
}

std::uint32_t BrokenBuffer::recordWords() const {
  return stateWords<State>() + payloadWords(width_);
}

void BrokenBuffer::reset(std::uint64_t* record) const {
  recordView(*this, record).setState(State{});
}

void BrokenBuffer::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void BrokenBuffer::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void BrokenBuffer::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const State s = v.state();
  w.writeBool(s.full);
  if (s.full) w.writeBitVec(v.slot());
  w.writeBool(s.stopReg);
}

void BrokenBuffer::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  const bool full = r.readBool();
  if (full) v.setSlot(r.readPayload(width_, name()));
  v.setState(State{full, r.readBool()});
}

}  // namespace esl

namespace esl {

void ElasticBuffer::flowEdges(std::vector<FlowEdge>& out) const {
  out.push_back({input(0), output(0), 1.0, static_cast<double>(init_.size())});
}

void ElasticBuffer0::flowEdges(std::vector<FlowEdge>& out) const {
  out.push_back({input(0), output(0), 1.0, init_ ? 1.0 : 0.0});
}

}  // namespace esl
