#include "sched/scheduler.h"

#include <algorithm>

namespace esl::sched {

// --- CorrectingScheduler ----------------------------------------------------

unsigned CorrectingScheduler::predict(const std::uint64_t* state,
                                      const ChoiceReader& choice) const {
  if (state[0] != 0) return static_cast<unsigned>(state[0] - 1);
  const unsigned p = basePredict(state + 2, choice);
  ESL_CHECK(p < channels(), "scheduler: base prediction out of range");
  return p;
}

void CorrectingScheduler::observe(std::uint64_t* state, const Observation& obs) const {
  // Release the lock once the owed channel is served or its token killed,
  // or when it ages out (false demand from an intervening buffer).
  if (state[0] != 0) {
    const auto i = static_cast<unsigned>(state[0] - 1);
    if (has(obs.served, i) || has(obs.killed, i) || ++state[1] > kMaxLockAge) {
      state[0] = 0;
      state[1] = 0;
    }
  }
  // A new demand (selected-but-empty) locks the prediction onto that channel.
  // Of several, the highest wins, and the lock restarts its age (each demand
  // in turn moves it).
  if (obs.demand != 0) {
    const std::uint64_t lock = highest(obs.demand) + 1u;
    if (state[0] != lock || (obs.demand & (obs.demand - 1)) != 0) {
      state[0] = lock;
      state[1] = 0;
    }
  }
  observeBase(state + 2, obs);
}

void CorrectingScheduler::reset(std::uint64_t* state) const {
  state[0] = 0;
  state[1] = 0;
  resetBase(state + 2);
}

void CorrectingScheduler::packState(const std::uint64_t* state, StateWriter& w) const {
  w.writeU32(static_cast<std::uint32_t>(state[0]));
  w.writeU32(static_cast<std::uint32_t>(state[1]));
  packBase(state + 2, w);
}

void CorrectingScheduler::unpackState(std::uint64_t* state, StateReader& r) const {
  state[0] = r.readU32();
  ESL_CHECK(state[0] <= channels(), "unpackState: scheduler lock channel out of range");
  state[1] = r.readU32();
  ESL_CHECK(state[1] <= kMaxLockAge, "unpackState: scheduler lock age out of range");
  unpackBase(state + 2, r);
}

// --- StaticScheduler --------------------------------------------------------

StaticScheduler::StaticScheduler(unsigned channels, unsigned pick)
    : channels_(channels), pick_(pick) {
  ESL_CHECK(pick < channels, "StaticScheduler: pick out of range");
}

// --- CurrentChannelScheduler ----------------------------------------------------

CurrentChannelScheduler::CurrentChannelScheduler(unsigned channels)
    : channels_(channels) {
  ESL_CHECK(channels >= 1, "scheduler: need at least one channel");
}

void CurrentChannelScheduler::unpackBase(std::uint64_t* base, StateReader& r) const {
  base[0] = r.readU32();
  ESL_CHECK(base[0] < channels_, "unpackState: " + name() + " channel out of range");
}

// --- RoundRobinScheduler ----------------------------------------------------

void RoundRobinScheduler::observeBase(std::uint64_t* base,
                                      const Observation& obs) const {
  // The rotation advances every cycle; a demand re-anchors it (Table 1).
  base[0] = obs.demand != 0 ? highest(obs.demand) : (base[0] + 1) % channels();
}

// --- LastServedScheduler ----------------------------------------------------

void LastServedScheduler::observeBase(std::uint64_t* base,
                                      const Observation& obs) const {
  if (obs.served != 0) base[0] = highest(obs.served);
  if (obs.demand != 0) base[0] = highest(obs.demand);
}

// --- TwoBitScheduler --------------------------------------------------------

TwoBitScheduler::TwoBitScheduler() = default;

void TwoBitScheduler::observeBase(std::uint64_t* base, const Observation& obs) const {
  std::uint64_t& counter = base[0];
  if (obs.demand != 0) {
    // A demand is ground truth about the current select; saturate toward it.
    counter = highest(obs.demand) == 1 ? 3 : 0;
    return;
  }
  if (has(obs.served, 1) && counter < 3) ++counter;
  if (has(obs.served, 0) && counter > 0) --counter;
}

void TwoBitScheduler::unpackBase(std::uint64_t* base, StateReader& r) const {
  base[0] = r.readU32();
  ESL_CHECK(base[0] <= 3, "unpackState: two-bit counter out of range");
}

// --- OracleScheduler --------------------------------------------------------

OracleScheduler::OracleScheduler(unsigned channels,
                                 std::function<unsigned(std::uint64_t)> truth)
    : channels_(channels), truth_(std::move(truth)) {
  ESL_CHECK(static_cast<bool>(truth_), "OracleScheduler: truth function required");
}

unsigned OracleScheduler::basePredict(const std::uint64_t* base,
                                      const ChoiceReader&) const {
  const unsigned t = truth_(base[0]);
  ESL_CHECK(t < channels_, "OracleScheduler: truth out of range");
  return t;
}

void OracleScheduler::observeBase(std::uint64_t* base, const Observation& obs) const {
  base[0] += static_cast<unsigned>(__builtin_popcountll(obs.served));
}

// --- TimeoutScheduler ---------------------------------------------------------

TimeoutScheduler::TimeoutScheduler(unsigned channels, unsigned timeout)
    : CurrentChannelScheduler(channels), timeout_(timeout) {
  ESL_CHECK(timeout >= 1, "TimeoutScheduler: timeout must be positive");
}

void TimeoutScheduler::observeBase(std::uint64_t* base, const Observation& obs) const {
  std::uint64_t& current = base[0];
  std::uint64_t& stalled = base[1];
  if (obs.served != 0) current = highest(obs.served);  // last-value prediction
  if (obs.demand != 0) current = highest(obs.demand);
  // Valid work exists but nothing moved: count toward the rotation timeout.
  if (obs.served != 0 || obs.valid == 0) {
    stalled = 0;
  } else if (++stalled > timeout_) {
    current = (current + 1) % channels();
    stalled = 0;
  }
}

void TimeoutScheduler::unpackBase(std::uint64_t* base, StateReader& r) const {
  CurrentChannelScheduler::unpackBase(base, r);
  base[1] = r.readU32();
  ESL_CHECK(base[1] <= timeout_, "unpackState: timeout stall count out of range");
}

// --- BoundedFairScheduler ---------------------------------------------------

BoundedFairScheduler::BoundedFairScheduler(unsigned channels) : channels_(channels) {
  ESL_CHECK(channels >= 1, "BoundedFairScheduler: need at least one channel");
}

unsigned BoundedFairScheduler::basePredict(const std::uint64_t*,
                                           const ChoiceReader& choice) const {
  unsigned idx = 0;
  for (unsigned b = 0; b < choiceBits(); ++b)
    if (choice(b)) idx |= 1u << b;
  return idx % channels_;
}

unsigned BoundedFairScheduler::choiceBits() const {
  unsigned bits = 0;
  while ((1u << bits) < channels_) ++bits;
  return bits == 0 ? 1 : bits;
}

}  // namespace esl::sched
