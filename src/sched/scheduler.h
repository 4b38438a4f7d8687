// Scheduler interface for shared speculative modules (paper §4.1.1).
//
// A scheduler predicts, every clock cycle, which input channel of a shared
// module may use the shared resource — implicitly predicting the future value
// of the multiplexer select. For correctness it must satisfy the leads-to
// property (paper eq. 1): every valid input token is eventually served or
// killed; the practical mechanism is that the early-evaluation multiplexer
// asserts S+ on its *selected-but-empty* input (a "demand"), which the shared
// module reports to the scheduler so it can correct a misprediction.
//
// A scheduler object is only a policy: its per-run state is stateWords()
// words that the shared module keeps in its record (elastic/shared.h), so one
// netlist can be simulated by any number of contexts. Every method takes
// that state. predict() is called during combinational settling and MUST be
// a pure function of (state, the per-cycle choice bits); all state updates
// happen in observe(), called once per clock edge.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "elastic/state_io.h"

namespace esl::sched {

/// Everything a scheduler may learn at a clock edge, one bit per channel.
struct Observation {
  std::uint64_t valid = 0;   ///< input channel carried a token this cycle
  std::uint64_t demand = 0;  ///< output channel was selected-but-empty (mispredict)
  std::uint64_t served = 0;  ///< output channel completed a forward transfer
  std::uint64_t killed = 0;  ///< input token was cancelled by an anti-token
};

/// Whether channel `i`'s bit is set in an Observation mask.
inline bool has(std::uint64_t mask, unsigned i) { return (mask >> i) & 1; }
/// The highest channel set in a non-empty mask.
inline unsigned highest(std::uint64_t mask) {
  return 63 - static_cast<unsigned>(__builtin_clzll(mask));
}

/// Reads one of the per-cycle nondeterministic choice bits owned by the
/// enclosing shared module (used only by verification schedulers).
using ChoiceReader = std::function<bool(unsigned)>;

class Scheduler {
 public:
  /// Most channels one scheduler arbitrates (an Observation mask's bits).
  static constexpr unsigned kMaxChannels = 64;

  virtual ~Scheduler() = default;

  /// Number of channels this scheduler arbitrates.
  virtual unsigned channels() const = 0;

  /// Words of per-run state the shared module keeps for this scheduler.
  virtual std::uint32_t stateWords() const { return 0; }

  /// Channel predicted for the current cycle. Pure (see file comment).
  virtual unsigned predict(const std::uint64_t* state,
                           const ChoiceReader& choice) const = 0;

  /// Clock-edge update with the cycle's outcome.
  virtual void observe(std::uint64_t* /*state*/, const Observation& /*obs*/) const {}

  virtual void reset(std::uint64_t* /*state*/) const {}

  /// Nondeterministic choice bits consumed per cycle (verification only).
  virtual unsigned choiceBits() const { return 0; }

  /// Serialization of the state; unpackState throws EslError on a value the
  /// scheduler can never reach.
  virtual void packState(const std::uint64_t* /*state*/, StateWriter& /*w*/) const {}
  virtual void unpackState(std::uint64_t* /*state*/, StateReader& /*r*/) const {}

  virtual std::string name() const = 0;
};

/// Base for schedulers that correct mispredictions: when the early-eval mux
/// demands a channel (selected-but-empty stop), the prediction locks onto
/// that channel until its token is served or killed. Without the lock an
/// adversarial consumer can livelock the system — the mux's demand disappears
/// while the channel is routed, the scheduler drifts away, and the token is
/// never served (a leads-to violation our model checker finds).
///
/// State: the lock (channel + 1, 0 when none), its age, then baseWords() words
/// of the policy's own.
class CorrectingScheduler : public Scheduler {
 public:
  std::uint32_t stateWords() const final { return 2 + baseWords(); }
  unsigned predict(const std::uint64_t* state, const ChoiceReader& choice) const final;
  void observe(std::uint64_t* state, const Observation& obs) const final;
  void reset(std::uint64_t* state) const final;
  void packState(const std::uint64_t* state, StateWriter& w) const final;
  void unpackState(std::uint64_t* state, StateReader& r) const final;

  /// The correction lock ages out after this many cycles without service.
  /// A demand from the early-eval mux is always serviced within a couple of
  /// cycles (bounded-fair consumers), so a lock that persists longer is a
  /// *false* demand: an intervening elastic buffer back-pressuring an
  /// unrouted output looks identical to a mux demand at the shared module's
  /// ports, and without the age-out the scheduler would wedge on it.
  static constexpr unsigned kMaxLockAge = 4;

 protected:
  /// The policy's words, after the lock's two.
  virtual std::uint32_t baseWords() const { return 0; }
  /// Prediction when no correction is pending.
  virtual unsigned basePredict(const std::uint64_t* base,
                               const ChoiceReader& choice) const = 0;
  /// Policy-specific part of observe().
  virtual void observeBase(std::uint64_t* /*base*/, const Observation& /*obs*/) const {}
  virtual void resetBase(std::uint64_t* /*base*/) const {}
  virtual void packBase(const std::uint64_t* /*base*/, StateWriter& /*w*/) const {}
  virtual void unpackBase(std::uint64_t* /*base*/, StateReader& /*r*/) const {}
};

/// Always predicts a fixed channel. Relies entirely on demand correction;
/// this is the "always speculate no-error" scheduler of the §5.1/§5.2 case
/// studies (with correction toward the replay channel).
class StaticScheduler : public CorrectingScheduler {
 public:
  StaticScheduler(unsigned channels, unsigned pick);
  unsigned channels() const override { return channels_; }
  unsigned pick() const { return pick_; }
  std::string name() const override { return "static"; }

 protected:
  unsigned basePredict(const std::uint64_t*, const ChoiceReader&) const override {
    return pick_;
  }

 private:
  unsigned channels_;
  unsigned pick_;
};

/// Base of the policies that predict a current channel, kept in their first
/// word: round-robin, last-served and timeout.
class CurrentChannelScheduler : public CorrectingScheduler {
 public:
  explicit CurrentChannelScheduler(unsigned channels);
  unsigned channels() const override { return channels_; }

 protected:
  std::uint32_t baseWords() const override { return 1; }
  unsigned basePredict(const std::uint64_t* base, const ChoiceReader&) const override {
    return static_cast<unsigned>(base[0]);
  }
  void resetBase(std::uint64_t* base) const override { base[0] = 0; }
  void packBase(const std::uint64_t* base, StateWriter& w) const override {
    w.writeU32(static_cast<std::uint32_t>(base[0]));
  }
  void unpackBase(std::uint64_t* base, StateReader& r) const override;

 private:
  unsigned channels_;
};

/// Alternates channels every cycle; a demand overrides the rotation.
/// This is the scheduler that reproduces Table 1.
class RoundRobinScheduler : public CurrentChannelScheduler {
 public:
  using CurrentChannelScheduler::CurrentChannelScheduler;
  std::string name() const override { return "round-robin"; }

 protected:
  void observeBase(std::uint64_t* base, const Observation& obs) const override;
};

/// Predicts the channel that was most recently actually used (last-value
/// prediction); demands override immediately.
class LastServedScheduler : public CurrentChannelScheduler {
 public:
  using CurrentChannelScheduler::CurrentChannelScheduler;
  std::string name() const override { return "last-served"; }

 protected:
  void observeBase(std::uint64_t* base, const Observation& obs) const override;
};

/// Two-bit saturating counter between two channels (branch-predictor style).
/// State: the counter, 0..3; >=2 predicts channel 1.
class TwoBitScheduler : public CorrectingScheduler {
 public:
  TwoBitScheduler();
  unsigned channels() const override { return 2; }
  std::string name() const override { return "two-bit"; }

 protected:
  std::uint32_t baseWords() const override { return 1; }
  unsigned basePredict(const std::uint64_t* base, const ChoiceReader&) const override {
    return base[0] >= 2 ? 1 : 0;
  }
  void observeBase(std::uint64_t* base, const Observation& obs) const override;
  void resetBase(std::uint64_t* base) const override { base[0] = 1; }
  void packBase(const std::uint64_t* base, StateWriter& w) const override {
    w.writeU32(static_cast<std::uint32_t>(base[0]));
  }
  void unpackBase(std::uint64_t* base, StateReader& r) const override;
};

/// Perfect prediction: told the true channel of each upcoming firing.
/// `truth(k)` must return the channel of the k-th firing (0-based).
/// State: the firings so far.
class OracleScheduler : public CorrectingScheduler {
 public:
  OracleScheduler(unsigned channels, std::function<unsigned(std::uint64_t)> truth);
  unsigned channels() const override { return channels_; }
  std::string name() const override { return "oracle"; }

 protected:
  std::uint32_t baseWords() const override { return 1; }
  unsigned basePredict(const std::uint64_t* base, const ChoiceReader&) const override;
  void observeBase(std::uint64_t* base, const Observation& obs) const override;
  void resetBase(std::uint64_t* base) const override { base[0] = 0; }
  void packBase(const std::uint64_t* base, StateWriter& w) const override {
    w.writeU64(base[0]);
  }
  void unpackBase(std::uint64_t* base, StateReader& r) const override {
    base[0] = r.readU64();
  }

 private:
  unsigned channels_;
  std::function<unsigned(std::uint64_t)> truth_;
};

/// Last-served prediction with a stall timeout: if the predicted channel has
/// a valid token but nothing is served for `timeout` consecutive cycles, the
/// prediction rotates. Needed when elastic buffers sit between the shared
/// module and the early-evaluation mux (§4.1): the mux's misprediction demand
/// cannot reach the scheduler through the buffer, so liveness (eq. 1) must
/// come from the scheduler's own rotation. Its second word counts the stalled
/// cycles, 0..timeout.
class TimeoutScheduler : public CurrentChannelScheduler {
 public:
  TimeoutScheduler(unsigned channels, unsigned timeout = 1);
  unsigned timeout() const { return timeout_; }
  std::string name() const override { return "timeout"; }

 protected:
  std::uint32_t baseWords() const override { return 2; }
  void observeBase(std::uint64_t* base, const Observation& obs) const override;
  void resetBase(std::uint64_t* base) const override {
    base[0] = 0;
    base[1] = 0;
  }
  void packBase(const std::uint64_t* base, StateWriter& w) const override {
    CurrentChannelScheduler::packBase(base, w);
    w.writeU32(static_cast<std::uint32_t>(base[1]));
  }
  void unpackBase(std::uint64_t* base, StateReader& r) const override;

 private:
  unsigned timeout_;
};

/// Nondeterministic scheduler with bounded-fairness demand correction: free
/// choice each cycle, except that a demand locks the prediction onto the
/// demanded channel at once (CorrectingScheduler). Used by the verifier as an
/// executable over-approximation of "any scheduler satisfying the leads-to
/// property".
class BoundedFairScheduler : public CorrectingScheduler {
 public:
  explicit BoundedFairScheduler(unsigned channels);
  unsigned channels() const override { return channels_; }
  unsigned choiceBits() const override;
  std::string name() const override { return "bounded-fair"; }

 protected:
  unsigned basePredict(const std::uint64_t*, const ChoiceReader& choice) const override;

 private:
  unsigned channels_;
};

/// Deliberately unfair: ignores demands and always predicts channel 0.
/// Violates the leads-to property — negative test input for the verifier.
class StarvingScheduler : public Scheduler {
 public:
  explicit StarvingScheduler(unsigned channels) : channels_(channels) {}
  unsigned channels() const override { return channels_; }
  unsigned predict(const std::uint64_t*, const ChoiceReader&) const override {
    return 0;
  }
  std::string name() const override { return "starving"; }

 private:
  unsigned channels_;
};

}  // namespace esl::sched
