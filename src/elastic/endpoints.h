// Environment nodes: token sources and sinks.
//
// Sources/sinks close a netlist for simulation and verification. They follow
// the SELF protocol faithfully: offered tokens persist until consumed
// (Retry+), emitted anti-tokens persist until delivered (Retry-), and sources
// absorb anti-tokens by cancelling the corresponding upcoming token — which is
// exactly what the open-system trace of Table 1 requires.
//
// Nondet* variants consume per-cycle choice bits so the model checker can
// quantify over all environments; their "fair" parameters bound consecutive
// refusals to keep liveness checkable: an environment that may refuse forever
// refutes every liveness property, and the model checker takes no fairness
// constraints, so a refusal counter in the node's state stands in for one.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

/// Produces the token stream `gen(0), gen(1), ...` (ended by nullopt).
/// `gate(cycle)` controls when the *next* token may first be offered.
class TokenSource : public Node {
 public:
  using Generator = std::function<std::optional<BitVec>(std::uint64_t index)>;
  using Gate = std::function<bool(std::uint64_t cycle)>;

  TokenSource(std::string name, unsigned width, Generator gen, Gate gate = {});

  /// Convenience: a fixed list of values offered back-to-back.
  static Generator listOf(std::vector<std::uint64_t> values, unsigned width);
  /// Convenience: endless stream counting up from `start`.
  static Generator counting(unsigned width, std::uint64_t start = 0);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Ungated sources only advance on output events (an owed kill is consumed
  /// at the edge of the backward-transfer cycle that created it); a gate makes
  /// the offer decision a function of the cycle counter.
  EdgeActivity edgeActivity() const override {
    return gate_ ? EdgeActivity::kEveryCycle : EdgeActivity::kOnEvents;
  }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  void timing(TimingModel& m) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "source"; }

  /// Tokens killed in `ctx` (by an anti-token on the channel or an owed
  /// kill).
  std::uint64_t killed(const SimContext& ctx) const;

  struct State {
    std::uint64_t index = 0;  ///< stream position of the next token
    bool offering = false;
    unsigned killCredit = 0;  ///< absorbed anti-tokens owed a token
    std::uint64_t killed = 0;  ///< statistic, not packed
  };
  /// Record: State, then a size-1 memo of gen_ — the index, a tag (0 empty,
  /// 1 the stream has ended there, 2 a token), the token. The stream is a
  /// pure function of the index, and a stalled token would otherwise be
  /// regenerated on every evaluation.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    /// Whether the stream has a token at `index` (then token() is it).
    bool hasToken(std::uint64_t index) const {
      std::uint64_t* const memo = this->record_ + kMemo;
      if (memo[1] == 0 || memo[0] != index) {
        const std::optional<BitVec> t = this->node().gen_(index);
        if (t) this->setPayloadAt(kMemo + 2, this->outWidth(0), *t);
        memo[0] = index;
        memo[1] = t ? 2 : 1;
      }
      return memo[1] == 2;
    }
    auto token() const { return this->payloadAt(kMemo + 2, this->outWidth(0)); }

   private:
    static constexpr std::uint32_t kMemo = stateWords<State>();
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
  Generator gen_;
  Gate gate_;
};

/// Consumes tokens; readiness controlled by `ready(cycle)`; can inject a
/// budget of anti-tokens upstream (`antiBudget` released by `antiGate`).
/// Counts what it receives; the transfer stream itself — the observable
/// behaviour for transfer equivalence (paper §3.1) — is logged by a context
/// asked to (SimContext::logTransfers on input(0)).
class TokenSink : public Node {
 public:
  using Gate = std::function<bool(std::uint64_t cycle)>;

  TokenSink(std::string name, unsigned width, Gate ready = {},
            unsigned antiBudget = 0, Gate antiGate = {});

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Counts transfers and resolves its own anti-tokens, all channel events —
  /// except the anti gate, which opens as a function of the cycle counter.
  EdgeActivity edgeActivity() const override {
    return antiGate_ ? EdgeActivity::kEveryCycle : EdgeActivity::kOnEvents;
  }
  /// The readiness and anti gates read the cycle counter inside evalComb.
  bool evalReadsPerCycleInputs() const override {
    return static_cast<bool>(ready_) || static_cast<bool>(antiGate_);
  }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "sink"; }

  /// Tokens received in `ctx`.
  std::uint64_t received(const SimContext& ctx) const;

  /// True when behaviour depends on gate closures (then the sink can only be
  /// serialized if it was built from a registry gate spec).
  bool hasGates() const {
    return static_cast<bool>(ready_) || static_cast<bool>(antiGate_);
  }
  unsigned antiBudget() const { return antiBudget_; }

  struct State {
    bool antiActive = false;     ///< an emitted anti-token awaits delivery
    unsigned antiRemaining = 0;  ///< anti-token budget left
    std::uint64_t received = 0;  ///< statistic, not packed
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
  Gate ready_;
  Gate antiGate_;
  unsigned antiBudget_;
};

/// Verification source: nondeterministically offers tokens (1 choice bit) and
/// optionally picks the low `dataBits` of the payload nondeterministically
/// (one extra choice bit each; the value persists while the token retries).
/// Bounded anti-token absorption (killCredit capped, back-pressured via S-).
/// Bounded-fair: after `maxIdle` consecutive refusals an offer is forced, so
/// liveness properties are checkable (see the file comment).
class NondetSource : public Node {
 public:
  NondetSource(std::string name, unsigned width, unsigned killCreditCap = 2,
               unsigned dataBits = 0, unsigned maxIdle = 2);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  unsigned choiceCount() const override { return 1 + dataBits_; }
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "nondet-source"; }

  unsigned width() const { return width_; }
  unsigned killCreditCap() const { return cap_; }
  unsigned dataBits() const { return dataBits_; }
  unsigned maxIdle() const { return maxIdle_; }

  struct State {
    bool offering = false;    ///< an offered token persists (Retry+)
    unsigned killCredit = 0;  ///< absorbed anti-tokens owed a token
    unsigned idleStreak = 0;  ///< consecutive cycles without an offer
  };
  /// Record: State, then the held payload.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    auto value() const { return this->payloadAt(kValue, this->outWidth(0)); }
    template <typename P>
    void setValue(const P& x) const {
      this->setPayloadAt(kValue, this->outWidth(0), x);
    }
    auto blank() const { return this->zeroPayload(this->outWidth(0)); }

   private:
    static constexpr std::uint32_t kValue = stateWords<State>();
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  /// Offer decision this cycle.
  template <typename V>
  static bool offeringNow(const V& v, const State& s) {
    return s.offering || v.choice(0) || s.idleStreak >= v.node().maxIdle_;
  }
  /// Payload this cycle: held while offering (Retry+ persistence), drawn
  /// from the choice bits otherwise.
  template <typename V>
  static auto valueNow(const V& v, const State& s) -> decltype(v.blank()) {
    if (s.offering) return v.value();
    auto x = v.blank();
    for (unsigned b = 0; b < v.node().dataBits_; ++b) x.setBit(b, v.choice(1 + b));
    return x;
  }

  unsigned width_;
  unsigned cap_;
  unsigned dataBits_;
  unsigned maxIdle_;
};

/// Verification sink: nondeterministically stops (1 choice bit), but at most
/// `maxConsecutiveStops` cycles in a row (bounded fairness). Optionally also
/// nondeterministically emits anti-tokens (second choice bit).
class NondetSink : public Node {
 public:
  NondetSink(std::string name, unsigned width, unsigned maxConsecutiveStops = 2,
             bool emitsAntiTokens = false);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  unsigned choiceCount() const override { return emitsAnti_ ? 2u : 1u; }
  std::string kindName() const override { return "nondet-sink"; }

  unsigned width() const { return width_; }
  unsigned maxConsecutiveStops() const { return maxStops_; }
  bool emitsAntiTokens() const { return emitsAnti_; }

  struct State {
    bool antiActive = false;  ///< an emitted anti-token awaits delivery
    unsigned stops = 0;       ///< consecutive stop cycles so far
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
  unsigned maxStops_;
  bool emitsAnti_;
};

// --- the handshakes ----------------------------------------------------------

template <typename V>
void TokenSource::comb(const V& v) {
  auto out = v.out(0);
  const State s = v.state();
  // A token owed to an absorbed anti-token is never shown.
  const bool offer = s.offering && v.hasToken(s.index) && s.killCredit == 0;
  out.setVf(offer);
  if (offer) out.setData(v.token());
  out.setSb(false);  // sources always absorb anti-tokens
}

template <typename V>
void TokenSource::edge(const V& v) {
  const ChannelEvents out = v.out(0).events();
  const TokenSource& src = v.node();
  State s = v.state();
  if (out.kill) {
    ++s.index;
    ++s.killed;
    s.offering = false;
  } else if (out.fwd) {
    ++s.index;
    s.offering = false;
  } else if (out.bwd) {
    ++s.killCredit;
  }

  // An owed kill silently consumes the next available token (one per cycle).
  if (s.killCredit > 0 && v.hasToken(s.index) && !out.vf) {
    ++s.index;
    --s.killCredit;
    ++s.killed;
    s.offering = false;
  }

  // Offer the next token when the gate opens for the upcoming cycle.
  if (!s.offering && (!src.gate_ || src.gate_(v.cycle() + 1)) &&
      v.hasToken(s.index) && s.killCredit == 0)
    s.offering = true;
  v.setState(s);
}

template <typename V>
void TokenSink::comb(const V& v) {
  auto in = v.in(0);
  const State s = v.state();
  const TokenSink& sink = v.node();
  const bool wantAnti = s.antiActive || (s.antiRemaining > 0 && sink.antiGate_ &&
                                         sink.antiGate_(v.cycle()));
  in.setVb(wantAnti);
  // Kill and stop are mutually exclusive; anti-token emission wins.
  in.setSf(!wantAnti && sink.ready_ && !sink.ready_(v.cycle()));
}

template <typename V>
void TokenSink::edge(const V& v) {
  const ChannelEvents in = v.in(0).events();
  if (!in.fwd && !in.vb) return;
  State s = v.state();
  if (in.fwd) ++s.received;
  if (in.vb) {
    if (in.vf || !in.sb) {  // delivered: killed a token or moved upstream
      ESL_ASSERT(s.antiRemaining > 0);
      --s.antiRemaining;
      s.antiActive = false;
    } else {
      s.antiActive = true;  // Retry-: persist until delivered
    }
  }
  v.setState(s);
}

template <typename V>
void NondetSource::comb(const V& v) {
  auto out = v.out(0);
  const State s = v.state();
  const bool offer = offeringNow(v, s) && s.killCredit == 0;
  out.setVf(offer);
  if (offer) out.setData(valueNow(v, s));
  out.setSb(!offer && s.killCredit >= v.node().cap_);
}

template <typename V>
void NondetSource::edge(const V& v) {
  const ChannelEvents out = v.out(0).events();
  State s = v.state();
  bool offered = offeringNow(v, s);
  const auto value = valueNow(v, s);
  if (out.kill || out.fwd) offered = false;
  if (out.bwd) ++s.killCredit;
  // An owed kill annihilates the (hidden) offered token.
  if (offered && s.killCredit > 0) {
    offered = false;
    --s.killCredit;
  }
  s.offering = offered;
  v.setValue(offered ? value : v.blank());
  // Bounded fairness: count consecutive cycles without an offer (the offer
  // decision re-queried after the update above).
  if (offeringNow(v, s))
    s.idleStreak = 0;
  else if (s.idleStreak < v.node().maxIdle_)
    ++s.idleStreak;
  v.setState(s);
}

template <typename V>
void NondetSink::comb(const V& v) {
  auto in = v.in(0);
  const State s = v.state();
  const NondetSink& sink = v.node();
  const bool anti = s.antiActive || (sink.emitsAnti_ && v.choice(1));
  in.setVb(anti);
  // Bounded fairness: never more than maxConsecutiveStops stops in a row.
  in.setSf(!anti && s.stops < sink.maxStops_ && v.choice(0));
}

template <typename V>
void NondetSink::edge(const V& v) {
  const ChannelEvents in = v.in(0).events();
  State s = v.state();
  const unsigned maxStops = v.node().maxStops_;
  s.stops = in.sf ? s.stops + 1 : 0;
  if (s.stops > maxStops) s.stops = maxStops;
  if (in.vb) s.antiActive = !(in.vf || !in.sb);  // persists until delivered
  v.setState(s);
}

}  // namespace esl
