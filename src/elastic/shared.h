// Shared speculative module (paper §4.1, Fig. 4).
//
// k input channels compete for one copy of a combinational function F. Each
// cycle the scheduler predicts a channel; the controller forwards the
// predicted channel's token through F to the matching output channel
// (V+out_i = (sched==i) ∧ V+in_i), stops the other channels unless they are
// being killed, and passes anti-tokens from each output back to its input
// combinationally. The datapath is an input multiplexer followed by F
// (Fig. 4a), so sharing adds one mux delay to the function path.
//
// The scheduler observes — at the clock edge only, keeping it out of the
// combinational critical path (§4.1.2) — which channels were valid, served,
// killed, and *demanded* (selected-but-empty stop from the early-evaluation
// multiplexer), and corrects its prediction on misprediction.
#pragma once

#include <memory>

#include "elastic/node.h"
#include "elastic/node_view.h"
#include "sched/scheduler.h"

namespace esl {

/// Unary function applied by the shared datapath.
using SharedFn = std::function<BitVec(const BitVec&)>;

class SharedModule : public Node {
 public:
  SharedModule(std::string name, unsigned channels, unsigned inWidth,
               unsigned outWidth, SharedFn fn,
               std::unique_ptr<sched::Scheduler> scheduler,
               logic::Cost fnCost = {1.0, 1.0});

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  unsigned choiceCount() const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  /// §4.2: after a retry the scheduler may change its prediction, so shared
  /// module outputs are exempt from Retry+ persistence.
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kNonPersistent;
  }
  std::string kindName() const override { return "shared"; }

  unsigned channels() const { return channels_; }

  /// The channel predicted for the current cycle in `ctx` (e.g. for trace
  /// rows).
  unsigned prediction(SimContext& ctx) const {
    return predict(ObjectView<SharedModule>(ctx, *this));
  }

  /// Cycles in which some output carried a misprediction demand in `ctx`.
  std::uint64_t demandCycles(const SimContext& ctx) const;

  struct State {
    bool memoValid = false;          ///< the memo below holds fn_(memo operand)
    std::uint64_t demandCycles = 0;  ///< statistic, not packed
  };
  /// Record: State, a size-1 memo of fn_ (operand, then result: fn_ is pure,
  /// and retried and re-settled tokens would otherwise recompute it every
  /// evaluation), then the scheduler's state.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    const std::uint64_t* memoOperand() const { return this->record_ + kMemo; }
    auto memoResult() const { return this->payloadAt(resultAt(), this->outWidth(0)); }
    void setMemo(const BitVec& operand, const BitVec& result) const {
      this->setPayloadAt(kMemo, this->inWidth(0), operand);
      this->setPayloadAt(resultAt(), this->outWidth(0), result);
    }
    std::uint64_t* sched() const {
      return this->record_ + resultAt() + payloadWords(this->outWidth(0));
    }

   private:
    static constexpr std::uint32_t kMemo = stateWords<State>();
    std::uint32_t resultAt() const { return kMemo + payloadWords(this->inWidth(0)); }
  };

  /// The controller of Fig. 4b, once for both views (see
  /// elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  template <typename V>
  static unsigned predict(const V& v);

  unsigned channels_;
  unsigned inWidth_;
  unsigned outWidth_;
  SharedFn fn_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  logic::Cost fnCost_;
};

template <typename V>
unsigned SharedModule::predict(const V& v) {
  const SharedModule& m = v.node();
  const sched::ChoiceReader reader = [&v](unsigned b) { return v.choice(b); };
  const unsigned p = m.scheduler_->predict(v.sched(), reader);
  ESL_CHECK(p < m.channels_, "SharedModule: scheduler predicted out of range");
  return p;
}

template <typename V>
void SharedModule::comb(const V& v) {
  const SharedModule& m = v.node();
  State s = v.state();
  const unsigned prediction = predict(v);
  for (unsigned i = 0; i < m.channels_; ++i) {
    auto in = v.in(i);
    auto out = v.out(i);
    const bool routed = i == prediction;

    const bool inVf = in.vf();
    const bool outVf = routed && inVf;
    out.setVf(outVf);
    if (outVf) {
      if (!s.memoValid || !in.dataEqualsWords(v.memoOperand())) {
        const BitVec operand = in.data();
        const BitVec result = m.fn_(operand);
        ESL_CHECK(result.width() == m.outWidth_,
                  "SharedModule '" + m.name() + "': function returned wrong width");
        v.setMemo(operand, result);
        s.memoValid = true;
      }
      out.setData(v.memoResult());
    }

    // Anti-tokens pass straight through the controller (Fig. 4b): the module
    // is combinational, so the token seen at out_i *is* the token at in_i and
    // a kill annihilates it at both channel views at once.
    const bool anti = out.vb();
    in.setVb(anti);
    out.setSb(!inVf && in.sb());

    // Routed channel sees the downstream stop; others are stopped unless
    // being killed ("stops the other channel (unless it is killed)").
    in.setSf(!anti && (routed ? out.sf() : true));
  }
  v.setState(s);
}

template <typename V>
void SharedModule::edge(const V& v) {
  const SharedModule& m = v.node();
  State s = v.state();
  sched::Observation obs;
  for (unsigned i = 0; i < m.channels_; ++i) {
    const ChannelEvents in = v.in(i).events();
    const ChannelEvents out = v.out(i).events();
    const std::uint64_t bit = std::uint64_t{1} << i;
    if (in.vf) obs.valid |= bit;
    if (out.sf && !out.vf) obs.demand |= bit;  // selected-but-empty at the EE mux
    if (out.fwd) obs.served |= bit;
    if (in.kill) obs.killed |= bit;
  }
  if (obs.demand != 0) {
    ++s.demandCycles;
    v.setState(s);
  }
  m.scheduler_->observe(v.sched(), obs);
}

}  // namespace esl
