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

  void reset(std::uint64_t* record) override;
  void evalComb(SimContext& ctx) override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  void clockEdge(SimContext& ctx) override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) override;
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
  sched::Scheduler& scheduler() { return *scheduler_; }

  /// The channel predicted for the current cycle (e.g. for trace rows).
  unsigned prediction(SimContext& ctx) {
    return predict(ObjectView<SharedModule>(ctx, *this));
  }

  /// Tokens served per channel (forward transfers on the outputs).
  const std::vector<std::uint64_t>& servedPerChannel() const { return served_; }
  /// Cycles in which some output carried a misprediction demand.
  std::uint64_t demandCycles() const { return demandCycles_; }
  std::uint64_t totalServed() const;

  /// The controller of Fig. 4b, once for both views (see
  /// elastic/node_view.h). All of its state — scheduler, memo — lives in
  /// node(), so both views are ports only.
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

  std::vector<std::uint64_t> served_;
  std::uint64_t demandCycles_ = 0;

  // Size-1 memo of the last fn_ computation (fn_ is pure; retried and
  // re-settled tokens would otherwise recompute it every evaluation).
  bool memoValid_ = false;
  BitVec memoIn_;
  BitVec memoOut_;

  // Scratch reused across cycles to keep the per-cycle path allocation-free.
  unsigned lastPrediction_ = 0;  ///< prediction from the latest evalComb
  std::vector<bool> validScratch_;
  sched::Observation obsScratch_;
};

template <typename V>
unsigned SharedModule::predict(const V& v) {
  SharedModule& m = v.node();
  m.validScratch_.resize(m.channels_);
  for (unsigned i = 0; i < m.channels_; ++i) m.validScratch_[i] = v.in(i).vf();
  const sched::ChoiceReader reader = [&v](unsigned b) { return v.choice(b); };
  const unsigned p = m.scheduler_->predict(m.validScratch_, reader);
  ESL_CHECK(p < m.channels_, "SharedModule: scheduler predicted out of range");
  m.lastPrediction_ = p;
  return p;
}

template <typename V>
void SharedModule::comb(const V& v) {
  SharedModule& m = v.node();
  const unsigned sched = predict(v);
  for (unsigned i = 0; i < m.channels_; ++i) {
    auto in = v.in(i);
    auto out = v.out(i);
    const bool routed = i == sched;

    const bool inVf = in.vf();
    const bool outVf = routed && inVf;
    out.setVf(outVf);
    if (outVf) {
      if (!m.memoValid_ || !in.dataEquals(m.memoIn_)) {
        m.memoIn_ = in.data();
        m.memoOut_ = m.fn_(m.memoIn_);
        ESL_CHECK(m.memoOut_.width() == m.outWidth_,
                  "SharedModule '" + m.name() + "': function returned wrong width");
        m.memoValid_ = true;
      }
      out.setData(m.memoOut_);
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
}

template <typename V>
void SharedModule::edge(const V& v) {
  SharedModule& m = v.node();
  // comb ran (at least once) on the settled signals, so lastPrediction_ is
  // the settled prediction; predict() is pure, no need to recompute it.
  sched::Observation& obs = m.obsScratch_;
  obs.predicted = m.lastPrediction_;
  obs.valid.resize(m.channels_);
  obs.demand.resize(m.channels_);
  obs.served.resize(m.channels_);
  obs.killed.resize(m.channels_);
  bool anyDemand = false;
  for (unsigned i = 0; i < m.channels_; ++i) {
    const ChannelEvents in = v.in(i).events();
    const ChannelEvents out = v.out(i).events();
    obs.valid[i] = in.vf;
    obs.demand[i] = out.sf && !out.vf;  // selected-but-empty at the EE mux
    obs.served[i] = out.fwd;
    obs.killed[i] = in.kill;
    if (obs.served[i] && v.stats()) ++m.served_[i];
    anyDemand = anyDemand || obs.demand[i];
  }
  if (anyDemand && v.stats()) ++m.demandCycles_;
  m.scheduler_->observe(obs);
}

}  // namespace esl
