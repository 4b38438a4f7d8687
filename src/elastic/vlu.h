// Stalling variable-latency unit (paper §5.1, Fig. 6a).
//
// Computes F in 1 cycle when the approximate result is correct and in 2
// cycles otherwise: the error detector F_err gates the elastic controller
// directly — on error the unit inserts a bubble into the receiver channel,
// stalls the sender, and finishes with F_exact the next cycle. This is the
// baseline the speculative design of Fig. 6(b) is compared against; its
// defining weakness is the combinational path F_err -> global controller
// gating, which the timing model charges via controlGatingCost().
#pragma once

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

class StallingVLU : public Node {
 public:
  using UnaryFn = std::function<BitVec(const BitVec&)>;
  using ErrFn = std::function<bool(const BitVec&)>;

  /// `exact` is the golden function; `err(x)` is true when the approximate
  /// unit would be wrong for operand x (the telescopic hold predictor).
  StallingVLU(std::string name, unsigned inWidth, unsigned outWidth, UnaryFn exact,
              ErrFn err, logic::Cost approxCost, logic::Cost exactCost,
              logic::Cost errCost);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "stalling-vlu"; }

  /// Results delivered, and operands that took the slow path, in `ctx`.
  std::uint64_t completed(const SimContext& ctx) const;
  std::uint64_t stalls(const SimContext& ctx) const;

  struct State {
    bool hasPending = false;  ///< an operand needs its second cycle
    bool hasResult = false;   ///< a completed result awaits transfer
    std::uint64_t completed = 0;  ///< statistic, not packed
    std::uint64_t stalls = 0;     ///< statistic, not packed
  };
  /// Record: State, then the pending operand and the result.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    auto pending() const { return this->payloadAt(kPending, this->inWidth(0)); }
    template <typename P>
    void setPending(const P& x) const {
      this->setPayloadAt(kPending, this->inWidth(0), x);
    }
    auto result() const { return this->payloadAt(resultAt(), this->outWidth(0)); }
    template <typename P>
    void setResult(const P& x) const {
      this->setPayloadAt(resultAt(), this->outWidth(0), x);
    }

   private:
    static constexpr std::uint32_t kPending = stateWords<State>();
    std::uint32_t resultAt() const { return kPending + payloadWords(this->inWidth(0)); }
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned inWidth_;
  unsigned outWidth_;
  UnaryFn exact_;
  ErrFn err_;
  logic::Cost approxCost_;
  logic::Cost exactCost_;
  logic::Cost errCost_;
};

template <typename V>
void StallingVLU::comb(const V& v) {
  auto in = v.in(0);
  auto out = v.out(0);
  const State s = v.state();
  out.setVf(s.hasResult);
  if (s.hasResult) out.setData(v.result());
  out.setSb(!s.hasResult);  // anti-token consumed only against a result

  const bool leave = s.hasResult && (!out.sf() || out.vb());
  const bool canAccept = !s.hasPending && (!s.hasResult || leave);
  in.setSf(!canAccept);
  in.setVb(false);
}

template <typename V>
void StallingVLU::edge(const V& v) {
  const auto inPort = v.in(0);
  const ChannelEvents in = inPort.events();
  const ChannelEvents out = v.out(0).events();
  const StallingVLU& unit = v.node();
  State s = v.state();
  if (out.kill || out.fwd) {
    if (out.fwd) ++s.completed;
    s.hasResult = false;
  }

  if (s.hasPending) {
    // Second cycle of a mispredicted operand: F_exact finishes the job.
    ESL_ASSERT(!s.hasResult);
    v.setResult(unit.exact_(v.pending()));
    s.hasResult = true;
    s.hasPending = false;
  } else if (in.fwd) {
    const BitVec x = inPort.data();
    if (unit.err_(x)) {
      v.setPending(x);  // bubble next cycle, sender stalled
      s.hasPending = true;
      ++s.stalls;
    } else {
      v.setResult(unit.exact_(x));  // approx == exact when no error is flagged
      s.hasResult = true;
    }
  }
  v.setState(s);
}

}  // namespace esl
