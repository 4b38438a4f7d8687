// FuncNode: combinational function block with lazy-join elastic semantics.
//
// A conventional elastic block waits for *all* inputs before computing
// (paper §1); the node fires when every input carries a token and the output
// is consumed (transferred or killed). Anti-tokens arriving at the output
// back-propagate atomically into all inputs — the dual-network counterflow of
// [Cortadella & Kishinevsky, DAC'07] — cancelling one whole would-be firing.
//
// FuncNode is stateless (forward latency 0); pipelining comes from explicit
// elastic buffers around it.
#pragma once

#include <functional>
#include <vector>

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

/// Pure combinational function over the settled input payloads.
using CombFn = std::function<BitVec(const std::vector<BitVec>&)>;

class FuncNode : public Node {
 public:
  FuncNode(std::string name, std::vector<unsigned> inputWidths, unsigned outputWidth,
           CombFn fn, logic::Cost datapathCost = {1.0, 1.0});

  void evalComb(SimContext& ctx) override;
  /// Stateless join (firings_ is edge-only), so fully signal-determined.
  EvalPurity evalPurity() const override { return EvalPurity::kCombPure; }
  /// Only the firing counter advances, on the output transfer event.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "func"; }

  const CombFn& fn() const { return fn_; }
  logic::Cost datapathCost() const { return datapathCost_; }

  /// Structural role tag used by the transformation kit: makeJoinMux tags its
  /// nodes "mux" so Shannon decomposition / early-eval conversion can check
  /// preconditions without introspecting the lambda.
  const std::string& role() const { return role_; }
  void setRole(std::string role) { role_ = std::move(role); }

  /// Forward transfers completed at the output (simulation statistic).
  std::uint64_t firings() const { return firings_; }

  /// The join handshake, once for both views (see elastic/node_view.h). Only
  /// the payload computation, `v.computeOutput(out)`, is per view: the object
  /// view runs computeMemoized(); the arena view runs word arithmetic for
  /// catalog functions and computeMemoized() for the rest.
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v) {
    if (v.out(0).events().fwd && v.stats()) ++v.node().firings_;
  }

  /// Drives fn_ over the input payloads onto `out` through the size-1 memo.
  template <typename V, typename Port>
  void computeMemoized(const V& v, Port& out);

 private:
  friend class ObjectView<FuncNode>;

  CombFn fn_;
  logic::Cost datapathCost_;
  std::string role_;
  std::uint64_t firings_ = 0;

  // Size-1 memo of the last datapath computation. fn_ is pure, so replaying
  // it on identical operands is pure waste — and both settle kernels replay a
  // lot (the sweep on every iteration, retried tokens on every cycle).
  bool memoValid_ = false;
  std::vector<BitVec> memoArgs_;
  BitVec memoOut_;

  // Input proxies of the object view, resolved once per evaluation (the join
  // reads each input several times); capacity is retained between calls.
  std::vector<Sig> inSigs_;
};

template <>
class ObjectView<FuncNode> : public ObjectPorts<FuncNode> {
 public:
  ObjectView(SimContext& ctx, FuncNode& node) : ObjectPorts(ctx, node) {
    node.inSigs_.clear();
    for (unsigned i = 0; i < node.numInputs(); ++i)
      node.inSigs_.push_back(ctx.sig(node.input(i)));
  }
  Sig in(unsigned i) const { return node().inSigs_[i]; }
  void computeOutput(Sig& out) const { node().computeMemoized(*this, out); }
};

template <typename V>
void FuncNode::comb(const V& v) {
  const unsigned n = v.numInputs();
  auto out = v.out(0);
  bool allIn = true;
  for (unsigned i = 0; i < n; ++i) allIn = allIn && v.in(i).vf();

  out.setVf(allIn);
  if (allIn) v.computeOutput(out);

  // Output consumed this cycle: normal transfer or annihilated by an
  // anti-token at the output channel.
  const bool outVb = out.vb();
  const bool fire = allIn && (!out.sf() || outVb);

  // Counterflow: an anti-token at the output propagates to all inputs
  // atomically when each input channel can absorb it this cycle (by killing
  // its token or moving the anti-token further upstream).
  bool allCan = true;
  for (unsigned i = 0; i < n && allCan; ++i) {
    const auto in = v.in(i);
    allCan = in.vf() || !in.sb();
  }
  const bool back = outVb && !allIn && allCan;

  for (unsigned i = 0; i < n; ++i) {
    auto in = v.in(i);
    in.setVb(back);
    in.setSf(!fire && !back);
  }
  out.setSb(!allIn && !allCan);
}

template <typename V, typename Port>
void FuncNode::computeMemoized(const V& v, Port& out) {
  const unsigned n = v.numInputs();
  bool hit = memoValid_;
  for (unsigned i = 0; hit && i < n; ++i) hit = v.in(i).dataEquals(memoArgs_[i]);
  if (!hit) {
    memoArgs_.resize(n);
    for (unsigned i = 0; i < n; ++i) memoArgs_[i] = v.in(i).data();
    memoOut_ = fn_(memoArgs_);
    ESL_CHECK(memoOut_.width() == outputWidth(0),
              "FuncNode '" + name() + "': function returned wrong width");
    memoValid_ = true;
  }
  out.setData(memoOut_);
}

/// Identity function block (a named wire with join semantics).
FuncNode& makeWire(class Netlist& nl, std::string name, unsigned width,
                   logic::Cost cost = {0.0, 0.0});

/// Unary function block from a BitVec->BitVec lambda.
FuncNode& makeUnary(class Netlist& nl, std::string name, unsigned inWidth,
                    unsigned outWidth, std::function<BitVec(const BitVec&)> fn,
                    logic::Cost cost = {1.0, 1.0});

/// Binary function block.
FuncNode& makeBinary(class Netlist& nl, std::string name, unsigned aWidth,
                     unsigned bWidth, unsigned outWidth,
                     std::function<BitVec(const BitVec&, const BitVec&)> fn,
                     logic::Cost cost = {1.0, 1.0});

/// Conventional (non-early) multiplexer: a FuncNode that joins the select
/// channel (input 0) with all data channels and picks the selected payload.
/// This is the mux of Fig. 1(a)-(c) before early-evaluation conversion.
FuncNode& makeJoinMux(class Netlist& nl, std::string name, unsigned dataInputs,
                      unsigned selWidth, unsigned width);

}  // namespace esl
