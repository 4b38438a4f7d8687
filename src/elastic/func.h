// FuncNode: combinational function block with lazy-join elastic semantics.
//
// A conventional elastic block waits for *all* inputs before computing
// (paper §1); the node fires when every input carries a token and the output
// is consumed (transferred or killed). Anti-tokens arriving at the output
// back-propagate atomically into all inputs — the dual-network counterflow of
// [Cortadella & Kishinevsky, DAC'07] — cancelling one whole would-be firing.
//
// FuncNode is stateless (forward latency 0); pipelining comes from explicit
// elastic buffers around it. Its datapath is either a catalog op (FnOp: the
// join mux, next-PC adders, xor/gray/concat/permille), evaluated in place by
// applyFn in both views, or an opaque C++ closure, evaluated through a size-1
// memo in the node's record. A catalog block's record is empty.
#pragma once

#include <functional>
#include <type_traits>
#include <vector>

#include "elastic/fn_op.h"
#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

/// Pure combinational function over the settled input payloads.
using CombFn = std::function<BitVec(const std::vector<BitVec>&)>;

/// A function block's datapath: a catalog op, or (op.kind == kOpaque) a
/// closure. Converts from either, so catalog factories and C++ builders hand
/// over whichever they have.
struct Datapath {
  FnOp op;
  CombFn fn;  ///< set iff op.kind == kOpaque

  Datapath(FnOp catalogOp) : op(catalogOp) {}  // NOLINT
  template <typename F>
    requires std::is_invocable_r_v<BitVec, F, const std::vector<BitVec>&>
  Datapath(F closure) : fn(std::move(closure)) {}  // NOLINT

  /// The datapath as a closure, for the callers that take one (shared
  /// modules, stalling VLUs, retiming): the op through applyFn over BitVec.
  CombFn closure() const;
};

class FuncNode : public Node {
 public:
  FuncNode(std::string name, std::vector<unsigned> inputWidths, unsigned outputWidth,
           Datapath datapath, logic::Cost datapathCost = {1.0, 1.0});

  std::uint32_t recordWords() const override;
  void evalComb(SimContext& ctx) const override;
  /// Stateless join, so fully signal-determined.
  EvalPurity evalPurity() const override { return EvalPurity::kCombPure; }
  /// Nothing to clock: kept off the every-cycle edge list.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "func"; }

  const Datapath& datapath() const { return datapath_; }
  logic::Cost datapathCost() const { return datapathCost_; }

  /// Record (opaque closures only): a size-1 memo of the closure — a valid
  /// word, each operand, then the result. The closure is pure, so replaying
  /// it on identical operands is pure waste — and both settle kernels replay
  /// a lot (the sweep on every iteration, retried tokens on every cycle). A
  /// catalog op is evaluated in place, so its record is empty.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    /// The datapath's op (the arena view reads the op's copy instead).
    FnOp fnOp() const { return this->node().datapath_.op; }
    /// Drives the closure over the input payloads onto `out` through the memo.
    template <typename Port>
    void computeMemoized(Port& out) const;
  };

  /// The join handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V&) {}

 private:
  Datapath datapath_;
  logic::Cost datapathCost_;
};

template <typename V>
void FuncNode::comb(const V& v) {
  const unsigned n = v.numInputs();
  auto out = v.out(0);
  bool allIn = true;
  for (unsigned i = 0; i < n; ++i) allIn = allIn && v.in(i).vf();

  out.setVf(allIn);
  if (allIn) {
    const FnOp op = v.fnOp();
    if (op.kind == FnOp::Kind::kOpaque) {
      v.computeMemoized(out);
    } else {
      using Payload = decltype(v.payload(v.in(0)));
      out.setData(
          applyFn<Payload>(op, n, [&v](unsigned i) { return v.payload(v.in(i)); }));
    }
  }

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

template <typename Base>
template <typename Port>
void FuncNode::View<Base>::computeMemoized(Port& out) const {
  const unsigned n = this->numInputs();
  std::uint64_t* const memo = this->record_;
  std::uint32_t at = 1;  // operands follow the valid word
  bool hit = memo[0] != 0;
  for (unsigned i = 0; hit && i < n; ++i) {
    hit = this->in(i).dataEqualsWords(memo + at);
    at += payloadWords(this->inWidth(i));
  }
  if (!hit) {
    std::vector<BitVec> args;
    args.reserve(n);
    at = 1;
    for (unsigned i = 0; i < n; ++i) {
      args.push_back(this->in(i).data());
      args.back().toWords(memo + at);
      at += payloadWords(this->inWidth(i));
    }
    const FuncNode& f = this->node();
    const BitVec result = f.datapath_.fn(args);
    ESL_CHECK(result.width() == this->outWidth(0),
              "FuncNode '" + f.name() + "': function returned wrong width");
    result.toWords(memo + at);
    memo[0] = 1;
  }
  out.setData(this->payloadAt(at, this->outWidth(0)));
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
