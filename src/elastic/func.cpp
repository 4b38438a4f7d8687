#include "elastic/func.h"

#include "elastic/netlist.h"

namespace esl {

CombFn Datapath::closure() const {
  if (op.kind == FnOp::Kind::kOpaque) return fn;
  return [op = op](const std::vector<BitVec>& in) {
    return applyFn<BitVec>(op, static_cast<unsigned>(in.size()),
                           [&in](unsigned i) { return in[i]; });
  };
}

FuncNode::FuncNode(std::string name, std::vector<unsigned> inputWidths,
                   unsigned outputWidth, Datapath datapath, logic::Cost datapathCost)
    : Node(std::move(name)),
      datapath_(std::move(datapath)),
      datapathCost_(datapathCost) {
  ESL_CHECK(!inputWidths.empty(), "FuncNode: needs at least one input");
  ESL_CHECK(datapath_.op.kind != FnOp::Kind::kOpaque || datapath_.fn,
            "FuncNode: function required");
  for (unsigned w : inputWidths) declareInput(w);
  declareOutput(outputWidth);
}

std::uint32_t FuncNode::recordWords() const {
  if (datapath_.op.kind != FnOp::Kind::kOpaque) return 0;
  std::uint32_t words = 1 + payloadWords(outputWidth(0));
  for (unsigned i = 0; i < numInputs(); ++i) words += payloadWords(inputWidth(i));
  return words;
}

void FuncNode::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

logic::Cost FuncNode::cost() const { return datapathCost_; }

void FuncNode::timing(TimingModel& m) const {
  for (unsigned i = 0; i < numInputs(); ++i) {
    m.arc({input(i), NetKind::kFwd}, {output(0), NetKind::kFwd}, datapathCost_.delay);
    m.arc({output(0), NetKind::kBwd}, {input(i), NetKind::kBwd}, 1.0);
    // The join stop of input i also depends on the other inputs' valids.
    for (unsigned j = 0; j < numInputs(); ++j)
      if (j != i)
        m.arc({input(j), NetKind::kFwd}, {input(i), NetKind::kBwd}, 1.0);
  }
}

FuncNode& makeWire(Netlist& nl, std::string name, unsigned width, logic::Cost cost) {
  return nl.make<FuncNode>(std::move(name), std::vector<unsigned>{width}, width,
                           FnOp{FnOp::Kind::kId}, cost);
}

FuncNode& makeUnary(Netlist& nl, std::string name, unsigned inWidth, unsigned outWidth,
                    std::function<BitVec(const BitVec&)> fn, logic::Cost cost) {
  return nl.make<FuncNode>(
      std::move(name), std::vector<unsigned>{inWidth}, outWidth,
      [f = std::move(fn)](const std::vector<BitVec>& in) { return f(in[0]); }, cost);
}

FuncNode& makeBinary(Netlist& nl, std::string name, unsigned aWidth, unsigned bWidth,
                     unsigned outWidth,
                     std::function<BitVec(const BitVec&, const BitVec&)> fn,
                     logic::Cost cost) {
  return nl.make<FuncNode>(
      std::move(name), std::vector<unsigned>{aWidth, bWidth}, outWidth,
      [f = std::move(fn)](const std::vector<BitVec>& in) { return f(in[0], in[1]); },
      cost);
}

FuncNode& makeJoinMux(Netlist& nl, std::string name, unsigned dataInputs,
                      unsigned selWidth, unsigned width) {
  ESL_CHECK(dataInputs >= 2, "makeJoinMux: need at least two data inputs");
  std::vector<unsigned> widths{selWidth};
  for (unsigned i = 0; i < dataInputs; ++i) widths.push_back(width);
  return nl.make<FuncNode>(std::move(name), std::move(widths), width,
                           FnOp{FnOp::Kind::kJoinMux}, logic::muxCost(dataInputs, width));
}

}  // namespace esl
