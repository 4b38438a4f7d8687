#include "elastic/fork.h"

namespace esl {

ForkNode::ForkNode(std::string name, unsigned width, unsigned branches)
    : Node(std::move(name)), width_(width) {
  ESL_CHECK(branches >= 2, "ForkNode: need at least two branches");
  declareInput(width);
  for (unsigned i = 0; i < branches; ++i) declareOutput(width);
  done_.assign(branches, false);
}

void ForkNode::reset() { done_.assign(branches(), false); }

void ForkNode::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void ForkNode::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void ForkNode::packState(StateWriter& w) const {
  for (bool b : done_) w.writeBool(b);
}

void ForkNode::unpackState(StateReader& r) {
  for (unsigned i = 0; i < done_.size(); ++i) done_[i] = r.readBool();
}

logic::Cost ForkNode::cost() const { return logic::forkJoinCost(branches()); }

void ForkNode::timing(TimingModel& m) const {
  for (unsigned i = 0; i < branches(); ++i) {
    m.arc({input(0), NetKind::kFwd}, {output(i), NetKind::kFwd}, 1.0);
    m.arc({output(i), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  }
}

}  // namespace esl
