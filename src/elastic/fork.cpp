#include "elastic/fork.h"

#include <algorithm>

namespace esl {

ForkNode::ForkNode(std::string name, unsigned width, unsigned branches)
    : Node(std::move(name)), width_(width) {
  ESL_CHECK(branches >= 2, "ForkNode: need at least two branches");
  declareInput(width);
  for (unsigned i = 0; i < branches; ++i) declareOutput(width);
}

void ForkNode::reset(std::uint64_t* record) const {
  std::fill(record, record + recordWords(), 0);
}

void ForkNode::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void ForkNode::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void ForkNode::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  for (unsigned i = 0; i < branches(); ++i) w.writeBool(v.done(i));
}

void ForkNode::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  for (unsigned i = 0; i < branches(); ++i) v.setDone(i, r.readBool());
}

logic::Cost ForkNode::cost() const { return logic::forkJoinCost(branches()); }

void ForkNode::timing(TimingModel& m) const {
  for (unsigned i = 0; i < branches(); ++i) {
    m.arc({input(0), NetKind::kFwd}, {output(i), NetKind::kFwd}, 1.0);
    m.arc({output(i), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  }
}

}  // namespace esl
