#include "elastic/eemux.h"

#include <algorithm>

namespace esl {

EarlyEvalMux::EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
                           unsigned width)
    : Node(std::move(name)), dataInputs_(dataInputs), width_(width) {
  ESL_CHECK(dataInputs >= 2, "EarlyEvalMux: need at least two data inputs");
  declareInput(selWidth);  // input 0: select
  for (unsigned i = 0; i < dataInputs; ++i) declareInput(width);
  declareOutput(width);
}

void EarlyEvalMux::reset(std::uint64_t* record) const {
  std::fill(record, record + recordWords(), 0);
}

std::uint64_t EarlyEvalMux::antiTokensEmitted(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).antiEmitted();
}

void EarlyEvalMux::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void EarlyEvalMux::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void EarlyEvalMux::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  for (unsigned i = 0; i < dataInputs_; ++i) w.writeU32(v.pending(i));
}

void EarlyEvalMux::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  for (unsigned i = 0; i < dataInputs_; ++i) v.setPending(i, r.readU32());
}

logic::Cost EarlyEvalMux::cost() const {
  return logic::earlyEvalMuxCost(dataInputs_) + logic::muxCost(dataInputs_, width_);
}

void EarlyEvalMux::timing(TimingModel& m) const {
  const double muxDelay = logic::muxCost(dataInputs_, width_).delay;
  for (unsigned i = 0; i < dataInputs_; ++i) {
    m.arc({dataChannel(i), NetKind::kFwd}, {output(0), NetKind::kFwd}, muxDelay);
    m.arc({selectChannel(), NetKind::kFwd}, {dataChannel(i), NetKind::kBwd}, 1.0);
    m.arc({output(0), NetKind::kBwd}, {dataChannel(i), NetKind::kBwd}, 1.0);
    m.arc({dataChannel(i), NetKind::kFwd}, {selectChannel(), NetKind::kBwd}, 1.0);
  }
  m.arc({selectChannel(), NetKind::kFwd}, {output(0), NetKind::kFwd}, muxDelay);
  m.arc({output(0), NetKind::kBwd}, {selectChannel(), NetKind::kBwd}, 1.0);
}

}  // namespace esl
