#include "elastic/eemux.h"

namespace esl {

EarlyEvalMux::EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
                           unsigned width)
    : Node(std::move(name)), dataInputs_(dataInputs), width_(width) {
  ESL_CHECK(dataInputs >= 2, "EarlyEvalMux: need at least two data inputs");
  declareInput(selWidth);  // input 0: select
  for (unsigned i = 0; i < dataInputs; ++i) declareInput(width);
  declareOutput(width);
  pendingAnti_.assign(dataInputs, 0);
}

void EarlyEvalMux::reset() {
  pendingAnti_.assign(dataInputs_, 0);
}

void EarlyEvalMux::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void EarlyEvalMux::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void EarlyEvalMux::packState(StateWriter& w) const {
  for (unsigned p : pendingAnti_) w.writeU32(p);
}

void EarlyEvalMux::unpackState(StateReader& r) {
  for (unsigned& p : pendingAnti_) p = r.readU32();
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
