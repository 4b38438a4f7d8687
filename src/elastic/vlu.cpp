#include "elastic/vlu.h"

namespace esl {

StallingVLU::StallingVLU(std::string name, unsigned inWidth, unsigned outWidth,
                         UnaryFn exact, ErrFn err, logic::Cost approxCost,
                         logic::Cost exactCost, logic::Cost errCost)
    : Node(std::move(name)),
      inWidth_(inWidth),
      outWidth_(outWidth),
      exact_(std::move(exact)),
      err_(std::move(err)),
      approxCost_(approxCost),
      exactCost_(exactCost),
      errCost_(errCost) {
  ESL_CHECK(static_cast<bool>(exact_) && static_cast<bool>(err_),
            "StallingVLU: exact and err functions required");
  declareInput(inWidth);
  declareOutput(outWidth);
}

std::uint32_t StallingVLU::recordWords() const {
  return stateWords<State>() + payloadWords(inWidth_) + payloadWords(outWidth_);
}

void StallingVLU::reset(std::uint64_t* record) const {
  recordView(*this, record).setState(State{});
}

std::uint64_t StallingVLU::completed(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).state().completed;
}

std::uint64_t StallingVLU::stalls(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).state().stalls;
}

void StallingVLU::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void StallingVLU::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void StallingVLU::packState(const std::uint64_t* record, StateWriter& w) const {
  const auto v = recordView(*this, record);
  const State s = v.state();
  w.writeBool(s.hasPending);
  if (s.hasPending) w.writeBitVec(v.pending());
  w.writeBool(s.hasResult);
  if (s.hasResult) w.writeBitVec(v.result());
}

void StallingVLU::unpackState(std::uint64_t* record, StateReader& r) const {
  const auto v = recordView(*this, record);
  State s = v.state();  // keeps the statistics
  s.hasPending = r.readBool();
  if (s.hasPending) v.setPending(r.readPayload(inWidth_, name()));
  s.hasResult = r.readBool();
  if (s.hasResult) v.setResult(r.readPayload(outWidth_, name()));
  v.setState(s);
}

logic::Cost StallingVLU::cost() const {
  // Both function copies, the error detector, the output register and the
  // gating control all live inside the unit.
  return approxCost_ + exactCost_ + errCost_ + logic::flopCost(outWidth_) +
         logic::controlGatingCost();
}

void StallingVLU::timing(TimingModel& m) const {
  m.launch({output(0), NetKind::kFwd}, 1.0);
  // The §5.1 critical path: F_err computed from the incoming operand gates
  // the controller (stop to the sender) through the global enable network.
  m.arc({input(0), NetKind::kFwd}, {input(0), NetKind::kBwd},
        errCost_.delay + logic::controlGatingCost().delay);
  m.arc({output(0), NetKind::kBwd}, {input(0), NetKind::kBwd}, 1.0);
  // Internal datapath into the result register: F_approx in one cycle, or
  // F_exact spread over two (telescopic-unit structure).
  m.capture({input(0), NetKind::kFwd},
            std::max(approxCost_.delay, exactCost_.delay / 2.0));
}

}  // namespace esl

namespace esl {

void StallingVLU::flowEdges(std::vector<FlowEdge>& out) const {
  // Optimistic single-cycle latency (the common, error-free case).
  out.push_back({input(0), output(0), 1.0, 0.0});
}

}  // namespace esl
