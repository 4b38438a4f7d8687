#include "elastic/shared.h"

namespace esl {

SharedModule::SharedModule(std::string name, unsigned channels, unsigned inWidth,
                           unsigned outWidth, SharedFn fn,
                           std::unique_ptr<sched::Scheduler> scheduler,
                           logic::Cost fnCost)
    : Node(std::move(name)),
      channels_(channels),
      inWidth_(inWidth),
      outWidth_(outWidth),
      fn_(std::move(fn)),
      scheduler_(std::move(scheduler)),
      fnCost_(fnCost) {
  ESL_CHECK(channels_ >= 2, "SharedModule: need at least two channels");
  ESL_CHECK(static_cast<bool>(fn_), "SharedModule: function required");
  ESL_CHECK(scheduler_ != nullptr, "SharedModule: scheduler required");
  ESL_CHECK(scheduler_->channels() == channels_,
            "SharedModule: scheduler arity mismatch");
  for (unsigned i = 0; i < channels_; ++i) declareInput(inWidth_);
  for (unsigned i = 0; i < channels_; ++i) declareOutput(outWidth_);
  served_.assign(channels_, 0);
}

void SharedModule::reset(std::uint64_t*) {
  scheduler_->reset();
  served_.assign(channels_, 0);
  demandCycles_ = 0;
}

void SharedModule::evalComb(SimContext& ctx) { runComb(ctx, *this); }

void SharedModule::clockEdge(SimContext& ctx) { runEdge(ctx, *this); }

void SharedModule::packState(const std::uint64_t*, StateWriter& w) const {
  scheduler_->packState(w);
}

void SharedModule::unpackState(std::uint64_t*, StateReader& r) {
  scheduler_->unpackState(r);
}

unsigned SharedModule::choiceCount() const { return scheduler_->choiceBits(); }

logic::Cost SharedModule::cost() const {
  return fnCost_ + logic::muxCost(channels_, inWidth_) +
         logic::sharedModuleCost(channels_);
}

void SharedModule::timing(TimingModel& m) const {
  const double path = logic::muxCost(channels_, inWidth_).delay + fnCost_.delay;
  for (unsigned i = 0; i < channels_; ++i) {
    m.arc({input(i), NetKind::kFwd}, {output(i), NetKind::kFwd}, path);
    m.arc({output(i), NetKind::kBwd}, {input(i), NetKind::kBwd}, 1.0);
    m.arc({input(i), NetKind::kFwd}, {output(i), NetKind::kBwd}, 1.0);
  }
}

std::uint64_t SharedModule::totalServed() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : served_) total += s;
  return total;
}

}  // namespace esl

namespace esl {

void SharedModule::flowEdges(std::vector<FlowEdge>& out) const {
  for (unsigned i = 0; i < channels_; ++i)
    out.push_back({input(i), output(i), 0.0, 0.0});
}

}  // namespace esl
