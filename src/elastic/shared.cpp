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
  ESL_CHECK(channels_ <= sched::Scheduler::kMaxChannels,
            "SharedModule: more channels than a scheduler arbitrates");
  for (unsigned i = 0; i < channels_; ++i) declareInput(inWidth_);
  for (unsigned i = 0; i < channels_; ++i) declareOutput(outWidth_);
}

std::uint32_t SharedModule::recordWords() const {
  return stateWords<State>() + payloadWords(inWidth_) + payloadWords(outWidth_) +
         scheduler_->stateWords();
}

void SharedModule::reset(std::uint64_t* record) const {
  const auto v = recordView(*this, record);
  v.setState(State{});
  scheduler_->reset(v.sched());
}

std::uint64_t SharedModule::demandCycles(const SimContext& ctx) const {
  return recordView(*this, ctx.record(id())).state().demandCycles;
}

void SharedModule::evalComb(SimContext& ctx) const { runComb(ctx, *this); }

void SharedModule::clockEdge(SimContext& ctx) const { runEdge(ctx, *this); }

void SharedModule::packState(const std::uint64_t* record, StateWriter& w) const {
  scheduler_->packState(recordView(*this, record).sched(), w);
}

void SharedModule::unpackState(std::uint64_t* record, StateReader& r) const {
  scheduler_->unpackState(recordView(*this, record).sched(), r);
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

void SharedModule::flowEdges(std::vector<FlowEdge>& out) const {
  for (unsigned i = 0; i < channels_; ++i)
    out.push_back({input(i), output(i), 0.0, 0.0});
}

}  // namespace esl
