#include "sim/simulator.h"

#include <iomanip>
#include <sstream>

#include "elastic/endpoints.h"

namespace esl::sim {

Simulator::Simulator(const Netlist& netlist, SimOptions options)
    : ctx_(netlist), options_(options) {
  ctx_.setProtocolChecking(options_.checkProtocol);
  ctx_.setThrowOnViolation(options_.throwOnViolation);
  ctx_.setKernel(options_.kernel);
  ctx_.setCrossCheck(options_.crossCheckKernels);
  ctx_.setShards(options_.shards);
  ctx_.setBackend(options_.backend);
  // Stateless per-(cycle, node, index) draw: order-independent by design, so
  // every kernel (and every shard count) sees the same choice stream. The
  // cycle is hashed separately before mixing in (node, index) so distinct
  // (cycle, index) pairs can never collide into the same draw.
  const std::uint64_t seed = options_.seed;
  SimContext* ctx = &ctx_;
  ctx_.setChoiceProvider([seed, ctx](NodeId node, unsigned idx) {
    const std::uint64_t perCycle = mix64(ctx->cycle(), seed);
    return (mix64(perCycle ^ (std::uint64_t{node} << 32 | idx), seed) & 1) != 0;
  });
  stats_.assign(netlist.channelCapacity(), ChannelStats{});
}

void Simulator::step() {
  ctx_.settle();
  if (options_.checkProtocol) ctx_.checkProtocol();

  // Per-channel statistics: a word-parallel event sweep over the settled
  // bitplanes. Quiet 64-channel groups cost two loads and an OR; only
  // channels with an actual event touch their counters.
  const SignalBoard& board = ctx_.board();
  const std::size_t groups = board.groupCount();
  for (std::size_t g = 0; g < groups; ++g) {
    if (board.activityAtGroup(g) == 0) continue;
    const SignalBoard::EventWord ev = board.eventsAtGroup(g);
    std::uint64_t any = ev.any();
    while (any != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(any));
      any &= any - 1;
      const std::uint32_t slot = static_cast<std::uint32_t>(g * 64 + bit);
      const std::uint64_t mask = std::uint64_t{1} << bit;
      const ChannelId ch = board.channelAtSlot(slot);
      if (ch >= stats_.size()) stats_.resize(ch + 1);  // post-surgery channel
      ChannelStats& st = stats_[ch];
      if (ev.fwd & mask) ++st.fwdTransfers;
      if (ev.kill & mask) ++st.kills;
      if (ev.bwd & mask) ++st.bwdTransfers;
    }
  }
  if (trace_ != nullptr) trace_->capture(ctx_);

  ctx_.edge();
}

void Simulator::run(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) step();
}

double Simulator::throughput(ChannelId ch) const {
  const std::uint64_t c = ctx_.cycle();
  if (c == 0) return 0.0;
  return static_cast<double>(stats_.at(ch).fwdTransfers) / static_cast<double>(c);
}

std::string runReport(const Netlist& nl, const SimContext& ctx,
                      const std::map<std::string, std::uint64_t>* sinkCarry,
                      std::uint64_t violationCarry) {
  std::string out;
  for (const NodeId id : nl.nodeIds()) {
    if (const auto* sink = dynamic_cast<const TokenSink*>(&nl.node(id))) {
      std::uint64_t n = sink->received(ctx);
      if (sinkCarry != nullptr) {
        const auto it = sinkCarry->find(sink->name());
        if (it != sinkCarry->end()) n += it->second;
      }
      out += "sink '" + sink->name() + "': " + std::to_string(n) + " transfers\n";
    }
  }
  out += "protocol violations: " +
         std::to_string(ctx.protocolViolations().size() + violationCarry) + "\n";
  return out;
}

std::string throughputLine(const std::string& channel, double value) {
  std::ostringstream os;
  os << "throughput(" << channel << ") = " << std::fixed << std::setprecision(4)
     << value << "\n";
  return os.str();
}

}  // namespace esl::sim
