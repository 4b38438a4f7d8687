// Test-side reference copies of the SELF protocol monitor and of the Retry+
// persistence walk, written as the plain per-channel loops they started as.
// The library's versions are word-parallel (SimContext::checkProtocol) and a
// single forward pass (Netlist::channelPersistence); the tests compare the two
// forms cycle by cycle and channel by channel.
#pragma once

#include <string>
#include <vector>

#include "elastic/context.h"
#include "elastic/netlist.h"

namespace esl::test {

/// Resolves Node::Persistence::kDerived for one channel by walking back
/// through combinational producers: the channel obeys Retry+ unless its
/// producer, or any combinational ancestor, is non-persistent (paper §4.2).
inline bool walkIsPersistent(const Netlist& nl, ChannelId ch) {
  std::vector<ChannelId> stack{ch};
  std::vector<bool> seen(nl.channelCapacity(), false);
  while (!stack.empty()) {
    const ChannelId cur = stack.back();
    stack.pop_back();
    if (seen[cur]) continue;
    seen[cur] = true;
    const Channel& c = nl.channel(cur);
    const Node& producer = nl.node(c.producer);
    switch (producer.outputPersistence(c.producerPort)) {
      case Node::Persistence::kNonPersistent:
        return false;
      case Node::Persistence::kPersistent:
        break;
      case Node::Persistence::kDerived:
        for (unsigned i = 0; i < producer.numInputs(); ++i)
          if (producer.inputBound(i)) stack.push_back(producer.input(i));
        break;
    }
  }
  return true;
}

/// The §3.1 monitor as one pass over the channels in id order, reading the
/// settled signals through SimContext::sig() and keeping its own copy of the
/// previous cycle's. check() must run once per cycle, after settle() and
/// before edge(); `violations` then accumulates exactly what
/// SimContext::protocolViolations() should hold.
class ReferenceMonitor {
 public:
  explicit ReferenceMonitor(const Netlist& nl)
      : nl_(nl), persistent_(nl.channelCapacity(), true) {
    for (const ChannelId id : nl.channelIds()) persistent_[id] = walkIsPersistent(nl, id);
  }

  void check(const SimContext& ctx) {
    std::vector<ChannelSignals> cur(nl_.channelCapacity());
    for (const ChannelId id : nl_.channelIds()) {
      const ChannelSignals s = ctx.sig(id);
      const std::string at = "cycle " + std::to_string(ctx.cycle()) +
                             ", channel '" + nl_.channel(id).name + "': ";
      const auto report = [&](const char* what) { violations.push_back(at + what); };
      if (s.vf && s.vb && s.sf) report("token killed and stopped (V+ S+ V-)");
      if (s.vf && s.vb && s.sb) report("anti-token killed and stopped (V- S- V+)");
      if (havePrev_) {
        const ChannelSignals& p = prev_[id];
        if (p.vf && p.sf && !p.vb && persistent_[id]) {
          if (!s.vf)
            report("Retry+ violated: stopped token vanished");
          else if (s.data != p.data)
            report("Retry+ persistence violated: data changed during retry");
        }
        if (p.vb && p.sb && !p.vf && !s.vb)
          report("Retry- violated: stopped anti-token vanished");
      }
      cur[id] = s;
    }
    prev_ = std::move(cur);
    havePrev_ = true;
  }

  std::vector<std::string> violations;

 private:
  const Netlist& nl_;
  std::vector<bool> persistent_;
  std::vector<ChannelSignals> prev_;
  bool havePrev_ = false;
};

}  // namespace esl::test
