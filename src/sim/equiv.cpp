#include "sim/equiv.h"

#include "elastic/endpoints.h"

namespace esl::sim {

std::map<std::string, std::vector<BitVec>> collectSinkStreams(Netlist& netlist,
                                                              std::uint64_t cycles,
                                                              SimOptions options) {
  Simulator simulator(netlist, options);
  std::vector<const TokenSink*> sinks;
  for (const NodeId id : netlist.nodeIds()) {
    if (const auto* sink = dynamic_cast<const TokenSink*>(&netlist.node(id))) {
      sinks.push_back(sink);
      simulator.ctx().logTransfers(sink->input(0));
    }
  }
  simulator.run(cycles);

  std::map<std::string, std::vector<BitVec>> streams;
  for (const TokenSink* sink : sinks) {
    std::vector<BitVec> values;
    for (const SimContext::Transfer& t : simulator.ctx().transfers(sink->input(0)))
      values.push_back(t.data);
    ESL_CHECK(streams.emplace(sink->name(), std::move(values)).second,
              "collectSinkStreams: duplicate sink name " + sink->name());
  }
  return streams;
}

EquivalenceResult transferEquivalent(Netlist& a, Netlist& b, std::uint64_t cycles,
                                     std::uint64_t minTransfers, SimOptions options) {
  const auto sa = collectSinkStreams(a, cycles, options);
  const auto sb = collectSinkStreams(b, cycles, options);

  EquivalenceResult res;
  if (sa.size() != sb.size()) {
    res.equivalent = false;
    res.reason = "different sink sets";
    return res;
  }
  for (const auto& [name, va] : sa) {
    const auto it = sb.find(name);
    if (it == sb.end()) {
      res.equivalent = false;
      res.reason = "sink '" + name + "' missing in second netlist";
      return res;
    }
    const auto& vb = it->second;
    const std::size_t n = std::min(va.size(), vb.size());
    if (n < minTransfers) {
      res.equivalent = false;
      res.reason = "sink '" + name + "' observed only " + std::to_string(n) +
                   " transfers (need " + std::to_string(minTransfers) + ")";
      return res;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (va[i] != vb[i]) {
        res.equivalent = false;
        res.reason = "sink '" + name + "' transfer #" + std::to_string(i) +
                     " differs: " + va[i].toHex() + " vs " + vb[i].toHex();
        return res;
      }
    }
  }
  return res;
}

}  // namespace esl::sim
