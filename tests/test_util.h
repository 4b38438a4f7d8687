// Shared helpers for the elastic test suites.
#pragma once

#include <vector>

#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/netlist.h"
#include "elastic/shared.h"
#include "sim/simulator.h"

namespace esl::test {

/// Logs every sink's transfer stream in `s` (what receivedValues and
/// receivedCycles read); call it before running the simulator.
inline void logSinks(sim::Simulator& s) {
  const Netlist& nl = s.ctx().netlist();
  for (const NodeId id : nl.nodeIds())
    if (const auto* sink = dynamic_cast<const TokenSink*>(&nl.node(id)))
      s.ctx().logTransfers(sink->input(0));
}

/// Data values received by a sink in `s`, as uint64.
inline std::vector<std::uint64_t> receivedValues(sim::Simulator& s,
                                                 const TokenSink& sink) {
  std::vector<std::uint64_t> v;
  for (const auto& t : s.ctx().transfers(sink.input(0))) v.push_back(t.data.toUint64());
  return v;
}

/// Cycles at which the sink received transfers in `s`.
inline std::vector<std::uint64_t> receivedCycles(sim::Simulator& s,
                                                 const TokenSink& sink) {
  std::vector<std::uint64_t> v;
  for (const auto& t : s.ctx().transfers(sink.input(0))) v.push_back(t.cycle);
  return v;
}

/// 0,1,2,...,n-1
inline std::vector<std::uint64_t> iota(std::uint64_t n, std::uint64_t start = 0) {
  std::vector<std::uint64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = start + i;
  return v;
}

}  // namespace esl::test
