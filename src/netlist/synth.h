// Synthetic netlist generator: parameterized elastic systems at scale.
//
// The paper's systems are 10-node micro-netlists; benchmarking the simulation
// kernels at production scale needs elastic graphs with thousands to hundreds
// of thousands of nodes. This generator procedurally emits four topology
// families — deep linear pipelines, fork/join trees, early-evaluation
// speculation ladders, and seeded random DAGs — with configurable buffer
// capacities, variable-latency stages and sparse token injection. Every
// family is a pure function of its SynthConfig (same config ⇒ bit-identical
// netlist, node for node and channel for channel), so generated systems can
// be cross-checked between kernels, farmed across threads, and — at small
// sizes with nondeterministic environments — run through the explicit-state
// model checker. The Monte-Carlo-over-generated-structures methodology
// follows the fixed-connectivity net ensembles of Farago & Kantor (PAPERS.md).
#pragma once

#include <string>
#include <vector>

#include "elastic/endpoints.h"
#include "elastic/netlist.h"
#include "elastic/registry.h"

namespace esl::synth {

enum class Topology {
  kPipeline,  ///< source → [EB → F]* → sink, optional variable-latency stages
  kForkJoin,  ///< fork tree of configurable arity, mirrored join tree
  kSpecLadder,  ///< cascade of fork → 2 branches → early-eval mux rungs
  kRandomDag,  ///< seeded random acyclic graph of EBs/funcs/forks/joins
};

const char* topologyName(Topology t);

struct SynthConfig {
  Topology topology = Topology::kPipeline;
  /// Approximate node budget, environments included; the builder never
  /// exceeds it (except for the structural minimum of a family).
  std::size_t targetNodes = 1000;
  unsigned width = 16;          ///< datapath width of every channel
  unsigned bufferCapacity = 2;  ///< capacity of generated elastic buffers
  unsigned forkArity = 2;       ///< branching factor of the fork/join tree
  std::uint64_t seed = 1;       ///< topology + payload + gate randomness
  /// A source may first offer its next token every `injectPeriod` cycles
  /// (1 = saturated). Sparse injection (large periods) is what exposes the
  /// event kernel's O(active) advantage on large graphs.
  unsigned injectPeriod = 1;
  /// Per-mille chance that a pipeline stage is a 1-or-2-cycle stalling
  /// variable-latency unit instead of a combinational function.
  unsigned vluPermille = 0;
  /// Replace the deterministic environments with Nondet* nodes (bounded-fair,
  /// finite-state) so small instances can go through the model checker.
  bool nondetEnv = false;
};

struct SynthSystem {
  Netlist nl;
  /// Deterministic environments (empty when nondetEnv is set).
  std::vector<TokenSource*> sources;
  std::vector<TokenSink*> sinks;
  /// The sink fed by outChannel; tokens received there are the system's
  /// observable progress (throughput = received / cycles).
  TokenSink* mainSink = nullptr;
  ChannelId outChannel = kNoChannel;
  std::size_t nodeCount = 0;
  std::size_t channelCount = 0;
};

/// Builds the configured system; validates the netlist before returning.
SynthSystem build(const SynthConfig& config);

/// Netlist-only build: same deterministic construction as build(), dropping
/// the endpoint bookkeeping (what the model checker needs).
Netlist buildNetlist(const SynthConfig& config);

/// Serializable IR of the generated system. The generator constructs every
/// node through the NodeRegistry, so spec(cfg).build() is bit-identical to
/// buildNetlist(cfg) — this is the data form the `.esl` printer writes.
NetlistSpec spec(const SynthConfig& config);

/// Stable one-line tag for benchmark rows and task labels, e.g.
/// "pipeline/n10000/w16/seed1/inject64".
std::string describe(const SynthConfig& config);

}  // namespace esl::synth
