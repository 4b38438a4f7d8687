// Node: base class for every elastic block (buffers, functions, forks,
// early-evaluation multiplexers, shared speculative modules, environments).
//
// Execution model (README, "Simulation kernels"): each clock cycle the
// simulator settles the channel signals, then calls clockEdge() once with the
// settled signals. The sweep kernel re-evaluates every node until no signal
// changes; the event kernel evaluates a node only when it is seeded for the
// cycle or one of its inputs changed, so a node may see no, one or several
// evalComb() calls per cycle, in any order.
// evalComb must be a pure function of (sequential state, input signals,
// per-cycle choice bits) and may only write the signals the node drives:
//   producer side of an output channel: vf, data, sb
//   consumer side of an input channel:  sf, vb
//
// All node state is in the record: every byte a node changes during a run —
// sequential state, memos, statistics — lives in the simulating context's
// record arena (elastic/context.h). Each node owns recordWords() words there,
// and reset, packState and unpackState are handed that record; evalComb and
// clockEdge reach it through the context. The node object itself is a
// description, read-only while it simulates (the simulation methods are
// const), so one netlist can be simulated by any number of contexts at once,
// on any threads. Its generator, gate and function closures must therefore
// be pure functions of their arguments: no captured scratch, no counters.
// The built-in kinds write both phases once, as comb/edge templates over a
// port-and-state view (elastic/node_view.h); evalComb/clockEdge run them
// through the object view, and the compiled backend runs the same templates
// over the same records.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "elastic/channel.h"
#include "elastic/params.h"
#include "elastic/state_io.h"
#include "logic/cost.h"

namespace esl {

class SimContext;

/// Timing nets: per channel, the forward (valid/data) and backward
/// (stop/anti-token) signal groups settle at separate times.
enum class NetKind { kFwd, kBwd };

struct TimingRef {
  ChannelId ch = kNoChannel;
  NetKind kind = NetKind::kFwd;
};

/// Combinational dependency through a node: `to` settles no earlier than
/// `delay` after `from`.
struct TimingArc {
  TimingRef from;
  TimingRef to;
  double delay = 0.0;
};

/// A net driven from sequential state (registers/latches) with clk->q delay.
struct TimingLaunch {
  TimingRef at;
  double delay = 0.0;
};

/// A path from a net into an internal register: the cycle must also
/// accommodate arrival(at) + delay (e.g. a block's internal datapath).
struct TimingCapture {
  TimingRef at;
  double delay = 0.0;
};

/// Collected combinational timing structure of a netlist.
struct TimingModel {
  std::vector<TimingArc> arcs;
  std::vector<TimingLaunch> launches;
  std::vector<TimingCapture> captures;

  void arc(TimingRef from, TimingRef to, double delay) {
    arcs.push_back({from, to, delay});
  }
  void launch(TimingRef at, double delay) { launches.push_back({at, delay}); }
  void capture(TimingRef at, double delay) { captures.push_back({at, delay}); }
};

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  NodeId id() const { return id_; }

  /// Construction attributes of the netlist IR (`.esl` `key=value` list).
  /// Populated by the NodeRegistry factories (and by C++ builders that are
  /// IR-aware); nodes created directly around C++ lambdas have none and can
  /// only be serialized if their kind is derivable from getters alone.
  const Params& buildParams() const { return buildParams_; }
  bool hasBuildParams() const { return !buildParams_.entries().empty(); }
  void setBuildParams(Params params) { buildParams_ = std::move(params); }

  unsigned numInputs() const { return static_cast<unsigned>(inputs_.size()); }
  unsigned numOutputs() const { return static_cast<unsigned>(outputs_.size()); }
  unsigned inputWidth(unsigned port) const { return inputWidths_.at(port); }
  unsigned outputWidth(unsigned port) const { return outputWidths_.at(port); }
  ChannelId input(unsigned port) const { return inputs_.at(port); }
  ChannelId output(unsigned port) const { return outputs_.at(port); }
  bool inputBound(unsigned port) const { return inputs_.at(port) != kNoChannel; }
  bool outputBound(unsigned port) const { return outputs_.at(port) != kNoChannel; }

  /// Words of this node's record in its context's state arena; constant over
  /// the node's life.
  virtual std::uint32_t recordWords() const { return 0; }

  /// Re-initializes the record (start of simulation / verification, or
  /// joining a live context): sequential state, memos and statistics.
  virtual void reset(std::uint64_t* record) const { (void)record; }

  /// One combinational sweep; called until fixpoint.
  virtual void evalComb(SimContext& ctx) const = 0;

  /// How far the event-driven settle kernel may trust this node's evalComb.
  ///
  /// The evalComb contract (pure function of sequential state, input signals
  /// and choice bits; writes only the fields the node drives) makes
  /// re-evaluation on unchanged inputs a no-op. Nodes that declare the
  /// contract let the kernel evaluate them exactly once per input change;
  /// unaudited nodes are re-evaluated after every change they cause, which
  /// certifies convergence and turns contract violations (e.g. a node
  /// oscillating on its own output) into CombinationalCycleError instead of
  /// silent mis-settles.
  enum class EvalPurity {
    /// Default for user nodes: abide-by-contract not declared; the kernel
    /// re-checks after every change this node makes.
    kUnaudited,
    /// Abides by the contract but evalComb reads sequential state, choice
    /// bits or the cycle counter: seeded into every settle.
    kStateful,
    /// Contract plus: evalComb never *reads* adjacent channel signals — every
    /// driven field is a function of state/choices/cycle alone (fully
    /// registered boundaries, e.g. an elastic buffer with Lf=Lb=1). Seeded
    /// once per settle and never re-evaluated however its channels change.
    kStateDriven,
    /// Contract plus: evalComb is a function of the adjacent channel signals
    /// alone. Skipped entirely while its inputs are unchanged from the
    /// previous settled cycle.
    kCombPure,
  };
  virtual EvalPurity evalPurity() const { return EvalPurity::kUnaudited; }

  /// Whether evalComb reads per-cycle inputs BESIDES sequential state and
  /// adjacent channel signals — the cycle counter or nondeterministic choice
  /// bits. Such nodes are re-seeded into every settle. All other audited
  /// nodes are re-seeded only when their state may actually have changed,
  /// i.e. when their clockEdge ran at the preceding edge — on a large mostly
  /// idle netlist that turns the per-cycle seed set from O(stateful nodes)
  /// into O(active nodes). Default: true iff the node consumes choice bits;
  /// override to return true when evalComb reads ctx.cycle() (typically
  /// through a gate callback).
  virtual bool evalReadsPerCycleInputs() const { return choiceCount() > 0; }

  /// Sequential-activity hint for the clock-edge dirty-tracker, the edge-phase
  /// sibling of EvalPurity.
  ///
  /// clockEdge() advances sequential state from the settled signals. For most
  /// blocks that update is strictly event-triggered: state can only change
  /// when one of the node's channels carries a transfer or kill event
  /// (fwdTransfer/bwdTransfer/killEvent) this cycle. Declaring that lets
  /// SimContext clock only the nodes adjacent to an event — the edge phase
  /// becomes O(active) like the event-driven settle — instead of sweeping
  /// clockEdge() over every node.
  ///
  /// The declaration is audited: in cross-check mode the kernel still clocks
  /// every node but verifies that each node it *would* have skipped left its
  /// packState() bytes unchanged, turning a wrong hint into InternalError.
  /// Note the audit sees packState() only — statistics and memos excluded
  /// from serialization are not covered, so counters must also be
  /// event-triggered.
  enum class EdgeActivity {
    /// Default: clockEdge() must run every cycle (cycle-dependent gates,
    /// schedulers, per-cycle choice consumers, multi-cycle latency counters).
    kEveryCycle,
    /// clockEdge() is a no-op on any cycle in which no adjacent channel
    /// carries a transfer or kill event; the kernel may skip it then.
    kOnEvents,
  };
  virtual EdgeActivity edgeActivity() const { return EdgeActivity::kEveryCycle; }

  /// Sequential update with settled signals.
  virtual void clockEdge(SimContext& ctx) const { (void)ctx; }

  /// Sequential state serialization (snapshots, the model checker).
  /// Statistics and memos are excluded: unpackState must leave those words
  /// of the record as they are, so a restore keeps a run's statistics. (The
  /// compiled backend's edge audit rewinds a record by copying its words,
  /// not through these.)
  virtual void packState(const std::uint64_t* record, StateWriter& w) const {
    (void)record;
    (void)w;
  }
  virtual void unpackState(std::uint64_t* record, StateReader& r) const {
    (void)record;
    (void)r;
  }

  /// Number of per-cycle nondeterministic binary choices this node consumes
  /// (environments only; deterministic blocks return 0).
  virtual unsigned choiceCount() const { return 0; }

  /// Area/delay contribution of this node's datapath + control.
  virtual logic::Cost cost() const { return {}; }

  /// Retry+ persistence class of an output port (paper §4.2): registered
  /// blocks and environments are persistent; shared speculative modules are
  /// not (the scheduler may change its prediction after a retry); and
  /// combinational blocks *derive* their persistence from their inputs —
  /// non-persistence propagates downstream until the next EB. Use
  /// Netlist::channelPersistence() to resolve kDerived through the netlist.
  enum class Persistence { kPersistent, kNonPersistent, kDerived };
  virtual Persistence outputPersistence(unsigned port) const {
    (void)port;
    return Persistence::kDerived;
  }

  /// Combinational timing structure (arcs between channel nets + launches).
  virtual void timing(TimingModel& m) const { (void)m; }

  /// Token-flow edge through a node: tokens crossing from an input channel to
  /// an output channel take `latency` cycles; `tokens` initial tokens sit on
  /// the way. Used by the min-cycle-ratio throughput bound (src/perf).
  struct FlowEdge {
    ChannelId from;
    ChannelId to;
    double latency = 0.0;
    double tokens = 0.0;
  };

  /// Default: combinational flow from every input to every output.
  virtual void flowEdges(std::vector<FlowEdge>& out) const {
    for (unsigned i = 0; i < numInputs(); ++i)
      for (unsigned o = 0; o < numOutputs(); ++o)
        if (inputBound(i) && outputBound(o))
          out.push_back({input(i), output(o), 0.0, 0.0});
  }

  /// One-line description for DOT labels and the shell.
  virtual std::string kindName() const = 0;

 private:
  friend class Netlist;
  void setId(NodeId id) { id_ = id; }
  /// Renaming goes through Netlist::renameNode so the name index stays valid.
  void rename(std::string name) { name_ = std::move(name); }
  unsigned addInputPort(unsigned width) {
    inputs_.push_back(kNoChannel);
    inputWidths_.push_back(width);
    return numInputs() - 1;
  }
  unsigned addOutputPort(unsigned width) {
    outputs_.push_back(kNoChannel);
    outputWidths_.push_back(width);
    return numOutputs() - 1;
  }

 protected:
  /// Port declaration helpers for subclass constructors.
  void declareInput(unsigned width) { (void)addInputPort(width); }
  void declareOutput(unsigned width) { (void)addOutputPort(width); }

 private:
  void bindInput(unsigned port, ChannelId ch) { inputs_.at(port) = ch; }
  void bindOutput(unsigned port, ChannelId ch) { outputs_.at(port) = ch; }

  std::string name_;
  NodeId id_ = kNoNode;
  Params buildParams_;
  std::vector<ChannelId> inputs_;
  std::vector<ChannelId> outputs_;
  std::vector<unsigned> inputWidths_;
  std::vector<unsigned> outputWidths_;
};

}  // namespace esl
