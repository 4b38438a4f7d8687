// NodeRegistry + NetlistSpec: the data-driven netlist IR.
//
// The paper's toolkit is driven by abstract netlists that are loaded,
// transformed and emitted under script control (§5). This header makes every
// node kind constructible from data instead of only from typed C++ ctors:
//
//  * Registry maps kind names ("eb", "fork", "func", "shared", ...) to
//    factories taking a Params attribute list, and — for behaviour a node
//    parameterizes (function blocks, token generators, gates, schedulers) —
//    maps *names* to parameterized implementations, so a FuncNode built from
//    `fn=addk fn.k=7` is bit-identical to one built in C++ through the same
//    catalog entry. A function entry resolves to a Datapath: the core
//    entries to a catalog op (elastic/fn_op.h) that both simulation
//    backends evaluate in place, the rest to an opaque closure.
//  * NetlistSpec is the serializable value form of a whole netlist: node
//    specs plus channel specs. It is what the `.esl` parser produces and
//    the shell's save/load/undo and the serve daemon's spool consume — a
//    spec can be named, printed (src/frontend), diffed and handed to a tool;
//    a closure cannot.
//
// C++ builders that want their netlists serializable construct through the
// make*Node helpers below (the construction *is* a registry call, so parsing
// the printed form rebuilds the identical netlist). Kinds whose parameters
// are recoverable from getters alone (buffers, forks, muxes, nondet
// environments) are derivable even when built directly via Netlist::make.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "elastic/endpoints.h"
#include "elastic/func.h"
#include "elastic/netlist.h"
#include "elastic/params.h"
#include "elastic/vlu.h"
#include "sched/scheduler.h"

namespace esl {

class SharedModule;

/// One node of the IR: `node <kind> <name> key=value...;`
struct NodeSpec {
  std::string kind;
  std::string name;
  Params params;
};

/// One channel of the IR: `channel <producer>.out<P> -> <consumer>.in<Q>;`
struct ChannelSpec {
  std::string producer;
  unsigned producerPort = 0;
  std::string consumer;
  unsigned consumerPort = 0;
  std::string name;  ///< optional; producer-derived default when empty
};

/// Serializable whole-netlist value. Building is deterministic: equal specs
/// produce bit-identical netlists (same ids, same initial state).
struct NetlistSpec {
  std::vector<NodeSpec> nodes;
  std::vector<ChannelSpec> channels;

  /// Constructs and validates the netlist (throws NetlistError on unknown
  /// kinds/attributes, duplicate names, bad wiring).
  Netlist build() const;

  /// Captures a live netlist as data. Throws NetlistError if some node is
  /// neither registry-built nor derivable (e.g. a raw C++ lambda FuncNode).
  static NetlistSpec fromNetlist(const Netlist& nl);
};

/// Port-width signature handed to a named-function factory.
struct FnSig {
  std::vector<unsigned> inWidths;
  unsigned outWidth = 0;
};

class Registry {
 public:
  /// Builds a node inside the netlist from `name` + attributes.
  using NodeFactory =
      std::function<Node&(Netlist&, const std::string& name, const Params&)>;
  /// Recovers the attribute list of a node built without buildParams();
  /// throws NetlistError when the kind cannot be derived from getters.
  using NodeDescriber = std::function<Params(const Node&)>;

  /// `prefix` scopes the factory's attribute namespace (e.g. "fn."): a
  /// factory for `fn=addk` reads its constant from key "fn.k". It validates
  /// the width signature and returns a catalog op or a closure.
  using FnFactory = std::function<Datapath(const FnSig&, const Params&,
                                           const std::string& prefix)>;
  using GenFactory = std::function<TokenSource::Generator(
      unsigned width, const Params&, const std::string& prefix)>;
  using GateFactory =
      std::function<TokenSource::Gate(const Params&, const std::string& prefix)>;
  using SchedFactory = std::function<std::unique_ptr<sched::Scheduler>(
      unsigned channels, const Params&, const std::string& prefix)>;

  /// Global instance, pre-populated with the core kinds and catalogs.
  /// Registration is not thread-safe; lookups after registration are.
  static Registry& instance();

  void addKind(const std::string& kind, NodeFactory factory,
               NodeDescriber describer = {});
  void addFn(const std::string& name, FnFactory factory);
  void addGen(const std::string& name, GenFactory factory);
  void addGate(const std::string& name, GateFactory factory);
  void addSched(const std::string& name, SchedFactory factory);

  /// Constructs the node, stores the attribute list on it (verbatim — the
  /// print->parse->print fixpoint needs no canonical form) and rejects any
  /// attribute the factory never consumed.
  Node& makeNode(Netlist& nl, const NodeSpec& spec) const;

  /// (kind, name, attributes) of a live node: its stored buildParams when
  /// registry-built, the kind's describer otherwise.
  NodeSpec describeNode(const Node& node) const;

  /// Resolves the named component under `key` (e.g. key="fn" reads `fn=` for
  /// the name and `fn.*` for its parameters).
  Datapath makeFn(const FnSig& sig, const Params& p, const std::string& key) const;
  TokenSource::Generator makeGen(unsigned width, const Params& p,
                                 const std::string& key) const;
  /// Null gate when `key` is absent.
  TokenSource::Gate makeGate(const Params& p, const std::string& key) const;
  std::unique_ptr<sched::Scheduler> makeSched(unsigned channels, const Params& p,
                                              const std::string& key) const;

  /// Writes `key=`/`key.*` attributes describing a live scheduler; false for
  /// policies that close over C++ state (e.g. oracles).
  static bool describeScheduler(const sched::Scheduler& s, Params& out,
                                const std::string& key);

 private:
  Registry();

  struct Kind {
    NodeFactory factory;
    NodeDescriber describer;
  };
  std::map<std::string, Kind, std::less<>> kinds_;
  std::map<std::string, FnFactory, std::less<>> fns_;
  std::map<std::string, GenFactory, std::less<>> gens_;
  std::map<std::string, GateFactory, std::less<>> gates_;
  std::map<std::string, SchedFactory, std::less<>> scheds_;
};

/// Adapts a unary datapath to the closure shape SharedModule/StallingVLU
/// consume. The adapter is pure (it captures nothing it writes), as every
/// node closure must be: contexts on several threads call it at once.
std::function<BitVec(const BitVec&)> unaryAdapter(const Datapath& datapath);

/// Throws NetlistError unless `name` is a representable IR token: nonempty
/// and `[A-Za-z0-9._@-]` only (channel names, attribute values).
void validateIrToken(const std::string& name, const std::string& what);

/// validateIrToken plus the node-name rule: must not end in `.out<digits>` /
/// `.in<digits>`, which would be ambiguous with channel endpoint references.
void validateIrName(const std::string& name, const std::string& what);

// ---------------------------------------------------------------------------
// IR-aware construction helpers for C++ builders
// ---------------------------------------------------------------------------
//
// These assemble the NodeSpec and construct THROUGH the registry, so the node
// both behaves identically to its parsed form and carries the attributes
// serialization needs. `fnParams` etc. take unprefixed keys ("k", "salt");
// the helper scopes them.

FuncNode& makeFuncNode(Netlist& nl, const std::string& name,
                       const std::vector<unsigned>& inWidths, unsigned outWidth,
                       const std::string& fnName, const Params& fnParams = {},
                       logic::Cost cost = {1.0, 1.0});

TokenSource& makeSourceNode(Netlist& nl, const std::string& name, unsigned width,
                            const std::string& genName, const Params& genParams = {},
                            const std::string& gateName = {},
                            const Params& gateParams = {});

SharedModule& makeSharedNode(Netlist& nl, const std::string& name, unsigned channels,
                             unsigned inWidth, unsigned outWidth,
                             const std::string& fnName, const Params& fnParams,
                             const std::string& schedName, const Params& schedParams,
                             logic::Cost fnCost = {1.0, 1.0});

StallingVLU& makeVluNode(Netlist& nl, const std::string& name, unsigned inWidth,
                         unsigned outWidth, const std::string& exactName,
                         const Params& exactParams, const std::string& errName,
                         const Params& errParams, logic::Cost approxCost,
                         logic::Cost exactCost, logic::Cost errCost);

}  // namespace esl
