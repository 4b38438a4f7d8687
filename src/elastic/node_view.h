// Node views: the port-and-state accessor each node kind's handshake is
// written against.
//
// Every specializable kind (elastic buffers, fork, func, early-evaluation
// mux, environments, shared module, stalling VLU) writes its combinational
// and clock-edge logic once, as static member templates `comb(view)` and
// `edge(view)` in its own header. Two views instantiate them:
//   * ObjectView<K> (below, specialized in each kind's header): Sig ports over
//     the SimContext's board plus the node object's own members. The node's
//     evalComb/clockEdge run it, for every interpreted kernel.
//   * compile::ArenaView<K> (compile/arena.h): raw board addresses plus the
//     op's record in the compiled backend's node-state arena. The VM runs it.
//
// A view exposes
//   in(i), out(i)    port proxies: vf/sf/vb/sb and their setters, data(),
//                    dataLow64(), dataEquals(), setData(), setDataFrom(), and
//                    events() — the settled bits plus transfer/kill, read once;
//   numInputs(), numOutputs();
//   payload(port)    the port's payload in the view's storage form (BitVec
//                    here, a word in the arena) — what state setters take;
//   node()           the node object, for what both views keep there:
//                    functions, memos, schedulers and statistics — never
//                    sequential state;
//   stats()          whether statistics advance (false only in the compiled
//                    backend's edge-audit replay);
//   choice(i), cycle();
// and, per stateful kind, the kind's scalar State struct through
// state()/setState(), and its stored payloads and hot constants, under the
// same names in both views. Each stateful kind's copyState(from, to)
// moves its state between two views: the compiled backend adopts node state
// into its arena and flushes it back with it.
#pragma once

#include <cstdint>

#include "elastic/context.h"

namespace esl {

/// Ports, node access and per-cycle inputs of the object view.
template <typename K>
class ObjectPorts {
 public:
  ObjectPorts(SimContext& ctx, K& node) : ctx_(&ctx), node_(&node) {}

  Sig in(unsigned i) const { return ctx_->sig(node_->input(i)); }
  Sig out(unsigned i) const { return ctx_->sig(node_->output(i)); }
  unsigned numInputs() const { return node_->numInputs(); }
  unsigned numOutputs() const { return node_->numOutputs(); }
  BitVec payload(const ConstSig& port) const { return port.data(); }

  K& node() const { return *node_; }
  static constexpr bool stats() { return true; }
  bool choice(unsigned i) const { return ctx_->choice(*node_, i); }
  std::uint64_t cycle() const { return ctx_->cycle(); }

  /// A stateful kind keeps its State in a member `st_` and befriends
  /// ObjectPorts<K>.
  auto state() const { return node_->st_; }
  template <typename State>
  void setState(const State& s) const {
    node_->st_ = s;
  }

 private:
  SimContext* ctx_;
  K* node_;
};

/// Object view of a kind whose state, if any, is its State struct alone (or
/// lives wholly in node()); kinds with stored payloads, per-branch state or
/// per-view datapaths specialize it next to their class, as a friend.
template <typename K>
class ObjectView : public ObjectPorts<K> {
 public:
  using ObjectPorts<K>::ObjectPorts;
};

/// A kind's evalComb/clockEdge: its handshake through the object view,
/// flattened so the template inlines whole — it exceeds the default inlining
/// budget, and the interpreter pays a call per node evaluation otherwise.
template <typename K>
[[gnu::flatten]] void runComb(SimContext& ctx, K& node) {
  K::comb(ObjectView<K>(ctx, node));
}
template <typename K>
[[gnu::flatten]] void runEdge(SimContext& ctx, K& node) {
  K::edge(ObjectView<K>(ctx, node));
}

}  // namespace esl
