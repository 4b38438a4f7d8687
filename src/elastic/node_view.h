// Node views: the port-and-state accessor each node kind's handshake is
// written against.
//
// Every specializable kind (elastic buffers, fork, func, early-evaluation
// mux, environments, shared module, stalling VLU) writes its combinational
// and clock-edge logic once, as static member templates `comb(view)` and
// `edge(view)` in its own header. Two views instantiate them, and both keep
// everything the node changes during a run in one place: its record in the
// SimContext's state arena.
//   * ObjectView<K> (below): Sig ports over the context's board, payloads as
//     BitVec of any width. The node's evalComb/clockEdge run it — every
//     interpreted kernel, and every kGeneric op of the compiled backend.
//   * compile::ArenaView<K> (compile/arena.h): raw board addresses and the
//     op's pre-resolved record, payloads as words. The compiled backend runs
//     it, from the context's op table.
//
// A record is the kind's scalar State struct, then its payload slots at
// payloadWords(width) words each. A kind whose record holds more than its
// State — stored payloads, per-branch bits, per-input counters, memos, a
// scheduler's words — writes the layout once, as a member template
// `View<Base>` deriving from either view's base; its accessors (token(i),
// slot(), value(), pending()/result(), done(i), pending(i), the memos)
// serve both views, and the kind's reset/packState/unpackState read the
// record through recordView(). Statistics are State fields that packState
// skips; memos and statistics are never packed, so unpackState leaves them
// as they are. Both views advance statistics on every edge: a record is
// plain words, so the compiled backend's edge audit rewinds one by copying
// them back before the interpreted edge, and the statistics count once.
//
// A view exposes
//   in(i), out(i)    port proxies: vf/sf/vb/sb and their setters, data(),
//                    dataLow64(), dataEqualsWords() (against a payload stored
//                    in the record), setData(), setDataFrom(), and events() —
//                    the settled bits plus transfer/kill, read once;
//   numInputs(), numOutputs(), inWidth(i), outWidth(i);
//   payload(port)    the port's payload in the view's form (BitVec here, a
//                    word in the arena) — what the record's setters take;
//   node()           the node object, read-only: its parameters and its pure
//                    functions, gates and scheduler policy. Every byte that
//                    changes during a run — sequential state, memos,
//                    statistics — is in the record;
//   choice(i), cycle();
//   state()/setState()  the kind's State struct at the head of its record.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "elastic/context.h"

namespace esl {

/// Words a stored payload of `width` bits takes in a record (one at least, so
/// every payload slot has an address).
constexpr std::uint32_t payloadWords(unsigned width) {
  return width <= 64 ? 1 : (width + 63) / 64;
}

/// Words a kind's State struct takes at the head of its record.
template <typename State>
constexpr std::uint32_t stateWords() {
  return (sizeof(State) + 7) / 8;
}

/// A node's record as every view sees it: the State struct at its head.
template <typename K>
class NodeRecord {
 public:
  explicit NodeRecord(std::uint64_t* record) : record_(record) {}

  auto state() const {
    typename K::State s;
    static_assert(std::is_trivially_copyable_v<decltype(s)>);
    std::memcpy(static_cast<void*>(&s), record_, sizeof s);
    return s;
  }
  template <typename State>
  void setState(const State& s) const {
    std::memcpy(record_, &s, sizeof s);
  }

 protected:
  std::uint64_t* record_;
};

/// The object view's side of a record: payloads as BitVec, any width.
template <typename K>
class ObjectRecord : public NodeRecord<K> {
 public:
  ObjectRecord(const K& node, std::uint64_t* record)
      : NodeRecord<K>(record), node_(&node) {}

  const K& node() const { return *node_; }
  unsigned numInputs() const { return node_->numInputs(); }
  unsigned numOutputs() const { return node_->numOutputs(); }
  unsigned inWidth(unsigned i) const { return node_->inputWidth(i); }
  unsigned outWidth(unsigned i) const { return node_->outputWidth(i); }

  BitVec payloadAt(std::uint32_t off, unsigned width) const {
    return BitVec::fromWords(width, this->record_ + off);
  }
  void setPayloadAt(std::uint32_t off, unsigned width, const BitVec& v) const {
    ESL_CHECK(v.width() == width,
              "node '" + node_->name() + "': stored payload is " +
                  std::to_string(v.width()) + " bits, its slot " +
                  std::to_string(width));
    v.toWords(this->record_ + off);
  }
  static BitVec zeroPayload(unsigned width) { return BitVec(width); }

 protected:
  const K* node_;
};

/// The kind's record layout over `Base`: its View<Base> when it declares one,
/// else Base alone (a record that is just the State struct, or none).
template <typename K, typename Base>
struct RecordLayout {
  using type = Base;
};
template <typename K, typename Base>
  requires requires { typename K::template View<Base>; }
struct RecordLayout<K, Base> {
  using type = typename K::template View<Base>;
};

/// The node's record through its kind's accessors, without ports: what
/// reset/packState/unpackState and the statistics getters use (packState and
/// the getters only read through it).
template <typename K>
auto recordView(const K& node, const std::uint64_t* record) {
  using View = typename RecordLayout<K, ObjectRecord<K>>::type;
  return View(node, const_cast<std::uint64_t*>(record));
}

/// Ports, node access and per-cycle inputs of the object view.
template <typename K>
class ObjectPorts : public ObjectRecord<K> {
 public:
  ObjectPorts(SimContext& ctx, const K& node)
      : ObjectRecord<K>(node, ctx.record(node.id())), ctx_(&ctx) {}

  Sig in(unsigned i) const { return ctx_->sig(this->node_->input(i)); }
  Sig out(unsigned i) const { return ctx_->sig(this->node_->output(i)); }
  BitVec payload(const ConstSig& port) const { return port.data(); }

  bool choice(unsigned i) const { return ctx_->choice(*this->node_, i); }
  std::uint64_t cycle() const { return ctx_->cycle(); }

 private:
  SimContext* ctx_;
};

/// The object view: ports plus the kind's record layout.
template <typename K>
class ObjectView : public RecordLayout<K, ObjectPorts<K>>::type {
  using Base = typename RecordLayout<K, ObjectPorts<K>>::type;

 public:
  using Base::Base;
};

/// A kind's evalComb/clockEdge: its handshake through the object view,
/// flattened so the template inlines whole — it exceeds the default inlining
/// budget, and the interpreter pays a call per node evaluation otherwise.
template <typename K>
[[gnu::flatten]] void runComb(SimContext& ctx, const K& node) {
  K::comb(ObjectView<K>(ctx, node));
}
template <typename K>
[[gnu::flatten]] void runEdge(SimContext& ctx, const K& node) {
  K::edge(ObjectView<K>(ctx, node));
}

}  // namespace esl
