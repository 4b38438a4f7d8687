// Elastic buffers (paper §3.2, Figs. 2/3/5).
//
// Behavioural model of the abstract elastic FIFO of Fig. 3: a buffer holds a
// signed occupancy k — tokens when k>0 (with their data, in order), stored
// anti-tokens when k<0 — and tokens/anti-tokens cancel at its boundaries.
//
// * ElasticBuffer: forward latency Lf=1, backward latency Lb=1, capacity C
//   (default 2 = Lf+Lb, the latch implementation of Fig. 2a). The stop to the
//   sender is a function of state only, which is exactly what gives it one
//   cycle of backward latency.
// * ElasticBuffer0: the Fig. 5 variant with Lb=0, C=1 — stop and kill travel
//   combinationally through the controller, so anti-tokens "rush" backwards
//   within the cycle (§4.3).
// * BrokenBuffer: capacity 1 with the *registered* stop of an Lb=1 design,
//   violating C >= Lf+Lb; it loses tokens under back-pressure. Used by the
//   verification tests to show the checker catches the §3.2 capacity theorem.
#pragma once

#include <optional>

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

class ElasticBuffer : public Node {
 public:
  /// `initTokens.size()` tokens initially stored (<= capacity); an EB with one
  /// token behaves like a conventional flip-flop stage, an empty EB is a bubble.
  ElasticBuffer(std::string name, unsigned width, unsigned capacity = 2,
                std::vector<BitVec> initTokens = {}, unsigned antiCapacity = 2,
                int initAntiTokens = 0);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  /// Tokens enter/leave and anti-tokens cancel only on channel events.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "eb"; }

  unsigned width() const { return width_; }
  unsigned capacity() const { return capacity_; }
  unsigned antiCapacity() const { return antiCapacity_; }
  const std::vector<BitVec>& initTokens() const { return init_; }
  int initAntiTokens() const { return initAnti_; }
  /// Current token count in `ctx` (negative = stored anti-tokens).
  int occupancy(const SimContext& ctx) const;

  /// Scalar sequential state at the head of the record.
  struct State {
    unsigned head = 0;   ///< ring slot of the oldest token
    unsigned count = 0;  ///< stored tokens
    int anti = 0;        ///< stored anti-tokens (never together with tokens)
  };
  /// Record: State, then a fixed ring of `capacity` token slots. Pops and
  /// pushes are index arithmetic plus a payload store: no allocation.
  template <typename Base>
  class View;
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
  unsigned capacity_;
  unsigned antiCapacity_;
  std::vector<BitVec> init_;
  int initAnti_;
};

template <typename Base>
class ElasticBuffer::View : public Base {
 public:
  using Base::Base;
  /// The compiled backend's view reads these from its op instead.
  unsigned capacity() const { return this->node().capacity_; }
  unsigned antiCapacity() const { return this->node().antiCapacity_; }
  auto token(unsigned i) const { return this->payloadAt(slot(i), this->outWidth(0)); }
  template <typename P>
  void setToken(unsigned i, const P& t) const {
    this->setPayloadAt(slot(i), this->outWidth(0), t);
  }

 private:
  std::uint32_t slot(unsigned i) const {
    return stateWords<State>() + i * payloadWords(this->outWidth(0));
  }
};

template <typename V>
void ElasticBuffer::comb(const V& v) {
  auto in = v.in(0);
  auto out = v.out(0);
  const State s = v.state();
  const bool hasTok = s.count > 0;
  // Producer side of the output channel.
  out.setVf(hasTok);
  if (hasTok) out.setData(v.token(s.head));
  // Anti-tokens from downstream are consumed by killing the head token when
  // one exists; otherwise they are stored, subject to the anti capacity.
  out.setSb(!hasTok && s.anti >= static_cast<int>(v.antiCapacity()));

  // Consumer side of the input channel. The stop is a function of state only,
  // which realizes Lb=1 (the sender learns about congestion a cycle late; the
  // spare capacity slot absorbs the in-flight token, hence C >= Lf+Lb).
  in.setSf(static_cast<int>(s.count) - s.anti >=
           static_cast<int>(v.capacity()));
  // Stored anti-tokens travel upstream (active anti-tokens).
  in.setVb(s.anti > 0);
}

template <typename V>
void ElasticBuffer::edge(const V& v) {
  const auto inPort = v.in(0);
  const ChannelEvents in = inPort.events();
  const ChannelEvents out = v.out(0).events();
  const unsigned cap = v.capacity();
  State s = v.state();
  const auto popToken = [&] {
    s.head = s.head + 1 == cap ? 0 : s.head + 1;
    --s.count;
  };

  // Output-side events first (free the head slot before accepting).
  if (out.kill || out.fwd) {
    ESL_ASSERT(s.count > 0);
    popToken();
  } else if (out.bwd) {
    ESL_ASSERT(s.count == 0);
    ++s.anti;
  }

  // Input-side events. The payload is only read on an actual transfer.
  if (in.kill) {
    ESL_ASSERT(s.anti > 0);  // we asserted in.vb
    --s.anti;
  } else if (in.fwd) {
    unsigned tail = s.head + s.count;
    if (tail >= cap) tail -= cap;
    v.setToken(tail, v.payload(inPort));
    ++s.count;
    ESL_ASSERT(s.count <= cap);
  } else if (in.bwd) {
    ESL_ASSERT(s.anti > 0);
    --s.anti;
  }

  // Tokens and anti-tokens cancel inside the buffer (Fig. 3: "which cancel
  // each other at the boundaries of the EB"). This arises when a token enters
  // through the input in the same cycle an anti-token enters via the output.
  while (s.count > 0 && s.anti > 0) {
    popToken();
    --s.anti;
  }
  ESL_ASSERT(s.count == 0 || s.anti == 0);
  v.setState(s);
}

/// Record of the single-slot buffers: State, then the slot's payload.
template <typename K, typename Base>
class SlotView : public Base {
 public:
  using Base::Base;
  auto slot() const {
    return this->payloadAt(stateWords<typename K::State>(), this->outWidth(0));
  }
  template <typename P>
  void setSlot(const P& t) const {
    this->setPayloadAt(stateWords<typename K::State>(), this->outWidth(0), t);
  }
};

class ElasticBuffer0 : public Node {
 public:
  ElasticBuffer0(std::string name, unsigned width,
                 std::optional<BitVec> initToken = std::nullopt);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// The slot fills/empties only on channel events (kills at the input
  /// boundary annihilate on the channel and never touch the slot).
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  void flowEdges(std::vector<FlowEdge>& out) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "eb0"; }

  unsigned width() const { return width_; }
  const std::optional<BitVec>& initToken() const { return init_; }

  struct State {
    bool full = false;  ///< the slot holds a token, meaningful iff full
  };
  template <typename Base>
  using View = SlotView<ElasticBuffer0, Base>;
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
  std::optional<BitVec> init_;
};

class BrokenBuffer : public Node {
 public:
  BrokenBuffer(std::string name, unsigned width);

  std::uint32_t recordWords() const override;
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateDriven; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  Persistence outputPersistence(unsigned) const override {
    return Persistence::kPersistent;
  }
  std::string kindName() const override { return "broken-eb"; }

  struct State {
    bool full = false;     ///< the slot holds a token, meaningful iff full
    bool stopReg = false;  ///< the bug: S+ to the sender lags by a cycle
  };
  template <typename Base>
  using View = SlotView<BrokenBuffer, Base>;
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  unsigned width_;
};

template <typename V>
void ElasticBuffer0::comb(const V& v) {
  auto in = v.in(0);
  auto out = v.out(0);
  const bool full = v.state().full;
  out.setVf(full);
  if (full) out.setData(v.slot());

  // Head leaves this cycle if transferred or killed — computed from the
  // downstream signals, so the stop to the sender is combinational (Lb=0).
  const bool leave = full && (!out.sf() || out.vb());
  in.setSf(full && !leave);

  // Anti-tokens rush through combinationally when the buffer is empty.
  in.setVb(!full && out.vb());
  // The anti-token is consumed by killing our token, by killing the incoming
  // token at the input boundary, or by moving further upstream.
  out.setSb(!full && !in.vf() && in.sb());
}

template <typename V>
void ElasticBuffer0::edge(const V& v) {
  const auto inPort = v.in(0);
  const ChannelEvents in = inPort.events();
  const ChannelEvents out = v.out(0).events();
  State s = v.state();
  if (out.kill || out.fwd) s.full = false;
  if (in.fwd) {
    ESL_ASSERT(!s.full);
    s.full = true;
    v.setSlot(v.payload(inPort));
  }
  v.setState(s);
}

template <typename V>
void BrokenBuffer::comb(const V& v) {
  auto in = v.in(0);
  auto out = v.out(0);
  const State s = v.state();
  out.setVf(s.full);
  if (s.full) out.setData(v.slot());
  out.setSb(true);        // no anti-token support
  in.setSf(s.stopReg);    // BUG: one cycle stale — the sender overruns the slot
  in.setVb(false);
}

template <typename V>
void BrokenBuffer::edge(const V& v) {
  const auto inPort = v.in(0);
  const ChannelEvents in = inPort.events();
  const ChannelEvents out = v.out(0).events();
  State s = v.state();
  // The Lb=1 stop reflects the occupancy *before* this edge, so the sender
  // learns about a fill one cycle late — with C=1 there is no slack slot to
  // absorb the in-flight token (paper §3.2: the C >= Lf+Lb scenario).
  s.stopReg = s.full;
  if (out.fwd) s.full = false;
  if (in.fwd) {  // may overwrite a live token
    s.full = true;
    v.setSlot(v.payload(inPort));
  }
  v.setState(s);
}

}  // namespace esl
