// Early-evaluation multiplexer (paper §1, §2, §4; [7] token counterflow).
//
// Logically a join over (select, data_0..data_n-1) — every firing consumes one
// token from *every* input — but it fires early: as soon as the select token
// and the *selected* data token are present. The obligation to consume the
// non-selected tokens is discharged by emitting anti-tokens into every
// non-selected input, combinationally in the firing cycle (this is what
// Table 1 shows at cycle 0); a pending counter per input provides Retry-
// persistence when an anti-token cannot be delivered at once.
//
// Misprediction demand: when the select token points at an input that carries
// no token, the mux asserts S+ on that (empty) input. The shared module
// reports this "selected-but-empty" stop to its scheduler, which corrects the
// prediction — the mechanism behind eq. (1)'s `sel = i ∧ S+_outi` term.
//
// Port map: input 0 = select channel; inputs 1..n = data channels; output 0.
#pragma once

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

class EarlyEvalMux : public Node {
 public:
  EarlyEvalMux(std::string name, unsigned dataInputs, unsigned selWidth,
               unsigned width);

  std::uint32_t recordWords() const override { return dataInputs_ + 1; }
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// The pending counters grow only on firings (output transfer/kill events)
  /// and shrink only on input kill/backward-transfer events.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "ee-mux"; }

  unsigned dataInputs() const { return dataInputs_; }
  ChannelId selectChannel() const { return input(0); }
  ChannelId dataChannel(unsigned i) const { return input(1 + i); }

  /// Anti-tokens emitted in total in `ctx`.
  std::uint64_t antiTokensEmitted(const SimContext& ctx) const;

  /// Record: one pending anti-token counter word per data input, then the
  /// emitted anti-token count (a statistic, not packed).
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    unsigned pending(unsigned i) const {
      return static_cast<unsigned>(this->record_[i]);
    }
    void setPending(unsigned i, unsigned n) const { this->record_[i] = n; }
    std::uint64_t& antiEmitted() const { return this->record_[this->numInputs() - 1]; }
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  /// This cycle's firing decision, from state and settled signals.
  struct Decision {
    bool selValid = false;
    unsigned selIdx = 0;
    bool usable = false;  ///< selected token present and not owed a kill
    bool fire = false;    ///< ... and consumed downstream
  };
  template <typename V>
  static Decision decide(const V& v);
  /// Anti-tokens input i must deliver this cycle (pending + this firing's).
  static unsigned antiAvail(unsigned pending, const Decision& d, unsigned i) {
    return pending + ((d.fire && i != d.selIdx) ? 1u : 0u);
  }

  unsigned dataInputs_;
  unsigned width_;
};

template <typename V>
EarlyEvalMux::Decision EarlyEvalMux::decide(const V& v) {
  Decision d;
  const auto sel = v.in(0);
  d.selValid = sel.vf();
  if (d.selValid) {
    const std::uint64_t idx = sel.dataLow64();
    ESL_CHECK(idx < v.numInputs() - 1u,
              "EarlyEvalMux '" + v.node().name() + "': select value out of range");
    d.selIdx = static_cast<unsigned>(idx);
  }
  // The selected token is usable only if it is not owed to a pending
  // anti-token from an earlier firing.
  d.usable = d.selValid && v.pending(d.selIdx) == 0 && v.in(1 + d.selIdx).vf();
  const auto out = v.out(0);
  d.fire = d.usable && (!out.sf() || out.vb());
  return d;
}

template <typename V>
void EarlyEvalMux::comb(const V& v) {
  const Decision d = decide(v);
  auto out = v.out(0);
  auto sel = v.in(0);
  out.setVf(d.usable);
  if (d.usable) out.setDataFrom(v.in(1 + d.selIdx));
  // An anti-token at the output is consumed only by annihilating a firing.
  out.setSb(!d.usable);

  sel.setSf(!d.fire);
  sel.setVb(false);

  for (unsigned i = 0; i + 1 < v.numInputs(); ++i) {
    auto in = v.in(1 + i);
    const bool anti = antiAvail(v.pending(i), d, i) > 0;
    in.setVb(anti);
    if (anti) {
      in.setSf(false);  // kill and stop are mutually exclusive
    } else if (d.selValid && i == d.selIdx) {
      // Selected: released on firing; stopped while waiting — when the channel
      // is empty this stop is the misprediction demand.
      in.setSf(!d.fire);
    } else {
      // Non-selected: hold an arriving token (it will be killed by a future
      // firing's anti-token); keep the channel free otherwise so that an
      // empty non-selected channel never looks like a demand.
      in.setSf(in.vf());
    }
  }
}

template <typename V>
void EarlyEvalMux::edge(const V& v) {
  const Decision d = decide(v);
  for (unsigned i = 0; i + 1 < v.numInputs(); ++i) {
    const ChannelEvents in = v.in(1 + i).events();
    unsigned avail = antiAvail(v.pending(i), d, i);
    if (in.vb && (in.vf || !in.sb)) {
      ESL_ASSERT(avail > 0);
      --avail;  // delivered: killed a token or moved upstream
    }
    if (d.fire && i != d.selIdx) ++v.antiEmitted();
    v.setPending(i, avail);
  }
}

}  // namespace esl
