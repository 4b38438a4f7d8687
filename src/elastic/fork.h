// Eager fork: replicates each input token to every output branch.
//
// Each branch may consume its copy independently (eager semantics, tracked by
// per-branch done bits); the stem token is consumed once all branches have
// taken or killed their copy. Anti-tokens arriving on a branch annihilate the
// pending copy for that branch — they never cross into the stem, because the
// stem token also feeds the other branches (paper §4.1: the anti-token must
// cancel exactly the non-selected copy).
#pragma once

#include "elastic/node.h"
#include "elastic/node_view.h"

namespace esl {

class ForkNode : public Node {
 public:
  ForkNode(std::string name, unsigned width, unsigned branches);

  std::uint32_t recordWords() const override { return (branches() + 63) / 64; }
  void reset(std::uint64_t* record) const override;
  void evalComb(SimContext& ctx) const override;
  EvalPurity evalPurity() const override { return EvalPurity::kStateful; }
  /// Done bits set on branch events and clear on the stem transfer event.
  EdgeActivity edgeActivity() const override { return EdgeActivity::kOnEvents; }
  void clockEdge(SimContext& ctx) const override;
  void packState(const std::uint64_t* record, StateWriter& w) const override;
  void unpackState(std::uint64_t* record, StateReader& r) const override;
  logic::Cost cost() const override;
  void timing(TimingModel& m) const override;
  std::string kindName() const override { return "fork"; }

  unsigned branches() const { return numOutputs(); }

  /// Record: one done bit per branch, a bit array.
  template <typename Base>
  class View : public Base {
   public:
    using Base::Base;
    bool done(unsigned i) const { return (this->record_[i / 64] >> (i % 64)) & 1; }
    void setDone(unsigned i, bool d) const {
      std::uint64_t& w = this->record_[i / 64];
      const std::uint64_t m = std::uint64_t{1} << (i % 64);
      w = d ? w | m : w & ~m;
    }
  };
  /// The handshake, once for both views (see elastic/node_view.h).
  template <typename V>
  static void comb(const V& v);
  template <typename V>
  static void edge(const V& v);

 private:
  /// Branch copy consumed this cycle (settled signals).
  template <typename V>
  static bool branchDoneNow(const V& v, unsigned i, bool inVf);

  unsigned width_;
};

template <typename V>
bool ForkNode::branchDoneNow(const V& v, unsigned i, bool inVf) {
  if (v.done(i)) return true;
  // The branch's vf is OUR driven value (inVf && !done(i)); recompute it
  // instead of reading it back (the accessor contract forbids read-after-write
  // of self-driven fields, and under sharding the read would be stale). The
  // consumer-driven sf/vb are read normally: done = kill or forward transfer
  // = vf && (vb || !sf).
  const auto br = v.out(i);
  return inVf && (br.vb() || !br.sf());
}

template <typename V>
void ForkNode::comb(const V& v) {
  auto in = v.in(0);
  const bool inVf = in.vf();
  const unsigned n = v.numOutputs();
  for (unsigned i = 0; i < n; ++i) {
    auto br = v.out(i);
    const bool pending = inVf && !v.done(i);
    br.setVf(pending);
    if (pending) br.setDataFrom(in);
    // An anti-token on the branch is only consumable against a pending copy;
    // otherwise it waits downstream for the copy to materialize.
    br.setSb(!pending);
  }

  bool allDone = inVf;
  for (unsigned i = 0; i < n && allDone; ++i) allDone = branchDoneNow(v, i, inVf);
  in.setSf(!allDone);
  in.setVb(false);
}

template <typename V>
void ForkNode::edge(const V& v) {
  if (!v.in(0).vf()) return;
  const unsigned n = v.numOutputs();
  bool all = true;
  for (unsigned i = 0; i < n; ++i) {
    const bool d = branchDoneNow(v, i, true);  // reads only branch i's bit
    v.setDone(i, d);
    all = all && d;
  }
  if (all)  // the stem token left: every branch starts the next one afresh
    for (unsigned i = 0; i < n; ++i) v.setDone(i, false);
}

}  // namespace esl
