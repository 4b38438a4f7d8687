#include "verify/checker.h"

#include <algorithm>
#include <unordered_map>

#include "base/executor.h"
#include "elastic/shared.h"

namespace esl::verify {

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ModelChecker::ModelChecker(const Netlist& netlist, CheckerOptions options)
    : netlist_(netlist),
      options_(options),
      ctx_(netlist_),
      index_([this](std::uint32_t id) -> const std::vector<std::uint8_t>& {
        return states_[id];
      }) {
  ctx_.setProtocolChecking(false);
}

ModelChecker::~ModelChecker() = default;

unsigned ModelChecker::addLabel(std::string name, LabelFn fn) {
  ESL_CHECK(labelNames_.size() < 65536, "ModelChecker: too many labels");
  labelNames_.push_back(std::move(name));
  labelFns_.push_back(std::move(fn));
  return static_cast<unsigned>(labelNames_.size() - 1);
}

unsigned ModelChecker::labelIndex(const std::string& name) const {
  for (unsigned i = 0; i < labelNames_.size(); ++i) {
    if (labelNames_[i] != name) continue;
    // The graph stores labelWords_ words per edge, sized for the labels that
    // existed when explore() ran; a later registration has no bits there
    // (and could even index past the stored words).
    ESL_CHECK(i < exploredLabels_,
              "ModelChecker: label '" + name +
                  "' was not registered when explore() ran");
    return i;
  }
  throw EslError("ModelChecker: unknown label " + name);
}

// ---------------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------------

std::size_t ModelChecker::comboCount() const {
  return std::size_t{1} << ctx_.totalChoices();
}

void ModelChecker::precomputeCombos() {
  const std::size_t combos = comboCount();
  comboBits_.assign(combos, {});
  for (std::size_t combo = 0; combo < combos; ++combo) {
    std::vector<bool> bits(ctx_.totalChoices());
    for (std::size_t b = 0; b < bits.size(); ++b) bits[b] = (combo >> b) & 1;
    comboBits_[combo] = std::move(bits);
  }
}

std::uint32_t ModelChecker::internFresh(std::uint64_t hash,
                                        std::vector<std::uint8_t> bytes,
                                        std::uint32_t parent,
                                        std::uint32_t parentCombo) {
  const auto id = static_cast<std::uint32_t>(states_.size());
  states_.push_back(std::move(bytes));
  edges_.emplace_back();
  labels_.emplace_back();
  parentState_.push_back(parent);
  parentCombo_.push_back(parentCombo);
  index_.insert(hash, id);
  return id;
}

void ModelChecker::stepOnce(SimContext& ctx,
                            const std::vector<std::uint8_t>& from,
                            std::size_t combo,
                            std::vector<std::uint8_t>& scratch,
                            std::vector<std::uint64_t>& labelsOut) {
  ctx.unpackNodeState(from);
  ctx.setChoicesFrom(comboBits_[combo]);
  ctx.settle();
  const std::size_t base = labelsOut.size();
  labelsOut.resize(base + labelWords_, 0);
  for (std::size_t l = 0; l < labelFns_.size(); ++l)
    if (labelFns_[l](ctx)) labelsOut[base + l / 64] |= 1ULL << (l % 64);
  ctx.edge();
  ctx.packStateInto(scratch);
}

ExploreResult ModelChecker::explore() {
  ESL_CHECK(ctx_.totalChoices() <= options_.maxChoiceBits,
            "ModelChecker: too many choice bits to enumerate");
  const bool parallel = options_.workers != 1;

  states_.clear();
  edges_.clear();
  labels_.clear();
  parentState_.clear();
  parentCombo_.clear();
  index_.clear();
  transitions_ = 0;
  truncated_ = false;
  labelWords_ = labelFns_.empty() ? 1 : (labelFns_.size() + 63) / 64;
  exploredLabels_ = labelFns_.size();
  precomputeCombos();

  ctx_.reset();
  ctx_.packStateInto(packScratch_);
  internFresh(hashBytes(packScratch_), packScratch_, 0, 0);

  if (parallel)
    exploreParallel();
  else
    exploreSerial();

  ExploreResult result;
  result.states = states_.size();
  result.transitions = transitions_;
  result.truncated = truncated_;
  return result;
}

void ModelChecker::exploreSerial() {
  // States are interned in discovery order, so iterating ids in order IS the
  // BFS queue; states_ grows as the loop runs.
  const std::size_t combos = comboCount();
  for (std::uint32_t cur = 0; cur < states_.size(); ++cur) {
    if (states_.size() > options_.maxStates) {
      truncated_ = true;
      break;
    }
    edges_[cur].reserve(combos);
    labels_[cur].reserve(combos * labelWords_);
    for (std::size_t combo = 0; combo < combos; ++combo) {
      stepOnce(ctx_, states_[cur], combo, packScratch_, labels_[cur]);
      const std::uint64_t hash = hashBytes(packScratch_);
      std::uint32_t next = index_.find(hash, packScratch_);
      if (next == kNoState)
        next = internFresh(hash, packScratch_, cur,
                           static_cast<std::uint32_t>(combo));
      edges_[cur].push_back(next);
      ++transitions_;
    }
  }
}

void ModelChecker::exploreParallel() {
  // The executor owns the 0-means-hardware-concurrency resolution; its lane
  // count is the worker count everywhere below.
  Executor executor(options_.workers);
  const unsigned workers = executor.lanes();
  // Lane 0 is the checker's own context; every other lane gets a context
  // over the same netlist, and the scratch buffer it expands states with.
  struct Lane {
    explicit Lane(const Netlist& nl) : ctx(nl) { ctx.setProtocolChecking(false); }
    SimContext ctx;
    std::vector<std::uint8_t> scratch;
  };
  std::vector<std::unique_ptr<Lane>> lanes;
  for (unsigned l = 1; l < workers; ++l)
    lanes.push_back(std::make_unique<Lane>(netlist_));
  const std::size_t combos = comboCount();

  /// Expansion output for one frontier state: per-combo successor records
  /// plus the flat label words, exactly as the merge will store them.
  struct StateExpansion {
    std::vector<SuccessorRec> recs;
    std::vector<std::uint64_t> labelWords;
  };

  std::vector<StateExpansion> slots;
  std::uint32_t levelBegin = 0;
  while (levelBegin < states_.size() && !truncated_) {
    const auto levelEnd = static_cast<std::uint32_t>(states_.size());
    slots.assign(levelEnd - levelBegin, {});

    // Expansion: lanes read states_/index_ only (the merge below is the sole
    // writer, and it runs strictly between parallelFor calls).
    executor.parallelFor(
        levelEnd - levelBegin, [&](std::size_t i, unsigned lane) {
          SimContext& ctx = lane == 0 ? ctx_ : lanes[lane - 1]->ctx;
          std::vector<std::uint8_t>& scratch =
              lane == 0 ? packScratch_ : lanes[lane - 1]->scratch;
          const std::uint32_t cur = levelBegin + static_cast<std::uint32_t>(i);
          StateExpansion& out = slots[i];
          out.recs.resize(combos);
          out.labelWords.reserve(combos * labelWords_);
          for (std::size_t combo = 0; combo < combos; ++combo) {
            SuccessorRec& rec = out.recs[combo];
            stepOnce(ctx, states_[cur], combo, scratch, out.labelWords);
            rec.hash = hashBytes(scratch);
            rec.known = index_.find(rec.hash, scratch);
            if (rec.known == kNoState) rec.bytes = scratch;
          }
        });

    // Deterministic merge: states in id order, combos in order — the exact
    // order the serial BFS interns successors, including the truncation
    // point (checked before each state's successors, as the serial loop
    // checks before expanding each popped state).
    for (std::uint32_t cur = levelBegin; cur < levelEnd; ++cur) {
      if (states_.size() > options_.maxStates) {
        truncated_ = true;
        break;
      }
      StateExpansion& out = slots[cur - levelBegin];
      labels_[cur] = std::move(out.labelWords);
      edges_[cur].reserve(combos);
      for (std::size_t combo = 0; combo < combos; ++combo) {
        SuccessorRec& rec = out.recs[combo];
        std::uint32_t next = rec.known;
        if (next == kNoState) {
          // The expansion-time probe ran before this merge interned the
          // current level's discoveries, so re-probe before interning.
          next = index_.find(rec.hash, rec.bytes);
          if (next == kNoState)
            next = internFresh(rec.hash, std::move(rec.bytes), cur,
                               static_cast<std::uint32_t>(combo));
        }
        edges_[cur].push_back(next);
        ++transitions_;
      }
    }
    levelBegin = levelEnd;
  }
}

// ---------------------------------------------------------------------------
// Counterexample traces
// ---------------------------------------------------------------------------

void ModelChecker::tracePathTo(Violation& v, std::uint32_t s) const {
  std::vector<std::uint32_t> reversed;
  for (std::uint32_t at = s; at != 0; at = parentState_[at]) reversed.push_back(at);
  v.states.clear();
  v.combos.clear();
  v.states.push_back(0);
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    v.combos.push_back(parentCombo_[*it]);
    v.states.push_back(*it);
  }
}

void ModelChecker::traceEdge(Violation& v, std::uint32_t combo) const {
  const std::uint32_t from = v.states.back();
  v.combos.push_back(combo);
  v.states.push_back(edges_[from][combo]);
}

void ModelChecker::traceLasso(Violation& v, unsigned avoidLabel,
                              const std::vector<bool>& can) const {
  // Walk the avoid-subgraph (always taking the first qualifying edge, so the
  // lasso is deterministic) until a state of the walk repeats.
  const std::size_t walkStart = v.states.size() - 1;
  std::unordered_map<std::uint32_t, std::size_t> seenAt;
  seenAt.emplace(v.states.back(), walkStart);
  for (;;) {
    const std::uint32_t cur = v.states.back();
    bool stepped = false;
    for (std::size_t combo = 0; combo < edgeCount(cur); ++combo) {
      if (edgeHasLabel(cur, combo, avoidLabel) || !can[edgeTo(cur, combo)])
        continue;
      traceEdge(v, static_cast<std::uint32_t>(combo));
      stepped = true;
      break;
    }
    ESL_ASSERT(stepped);  // can[] is a fixpoint: a successor always exists
    const auto [it, fresh] = seenAt.emplace(v.states.back(), v.states.size() - 1);
    if (!fresh) {
      v.lassoStart = it->second;
      return;
    }
  }
}

void ModelChecker::replay(const Violation& v) {
  ESL_CHECK(!v.inconclusive && !v.states.empty(),
            "ModelChecker::replay: violation carries no counterexample");
  ESL_CHECK(v.states.size() == v.combos.size() + 1,
            "ModelChecker::replay: malformed trace");
  ctx_.reset();
  ctx_.packStateInto(packScratch_);
  if (packScratch_ != states_[v.states.front()])
    throw InternalError("counterexample replay: initial state mismatch");
  for (std::size_t i = 0; i < v.combos.size(); ++i) {
    ctx_.setChoicesFrom(comboBits_[v.combos[i]]);
    ctx_.settle();
    ctx_.edge();
    ctx_.packStateInto(packScratch_);
    if (packScratch_ != states_[v.states[i + 1]])
      throw InternalError("counterexample replay: diverged at step " +
                          std::to_string(i) + " (expected state " +
                          std::to_string(v.states[i + 1]) + ")");
  }
}

// ---------------------------------------------------------------------------
// Property checks
// ---------------------------------------------------------------------------

std::optional<Violation> ModelChecker::refuseIfTruncated(
    const std::string& property) const {
  if (!truncated_) return std::nullopt;
  Violation v;
  v.property = property;
  v.diagnostic = "inconclusive: state space truncated at " +
                 std::to_string(states_.size()) + " states (maxStates=" +
                 std::to_string(options_.maxStates) +
                 ") — a partial graph cannot certify the property";
  v.inconclusive = true;
  return v;
}

std::optional<Violation> ModelChecker::checkNever(const std::string& label) const {
  const unsigned l = labelIndex(label);
  for (std::uint32_t s = 0; s < edges_.size(); ++s) {
    for (std::size_t combo = 0; combo < edgeCount(s); ++combo) {
      if (!edgeHasLabel(s, combo, l)) continue;
      Violation v;
      v.property = "G !" + label;
      v.diagnostic = "violated from state " + std::to_string(s);
      tracePathTo(v, s);
      traceEdge(v, static_cast<std::uint32_t>(combo));
      return v;
    }
  }
  // A violation found in the explored prefix is real either way, but a clean
  // prefix of a truncated graph certifies nothing.
  return refuseIfTruncated("G !" + label);
}

std::optional<Violation> ModelChecker::checkStep(const std::string& p,
                                                 const std::string& q) const {
  const unsigned pl = labelIndex(p), ql = labelIndex(q);
  for (std::uint32_t s = 0; s < edges_.size(); ++s) {
    for (std::size_t c1 = 0; c1 < edgeCount(s); ++c1) {
      if (!edgeHasLabel(s, c1, pl)) continue;
      const std::uint32_t t = edgeTo(s, c1);
      for (std::size_t c2 = 0; c2 < edgeCount(t); ++c2) {
        if (edgeHasLabel(t, c2, ql)) continue;
        Violation v;
        v.property = "G(" + p + " => X " + q + ")";
        v.diagnostic = "violated via state " + std::to_string(t);
        tracePathTo(v, s);
        traceEdge(v, static_cast<std::uint32_t>(c1));
        traceEdge(v, static_cast<std::uint32_t>(c2));
        return v;
      }
    }
  }
  return refuseIfTruncated("G(" + p + " => X " + q + ")");
}

std::vector<bool> ModelChecker::canAvoidForever(unsigned avoidLabel) const {
  const std::size_t n = edges_.size();
  // Subgraph of edges that do NOT carry the avoided label.
  // A state can avoid forever iff it reaches a cycle inside the subgraph.
  // Iterative pruning: repeatedly remove states with no subgraph successor
  // that can still avoid; the fixpoint keeps exactly the cycle-reaching set.
  std::vector<bool> can(n, false);
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::size_t combo = 0; combo < edgeCount(s); ++combo)
      if (!edgeHasLabel(s, combo, avoidLabel)) {
        can[s] = true;
        break;
      }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (!can[s]) continue;
      bool ok = false;
      for (std::size_t combo = 0; combo < edgeCount(s); ++combo)
        if (!edgeHasLabel(s, combo, avoidLabel) && can[edgeTo(s, combo)]) {
          ok = true;
          break;
        }
      if (!ok) {
        can[s] = false;
        changed = true;
      }
    }
  }
  return can;
}

std::optional<Violation> ModelChecker::checkRecurrence(const std::string& p) const {
  const std::string property = "G F " + p;
  if (auto v = refuseIfTruncated(property)) return v;
  const unsigned pl = labelIndex(p);
  const std::vector<bool> avoid = canAvoidForever(pl);
  // The initial state is 0; GF p fails iff any reachable state can avoid p
  // forever (all stored states are reachable by construction).
  for (std::uint32_t s = 0; s < edges_.size(); ++s) {
    if (!avoid[s]) continue;
    Violation v;
    v.property = property;
    v.diagnostic =
        "violated: state " + std::to_string(s) + " can avoid it forever";
    tracePathTo(v, s);
    traceLasso(v, pl, avoid);
    return v;
  }
  return std::nullopt;
}

std::optional<Violation> ModelChecker::checkLeadsTo(const std::string& p,
                                                    const std::string& q) const {
  const std::string property = "G(" + p + " => F " + q + ")";
  if (auto v = refuseIfTruncated(property)) return v;
  const unsigned pl = labelIndex(p), ql = labelIndex(q);
  const std::vector<bool> avoid = canAvoidForever(ql);
  for (std::uint32_t s = 0; s < edges_.size(); ++s) {
    for (std::size_t combo = 0; combo < edgeCount(s); ++combo) {
      if (!(edgeHasLabel(s, combo, pl) && !edgeHasLabel(s, combo, ql) &&
            avoid[edgeTo(s, combo)]))
        continue;
      Violation v;
      v.property = property;
      v.diagnostic = "violated from state " + std::to_string(s);
      tracePathTo(v, s);
      traceEdge(v, static_cast<std::uint32_t>(combo));
      traceLasso(v, ql, avoid);
      return v;
    }
  }
  return std::nullopt;
}

std::optional<Violation> ModelChecker::checkAlwaysReachable(
    const std::string& p) const {
  const std::string property = "G EF " + p;
  if (auto v = refuseIfTruncated(property)) return v;
  const unsigned pl = labelIndex(p);
  const std::size_t n = edges_.size();
  // Backward closure from sources of p-edges.
  std::vector<bool> good(n, false);
  for (std::uint32_t s = 0; s < n; ++s)
    for (std::size_t combo = 0; combo < edgeCount(s); ++combo)
      if (edgeHasLabel(s, combo, pl)) {
        good[s] = true;
        break;
      }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t s = 0; s < n; ++s) {
      if (good[s]) continue;
      for (std::size_t combo = 0; combo < edgeCount(s); ++combo)
        if (good[edgeTo(s, combo)]) {
          good[s] = true;
          changed = true;
          break;
        }
    }
  }
  for (std::uint32_t s = 0; s < n; ++s) {
    if (good[s]) continue;
    Violation v;
    v.property = property;
    v.diagnostic = "dead state " + std::to_string(s) + ": no " + p +
                   " reachable any more";
    tracePathTo(v, s);
    return v;
  }
  return std::nullopt;
}

std::uint64_t ModelChecker::graphFingerprint() const {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(states_.size());
  mix(transitions_);
  mix(truncated_ ? 1 : 0);
  mix(labelWords_);
  for (std::size_t s = 0; s < states_.size(); ++s) {
    mix(hashBytes(states_[s]));
    mix(parentState_[s]);
    mix(parentCombo_[s]);
    mix(edges_[s].size());
    for (const std::uint32_t to : edges_[s]) mix(to);
    for (const std::uint64_t word : labels_[s]) mix(word);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Protocol suite
// ---------------------------------------------------------------------------

namespace {

void addChannelLabels(ModelChecker& mc, const Netlist& nl, ChannelId ch) {
  const std::string base = nl.channel(ch).name;
  mc.addLabel(base + ".retryF", [ch](const SimContext& c) {
    const ConstSig s = c.sig(ch);
    return s.vf() && s.sf() && !s.vb();
  });
  mc.addLabel(base + ".vf", [ch](const SimContext& c) { return c.sig(ch).vf(); });
  mc.addLabel(base + ".retryB", [ch](const SimContext& c) {
    const ConstSig s = c.sig(ch);
    return s.vb() && s.sb() && !s.vf();
  });
  mc.addLabel(base + ".vb", [ch](const SimContext& c) { return c.sig(ch).vb(); });
  mc.addLabel(base + ".killStop", [ch](const SimContext& c) {
    const ConstSig s = c.sig(ch);
    return (s.vf() && s.vb() && s.sf()) || (s.vf() && s.vb() && s.sb());
  });
}

/// Replays every counterexample the checks produced: cheap (paths are
/// BFS-short), and it turns any internal inconsistency between the explored
/// graph and the real transition system — e.g. a buggy parallel merge — into
/// an InternalError right where the report is built.
void note(ProtocolReport& report, ModelChecker& mc,
          std::optional<Violation> violation) {
  ++report.propertiesChecked;
  if (!violation) return;
  if (!violation->inconclusive) mc.replay(*violation);
  report.violations.push_back(std::move(*violation));
}

ProtocolReport runSelfSuite(ModelChecker& mc, const Netlist& netlist) {
  const auto channels = netlist.channelIds();
  for (const ChannelId ch : channels) addChannelLabels(mc, netlist, ch);
  mc.addLabel("progress", [channels](const SimContext& c) {
    for (const ChannelId ch : channels) {
      const ConstSig s = c.sig(ch);
      if (fwdTransfer(s) || killEvent(s) || bwdTransfer(s)) return true;
    }
    return false;
  });

  ProtocolReport report;
  report.explore = mc.explore();

  const std::vector<bool> persistent = netlist.channelPersistence();
  for (const ChannelId ch : channels) {
    const std::string base = netlist.channel(ch).name;
    note(report, mc, mc.checkNever(base + ".killStop"));  // Invariant
    if (persistent[ch])
      note(report, mc, mc.checkStep(base + ".retryF", base + ".vf"));  // Retry+
    note(report, mc, mc.checkStep(base + ".retryB", base + ".vb"));    // Retry-
  }
  // Liveness (G F progress; needs fair environments) and deadlock freedom.
  note(report, mc, mc.checkRecurrence("progress"));
  note(report, mc, mc.checkAlwaysReachable("progress"));
  return report;
}

ProtocolReport runSchedulerSuite(ModelChecker& mc, const Netlist& netlist,
                                 NodeId sharedId) {
  const auto* shared = dynamic_cast<const SharedModule*>(&netlist.node(sharedId));
  ESL_CHECK(shared != nullptr, "checkSchedulerLeadsTo: node is not a SharedModule");

  const unsigned k = shared->channels();
  for (unsigned i = 0; i < k; ++i) {
    const ChannelId in = shared->input(i);
    const ChannelId out = shared->output(i);
    mc.addLabel("in" + std::to_string(i) + ".valid",
                [in](const SimContext& c) { return c.sig(in).vf(); });
    // Served through the shared unit, or killed by an anti-token.
    mc.addLabel("in" + std::to_string(i) + ".done", [in, out](const SimContext& c) {
      return fwdTransfer(c.sig(out)) || killEvent(c.sig(in)) ||
             killEvent(c.sig(out));
    });
  }

  ProtocolReport report;
  report.explore = mc.explore();
  for (unsigned i = 0; i < k; ++i)
    note(report, mc,
         mc.checkLeadsTo("in" + std::to_string(i) + ".valid",
                         "in" + std::to_string(i) + ".done"));
  return report;
}

}  // namespace

ProtocolReport checkSelfProtocol(const Netlist& netlist, CheckerOptions options) {
  ModelChecker mc(netlist, options);
  return runSelfSuite(mc, netlist);
}

ProtocolReport checkSchedulerLeadsTo(const Netlist& netlist, NodeId sharedId,
                                     CheckerOptions options) {
  ModelChecker mc(netlist, options);
  return runSchedulerSuite(mc, netlist, sharedId);
}

}  // namespace esl::verify
