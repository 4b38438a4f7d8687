// Explicit-state model checker for elastic controllers (paper §4.2).
//
// The paper verifies its controllers with NuSMV/SMV; controllers composed
// with nondeterministic environments are small FSMs, so this repo checks the
// same property classes by explicit enumeration:
//   * reachability over (node state) x (environment choice bits),
//   * safety properties on settled signals (the SELF Invariant),
//   * step properties  G(p => X q)      (Retry+ / Retry-),
//   * recurrence       G F p            (Liveness),
//   * leads-to         G(p => F q)      (scheduler property, eq. 1),
//   * "a transfer stays reachable from every state" (deadlock freedom).
//
// Labels are predicates over the settled signals of one transition; each
// explored edge stores a label bitset, packed as ceil(labels/64) words per
// edge, so the SELF suite's 5 labels per channel plus progress fit netlists
// of any channel count.
//
// Exploration can be sharded across worker lanes (CheckerOptions::workers):
// the BFS runs level-synchronously, each level's states expand in parallel,
// one SimContext per lane over the checker's one netlist (the netlist is a
// read-only description; every byte a transition changes is in the lane's
// context), successors are probed against a striped visited-set keyed on the
// canonical state hash, and a single-threaded merge interns fresh states in
// exactly the serial BFS discovery order. The result — state numbering,
// transition counts, label bitmasks, truncation point, counterexample traces
// — is bit-identical to the serial checker for every worker count.
//
// Violated properties come back as Violation records carrying a replayable
// counterexample: the choice-combo path from reset to the witness (plus, for
// liveness-class properties, the lasso that avoids the goal forever). Traces
// are re-derived by a serial replay of the shortest offending path, so
// diagnostics are stable regardless of how the graph was explored.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "elastic/context.h"
#include "verify/state_index.h"

namespace esl::verify {

struct CheckerOptions {
  std::size_t maxStates = 100000;
  std::size_t maxChoiceBits = 14;  ///< refuse to enumerate beyond 2^14 per state
  /// BFS worker lanes: 1 = serial; 0 = one lane per hardware thread. Results
  /// are bit-identical for every setting.
  unsigned workers = 1;
};

/// Outcome of one reachable-state enumeration, from ModelChecker::explore()
/// and in every protocol-suite report.
struct ExploreResult {
  std::size_t states = 0;
  std::size_t transitions = 0;
  bool truncated = false;
};

/// One refuted — or, on a truncated graph, un-certifiable — property.
struct Violation {
  static constexpr std::size_t kNoLasso = ~std::size_t{0};

  std::string property;    ///< the formula, e.g. "G(up.retryF => X up.vf)"
  std::string diagnostic;  ///< human-readable cause
  /// True when exploration was truncated and the property is liveness-class:
  /// a partial graph can neither certify nor refute it, so this entry means
  /// "raise maxStates", not "controller broken". No counterexample attached.
  bool inconclusive = false;

  /// Counterexample trace, replayable from reset: taking choice combo
  /// combos[i] in state states[i] reaches states[i+1]. states.front() is the
  /// initial state (id 0); states.size() == combos.size() + 1. For
  /// recurrence/leads-to violations the suffix starting at index lassoStart
  /// is a cycle the run can repeat forever; kNoLasso for finite witnesses.
  std::vector<std::uint64_t> combos;
  std::vector<std::uint32_t> states;
  std::size_t lassoStart = kNoLasso;

  std::string str() const {
    return property + ": " + diagnostic;
  }
};

using LabelFn = std::function<bool(const SimContext&)>;

class ModelChecker {
 public:
  /// Checker over a borrowed netlist, which must not change while it runs.
  explicit ModelChecker(const Netlist& netlist, CheckerOptions options = {});
  ~ModelChecker();

  const Netlist& netlist() const { return netlist_; }

  /// Registers a labelled predicate; returns its index. Register every label
  /// before explore() — the explored graph only stores bits for labels that
  /// existed then, and the property checks refuse later additions. Under
  /// workers != 1 the predicate runs concurrently on all lanes (each with its
  /// own SimContext), so it must not capture shared mutable state.
  unsigned addLabel(std::string name, LabelFn fn);

  /// BFS over the full reachable state space.
  ExploreResult explore();

  // --- property checks on the explored graph (call after explore()) ---------
  //
  // No check certifies a truncated graph: the safety checks (never/step)
  // still report a violation found in the explored prefix — that much is
  // real — but a clean prefix comes back `inconclusive`, and the
  // liveness-class checks (whose fixpoints are wrong in both directions on a
  // partial graph) refuse up front.

  /// G !p — returns a violation if any edge satisfies `label`.
  std::optional<Violation> checkNever(const std::string& label) const;

  /// G(p => X q) — after an edge with p, every next edge must have q.
  std::optional<Violation> checkStep(const std::string& p,
                                     const std::string& q) const;

  /// G F p — no reachable cycle may avoid p forever.
  std::optional<Violation> checkRecurrence(const std::string& p) const;

  /// G(p => F q) — after any p-edge without q, q must be unavoidable.
  std::optional<Violation> checkLeadsTo(const std::string& p,
                                        const std::string& q) const;

  /// From every reachable state some p-edge must remain reachable.
  std::optional<Violation> checkAlwaysReachable(const std::string& p) const;

  bool truncated() const { return truncated_; }

  /// Order-sensitive hash of the entire explored graph — state bytes, edges,
  /// label masks, discovery parents, truncation. Equal fingerprints mean the
  /// parallel and serial explorations produced the same object.
  std::uint64_t graphFingerprint() const;

  /// Serially re-runs a violation's counterexample from reset, checking every
  /// step lands on the recorded state (InternalError otherwise — this guards
  /// the parallel merge as much as the trace construction).
  void replay(const Violation& v);

 private:
  struct SuccessorRec {
    std::uint64_t hash = 0;
    std::uint32_t known = kNoState;     ///< probe hit during expansion
    std::vector<std::uint8_t> bytes;    ///< filled only when unknown
  };

  std::size_t comboCount() const;
  void precomputeCombos();
  /// Appends a fresh state (bytes must be new); returns its id.
  std::uint32_t internFresh(std::uint64_t hash, std::vector<std::uint8_t> bytes,
                            std::uint32_t parent, std::uint32_t parentCombo);
  /// One transition on `ctx` from the packed state `from` under `combo`;
  /// leaves the successor bytes in `scratch` and appends labelWords_ words of
  /// evaluated label bits to `labelsOut`.
  void stepOnce(SimContext& ctx, const std::vector<std::uint8_t>& from,
                std::size_t combo, std::vector<std::uint8_t>& scratch,
                std::vector<std::uint64_t>& labelsOut);
  void exploreSerial();
  void exploreParallel();

  /// Index of `name` for graph queries; throws unless the label was already
  /// registered when the last explore() ran (its bits exist in the graph).
  unsigned labelIndex(const std::string& name) const;
  /// Label bit of the explored edge (state `s`, choice combo `combo`).
  bool edgeHasLabel(std::uint32_t s, std::size_t combo, unsigned label) const {
    return (labels_[s][combo * labelWords_ + label / 64] >> (label % 64)) & 1;
  }
  std::uint32_t edgeTo(std::uint32_t s, std::size_t combo) const {
    return edges_[s][combo];
  }
  std::size_t edgeCount(std::uint32_t s) const { return edges_[s].size(); }
  /// States with an infinite path using only edges without the `avoid` label.
  std::vector<bool> canAvoidForever(unsigned avoidLabel) const;

  /// Inconclusive violation for liveness-class properties on truncated graphs.
  std::optional<Violation> refuseIfTruncated(const std::string& property) const;
  /// Fills v.states/v.combos with the discovery path from the initial state
  /// to `s` (each step is the state's first-discovery edge — the shortest
  /// BFS path, identical for every worker count).
  void tracePathTo(Violation& v, std::uint32_t s) const;
  /// Appends the explored edge `combo` out of the trace's last state.
  void traceEdge(Violation& v, std::uint32_t combo) const;
  /// Appends a cycle that stays inside the avoid-subgraph forever.
  void traceLasso(Violation& v, unsigned avoidLabel,
                  const std::vector<bool>& can) const;

  const Netlist& netlist_;
  CheckerOptions options_;
  SimContext ctx_;
  std::vector<std::string> labelNames_;
  std::vector<LabelFn> labelFns_;

  // Explored graph; identical for every worker count. Successor ids are
  // indexed [state][combo]; label bits are stride-packed per state as
  // combo * labelWords_ words (labelWords_ = ceil(labels/64)).
  std::vector<std::vector<std::uint8_t>> states_;   ///< packed bytes by id
  std::vector<std::vector<std::uint32_t>> edges_;   ///< successor per combo
  std::vector<std::vector<std::uint64_t>> labels_;  ///< label words per edge
  std::vector<std::uint32_t> parentState_;          ///< first-discovery parent
  std::vector<std::uint32_t> parentCombo_;          ///< combo taken from parent
  std::size_t labelWords_ = 1;
  std::size_t exploredLabels_ = 0;  ///< label count when explore() last ran
  std::size_t transitions_ = 0;
  bool truncated_ = false;

  StateIndex index_;
  std::vector<std::vector<bool>> comboBits_;  ///< choice bits per combo
  std::vector<std::uint8_t> packScratch_;
};

// ---------------------------------------------------------------------------
// SELF protocol suite (paper §3.1 + §4.2) over a whole netlist
// ---------------------------------------------------------------------------

struct ProtocolReport {
  ExploreResult explore;
  std::vector<Violation> violations;
  std::size_t propertiesChecked = 0;
  bool ok() const { return violations.empty(); }
  /// First violation's one-line description ("" when ok).
  std::string firstViolation() const {
    return violations.empty() ? std::string() : violations.front().str();
  }
};

/// Runs the full §3.1 property set on every channel of the netlist:
/// Invariant (kill/stop exclusion), Retry+ (skipped on channels whose
/// producer is exempt, §4.2), Retry-, global liveness and deadlock freedom.
ProtocolReport checkSelfProtocol(const Netlist& netlist,
                                 CheckerOptions options = {});

/// The leads-to property of eq. (1) for each input channel of a shared
/// module: a valid input token is eventually served or killed.
ProtocolReport checkSchedulerLeadsTo(const Netlist& netlist, NodeId sharedModule,
                                     CheckerOptions options = {});

}  // namespace esl::verify
