// Correct-by-construction transformations (paper §3.3, §4).
//
// Each function checks its structural preconditions (throws TransformError),
// rewires the netlist in place, and leaves a transfer-equivalent system —
// the property the transformation test-suite verifies by co-simulation.
//
// The §4 speculation recipe is the composition:
//   1. find a critical cycle through a multiplexer select
//      (findSpeculationCandidates / selectFeedsBack),
//   2. shannonDecompose  — move the block behind the mux onto its inputs,
//   3. convertToEarlyEval — swap the join-mux controller for early evaluation,
//   4. shareFunctions    — merge the copies into one scheduled shared module.
// speculate() runs 2-4 in one call.
#pragma once

#include <memory>
#include <vector>

#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/func.h"
#include "elastic/netlist.h"
#include "elastic/shared.h"
#include "sched/scheduler.h"

namespace esl::transform {

// --- Bubble insertion / removal (paper §2: always legal on any channel) -----

/// Inserts an empty EB on `ch`. Returns the new node.
ElasticBuffer& insertBubble(Netlist& nl, ChannelId ch, std::string name = {});

/// Removes an *empty* EB (inverse of insertBubble).
void removeBubble(Netlist& nl, NodeId ebId);

// --- EB retiming -------------------------------------------------------------

/// Moves an empty EB sitting directly after a combinational FuncNode to all
/// of the node's inputs (backward retiming). Returns the new EBs.
std::vector<NodeId> retimeBackward(Netlist& nl, NodeId ebId);

/// Moves EBs sitting directly before each input of a FuncNode to its output
/// (forward retiming). All input EBs must hold the same number of initial
/// tokens; their values are recomputed through the function.
NodeId retimeForward(Netlist& nl, NodeId funcId);

// --- The speculation pipeline ------------------------------------------------

/// Shannon decomposition / multiplexer retiming [14]: `funcId` (1-in/1-out,
/// directly after join-mux `muxId`) is duplicated onto every data input.
/// The mux is rebuilt for the new data width. Returns the new mux and copies.
struct ShannonResult {
  NodeId mux = kNoNode;
  std::vector<NodeId> copies;
};
ShannonResult shannonDecompose(Netlist& nl, NodeId muxId, NodeId funcId);

/// Replaces a join mux (a FuncNode whose op is FnOp::Kind::kJoinMux) with an
/// EarlyEvalMux on the same channels. Only the controller changes; the
/// datapath stays the same.
NodeId convertToEarlyEval(Netlist& nl, NodeId muxId);

/// Merges identical FuncNodes feeding the data inputs of an EarlyEvalMux into
/// a single SharedModule driven by `scheduler`. funcs[i] must feed data input
/// i. Returns the shared module.
NodeId shareFunctions(Netlist& nl, const std::vector<NodeId>& funcs, NodeId eeMuxId,
                      std::unique_ptr<sched::Scheduler> scheduler);

/// Steps 2-4 of the recipe in one call.
NodeId speculate(Netlist& nl, NodeId muxId, NodeId funcId,
                 std::unique_ptr<sched::Scheduler> scheduler);

// --- Critical-cycle analysis (step 1) ----------------------------------------

/// True if the select input of `muxId` is fed (through any path) from the
/// output of `funcId` — i.e. (mux, func) sits on a cycle through the select,
/// the situation where "speculation is the transformation of choice" (§4).
bool selectFeedsBack(const Netlist& nl, NodeId muxId, NodeId funcId);

struct SpeculationCandidate {
  NodeId mux = kNoNode;
  NodeId func = kNoNode;
  bool onCriticalCycle = false;  ///< select depends on the func output
};

/// All (join-mux, following-func) pairs, flagged when the select feeds back.
std::vector<SpeculationCandidate> findSpeculationCandidates(const Netlist& nl);

}  // namespace esl::transform
