// Unit-gate cost model.
//
// The paper reports cycle time and area from a commercial 65nm synthesis flow;
// with no such library to synthesize against, this repo substitutes a
// technology-independent unit-gate model: a 2-input NAND-equivalent has delay
// 1 and area 1. Every datapath block and every elastic controller reports its
// cost through these formulas, and the timing analyzer (src/perf) sums delays
// along combinational paths.
#pragma once

namespace esl::logic {

/// Delay in gate units and area in NAND2-equivalents.
struct Cost {
  double delay = 0.0;
  double area = 0.0;

  Cost operator+(const Cost& rhs) const { return {delay + rhs.delay, area + rhs.area}; }
};

/// ceil(log2(n)) for n >= 1.
unsigned clog2(unsigned n);

// --- Datapath block costs (width = operand bits) ---------------------------

/// Ripple-carry adder: linear carry chain.
Cost rippleAdderCost(unsigned width);

/// Kogge-Stone prefix adder: logarithmic depth, larger area.
Cost koggeStoneAdderCost(unsigned width);

/// 2:1 multiplexer over `width` bits.
Cost mux2Cost(unsigned width);

/// k:1 multiplexer over `width` bits (tree of mux2).
Cost muxCost(unsigned inputs, unsigned width);

/// Equality comparator over `width` bits (XOR + AND tree).
Cost equalityCost(unsigned width);

/// XOR tree reducing `leaves` inputs to one bit.
Cost xorTreeCost(unsigned leaves);

/// Exact ALU (add/sub/logic + op decode) over `width` bits.
Cost aluExactCost(unsigned width);

/// Approximate ALU with carry chain segmented every `segment` bits:
/// shallower carry, same logic ops.
Cost aluApproxCost(unsigned width, unsigned segment);

/// Input-operand error predictor for the segmented-carry ALU (telescopic
/// "hold" function): detects a carry crossing a segment boundary.
Cost aluErrorPredictorCost(unsigned width, unsigned segment);

/// SECDED(72,64) encoder (8 parity trees over subsets of 64 bits).
Cost secdedEncoderCost();

/// SECDED(72,64) decoder: syndrome + overall parity + correction muxing.
Cost secdedDecoderCost();

// --- Sequential / control costs --------------------------------------------

/// One transparent latch per bit.
Cost latchCost(unsigned bits);

/// One edge-triggered flip-flop per bit (~2 latches).
Cost flopCost(unsigned bits);

/// Elastic buffer (Lf=1, Lb=1, C=2): two latch ranks + handshake control.
Cost ebCost(unsigned dataBits);

/// Elastic buffer with zero backward latency (Lf=1, Lb=0, C=1, Fig. 5):
/// one flop rank + combinational stop/kill control.
Cost eb0Cost(unsigned dataBits);

/// Join/fork/eager-fork handshake controller for `ways` branches.
Cost forkJoinCost(unsigned ways);

/// Early-evaluation multiplexer controller for `inputs` data channels
/// (anti-token counters + select handling), excluding the datapath mux.
Cost earlyEvalMuxCost(unsigned inputs);

/// Shared-module controller (Fig. 4b) for `inputs` channels, excluding the
/// datapath input mux and the shared function itself.
Cost sharedModuleCost(unsigned inputs);

/// Extra delay charged when a datapath signal gates a *global* controller
/// (clock-gating fan-out in the stalling variable-latency unit, §5.1).
Cost controlGatingCost();

}  // namespace esl::logic
