// Shared driver for the three-way kernel differential fuzz (PR-fast suite in
// test_diff_kernels.cpp, large seeded campaign in test_diff_nightly.cpp).
//
// One trial builds the same synthetic system three times — reference sweep,
// event-driven interpreter, compiled bytecode VM — runs the instances in
// lockstep, and asserts identical packed netlist state after EVERY cycle
// (plus identical sink transfer streams at the end) — a much stronger oracle
// than end-of-run outputs, since a divergence that later self-corrects still
// fails. On failure the driver greedily shrinks the offending SynthConfig
// (fewer nodes, plainer traffic, fewer cycles) while the mismatch reproduces,
// so the reported seed/config is a minimal repro.
#pragma once

#include <optional>
#include <string>

#include "netlist/synth.h"
#include "sim/simulator.h"

namespace esl::test {

/// Logs the system's main sink's transfer stream in `s` (before it runs).
inline void logMainSink(sim::Simulator& s, const synth::SynthSystem& sys) {
  if (sys.mainSink != nullptr) s.ctx().logTransfers(sys.mainSink->input(0));
}

/// Compares two sinks' transfer streams, logged in `sa` and `sb`; `label`
/// names the pair.
inline std::optional<std::string> diffSinkStreams(sim::Simulator& sa,
                                                  const TokenSink* a,
                                                  sim::Simulator& sb,
                                                  const TokenSink* b,
                                                  const std::string& label) {
  if (a == nullptr || b == nullptr) return std::nullopt;
  const auto& ta = sa.ctx().transfers(a->input(0));
  const auto& tb = sb.ctx().transfers(b->input(0));
  if (ta.size() != tb.size())
    return label + ": sink transfer counts differ (" +
           std::to_string(ta.size()) + " vs " + std::to_string(tb.size()) + ")";
  for (std::size_t i = 0; i < ta.size(); ++i)
    if (ta[i].cycle != tb[i].cycle || !(ta[i].data == tb[i].data))
      return label + ": sink transfer " + std::to_string(i) + " differs";
  return std::nullopt;
}

/// Runs one three-way differential trial (sweep vs event vs compiled);
/// returns a description of the first mismatch naming the diverging pair, or
/// nullopt when all three agree everywhere.
inline std::optional<std::string> diffKernelsOnce(const synth::SynthConfig& cfg,
                                                  std::uint64_t cycles) {
  synth::SynthSystem sweep = synth::build(cfg);
  synth::SynthSystem event = synth::build(cfg);
  synth::SynthSystem comp = synth::build(cfg);
  sim::SimOptions base;
  base.checkProtocol = false;  // the oracle is state equality, keep runs lean
  sim::SimOptions sweepOpts = base, eventOpts = base, compOpts = base;
  sweepOpts.kernel = SimContext::SettleKernel::kSweep;
  eventOpts.kernel = SimContext::SettleKernel::kEventDriven;
  compOpts.kernel = SimContext::SettleKernel::kEventDriven;
  compOpts.backend = SimContext::Backend::kCompiled;
  sim::Simulator ss(sweep.nl, sweepOpts);
  sim::Simulator se(event.nl, eventOpts);
  sim::Simulator sc(comp.nl, compOpts);
  logMainSink(ss, sweep);
  logMainSink(se, event);
  logMainSink(sc, comp);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    se.step();
    sc.step();
    if (ss.ctx().packState() != se.ctx().packState())
      return "sweep-vs-event: packed state diverged at cycle " +
             std::to_string(c);
    if (se.ctx().packState() != sc.ctx().packState())
      return "event-vs-compiled: packed state diverged at cycle " +
             std::to_string(c);
  }
  if (auto d = diffSinkStreams(ss, sweep.mainSink, se, event.mainSink,
                               "sweep-vs-event"))
    return d;
  if (auto d = diffSinkStreams(se, event.mainSink, sc, comp.mainSink,
                               "event-vs-compiled"))
    return d;
  return std::nullopt;
}

/// Two-way compiled-vs-interpreted differential (the compiled-kernel suite's
/// workhorse; the three-way diffKernelsOnce subsumes it but costs a third
/// sweep-kernel run).
inline std::optional<std::string> diffCompiledOnce(const synth::SynthConfig& cfg,
                                                   std::uint64_t cycles) {
  synth::SynthSystem interp = synth::build(cfg);
  synth::SynthSystem comp = synth::build(cfg);
  sim::SimOptions base;
  base.checkProtocol = false;
  sim::SimOptions compOpts = base;
  compOpts.backend = SimContext::Backend::kCompiled;
  sim::Simulator si(interp.nl, base);
  sim::Simulator sc(comp.nl, compOpts);
  logMainSink(si, interp);
  logMainSink(sc, comp);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    si.step();
    sc.step();
    if (si.ctx().packState() != sc.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c);
  }
  return diffSinkStreams(si, interp.mainSink, sc, comp.mainSink,
                         "interp-vs-compiled");
}

/// Sharded-vs-serial differential: the same system, one instance on the
/// serial event kernel and one sharded across `shards` worker lanes, asserted
/// packState-identical after EVERY cycle (the sharded settle must reach the
/// exact fixed point the serial kernel does, cycle by cycle).
inline std::optional<std::string> diffShardedOnce(const synth::SynthConfig& cfg,
                                                  std::uint64_t cycles,
                                                  unsigned shards) {
  synth::SynthSystem serial = synth::build(cfg);
  synth::SynthSystem sharded = synth::build(cfg);
  sim::SimOptions base;
  base.checkProtocol = false;
  sim::SimOptions shardedOpts = base;
  shardedOpts.shards = shards;
  sim::Simulator ss(serial.nl, base);
  sim::Simulator sh(sharded.nl, shardedOpts);
  logMainSink(ss, serial);
  logMainSink(sh, sharded);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    sh.step();
    if (ss.ctx().packState() != sh.ctx().packState())
      return "packed state diverged at cycle " + std::to_string(c) + " (" +
             std::to_string(shards) + " shards)";
  }
  return diffSinkStreams(ss, serial.mainSink, sh, sharded.mainSink,
                         "serial-vs-sharded");
}

/// Compiled×sharded differential: the compiled backend sharded across
/// `shards` lanes against the serial compiled backend, packState-identical
/// after every cycle. Interior nodes run specialized arena ops while
/// boundary-adjacent nodes take the staging-aware interpreted path, so this
/// pins both the shard-sliced arena and the mixed-dispatch seam.
inline std::optional<std::string> diffCompiledShardedOnce(
    const synth::SynthConfig& cfg, std::uint64_t cycles, unsigned shards) {
  synth::SynthSystem serial = synth::build(cfg);
  synth::SynthSystem sharded = synth::build(cfg);
  sim::SimOptions base;
  base.checkProtocol = false;
  base.backend = SimContext::Backend::kCompiled;
  sim::SimOptions shardedOpts = base;
  shardedOpts.shards = shards;
  sim::Simulator ss(serial.nl, base);
  sim::Simulator sh(sharded.nl, shardedOpts);
  logMainSink(ss, serial);
  logMainSink(sh, sharded);

  for (std::uint64_t c = 0; c < cycles; ++c) {
    ss.step();
    sh.step();
    if (ss.ctx().packState() != sh.ctx().packState())
      return "compiled packed state diverged at cycle " + std::to_string(c) +
             " (" + std::to_string(shards) + " shards)";
  }
  return diffSinkStreams(ss, serial.mainSink, sh, sharded.mainSink,
                         "compiled-serial-vs-sharded");
}

struct DiffFailure {
  synth::SynthConfig config;  ///< minimal failing config
  std::uint64_t cycles = 0;
  std::string mismatch;
  std::string describe() const {
    return "kernel divergence on " + synth::describe(config) + " (seed " +
           std::to_string(config.seed) + ", " + std::to_string(cycles) +
           " cycles): " + mismatch;
  }
};

/// Greedy config shrinker shared by the property-based harnesses (kernel
/// differential fuzz, `.esl` round-trip equivalence): given a failing
/// (cfg, cycles) pair and a predicate that re-runs the trial, shrinks one
/// knob at a time, keeping each shrink only while the failure reproduces.
/// Structural shrinks first (smaller netlist), then traffic, then time.
template <typename StillFails>
inline void shrinkSynthConfig(synth::SynthConfig& cfg, std::uint64_t& cycles,
                              const StillFails& stillFails) {
  while (cfg.targetNodes > 6) {
    synth::SynthConfig candidate = cfg;
    candidate.targetNodes = cfg.targetNodes / 2 < 6 ? 6 : cfg.targetNodes / 2;
    if (!stillFails(candidate, cycles)) break;
    cfg = candidate;
  }
  for (const auto knob : {0, 1, 2, 3}) {
    synth::SynthConfig candidate = cfg;
    switch (knob) {
      case 0: candidate.vluPermille = 0; break;
      case 1: candidate.injectPeriod = 1; break;
      case 2: candidate.bufferCapacity = 2; break;
      case 3: candidate.width = 1; break;
    }
    if (stillFails(candidate, cycles)) cfg = candidate;
  }
  while (cycles > 8 && stillFails(cfg, cycles / 2)) cycles /= 2;
}

/// Runs the trial and, if it fails, shrinks the config before reporting.
inline std::optional<DiffFailure> diffKernelsShrinking(synth::SynthConfig cfg,
                                                       std::uint64_t cycles) {
  auto mismatch = diffKernelsOnce(cfg, cycles);
  if (!mismatch) return std::nullopt;

  shrinkSynthConfig(cfg, cycles,
                    [](const synth::SynthConfig& candidate,
                       std::uint64_t candidateCycles) {
                      return diffKernelsOnce(candidate, candidateCycles).has_value();
                    });

  DiffFailure failure;
  failure.config = cfg;
  failure.cycles = cycles;
  failure.mismatch = *diffKernelsOnce(cfg, cycles);
  return failure;
}

}  // namespace esl::test
