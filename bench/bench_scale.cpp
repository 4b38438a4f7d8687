// Scale benchmark: generated netlists at 1k/10k/100k nodes through both
// settle kernels, plus a SimFarm multi-seed grid and a multicore smoke test.
//
// The paper's 10-node micro-netlists hide the event kernel's O(active)
// advantage behind fixed per-cycle work; this harness makes the separation
// visible. Synthetic topologies (src/netlist/synth.*) are run with sparse
// token injection — a few tokens in flight in a huge quiet graph — which is
// the traffic shape of a production system at partial load: the sweep kernel
// pays O(nodes x depth) every cycle regardless, the event kernel pays only
// for the nodes a token actually touches (settle AND clock edge).
//
// Modes:
//   bench_scale [--out FILE] [--quick]   measure, print a table, write JSON
//   bench_scale --check                  also fail (exit 1) unless the event
//                                        kernel is >=5x the sweep kernel on a
//                                        >=10k-node sparse netlist, or if the
//                                        protocol monitor costs more than 2x
//                                        on the 10k sparse pipeline, or if
//                                        loading a 100k-node design costs
//                                        more than 3x per node what a 10k
//                                        one does
//   bench_scale --farm-smoke             SimFarm determinism + wall-clock
//                                        sanity across 1..N worker threads
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "frontend/esl_format.h"
#include "netlist/synth.h"
#include "sim/farm.h"
#include "sim/simulator.h"

using namespace esl;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  std::string name;
  double nsPerCycle = 0.0;
  std::uint64_t cycles = 0;
  std::size_t nodes = 0;
  std::uint64_t received = 0;
};

/// Runs `reps` timed windows of `cycles` simulation cycles each (after a
/// warmup so caches and the kernel's retained state are steady) and reports
/// the fastest window — min-of-N is what keeps the CI regression gate from
/// tripping on scheduler noise on shared runners.
///
/// Channel statistics stay ON (the SimOptions default): with the SignalBoard
/// they are a word-parallel bitplane sweep, cheap enough that the benchmark
/// reports what a real measurement run pays. The protocol monitor is off
/// unless `monitor` is set.
Row measure(const synth::SynthConfig& cfg, SimContext::SettleKernel kernel,
            std::uint64_t cycles, unsigned reps = 3, unsigned shards = 1,
            std::uint64_t warmup = 0,
            SimContext::Backend backend = SimContext::Backend::kInterpreted,
            bool monitor = false) {
  synth::SynthSystem sys = synth::build(cfg);
  sim::Simulator s(sys.nl, {.checkProtocol = monitor,
                            .kernel = kernel,
                            .shards = shards,
                            .backend = backend});
  s.run(warmup != 0 ? warmup : cycles / 10 + 1);
  double best = 0.0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    const double t0 = now();
    s.run(cycles);
    const double dt = now() - t0;
    if (rep == 0 || dt < best) best = dt;
  }
  Row r;
  r.name = std::string("scale/") + synth::describe(cfg) + "/" +
           (backend == SimContext::Backend::kCompiled ? "compiled"
            : kernel == SimContext::SettleKernel::kSweep ? "sweep"
                                                         : "event");
  r.nsPerCycle = best * 1e9 / static_cast<double>(cycles);
  r.cycles = cycles;
  r.nodes = sys.nodeCount;
  r.received = sys.mainSink != nullptr ? sys.mainSink->received(s.ctx()) : 0;
  return r;
}

/// A derived ratio reported into the JSON under an explicit key (speedups are
/// reported, never gated — only ns_per_cycle rows feed the regression gate).
struct Speedup {
  std::string name;
  std::string key;
  double ratio;
};

/// What loading a design costs, as `esl <design>.esl` pays it: parse its
/// text, build the netlist, construct a SimContext over it. Each phase is
/// its fastest of `reps` runs, in ns per node.
struct LoadRow {
  std::string name;
  std::size_t nodes = 0;
  double parse = 0.0, build = 0.0, context = 0.0;
  double total() const { return parse + build + context; }
};

LoadRow measureLoad(const synth::SynthConfig& cfg, unsigned reps = 3) {
  const std::string text = frontend::printEsl(synth::spec(cfg));
  LoadRow r;
  r.name = "load/" + synth::describe(cfg);
  for (unsigned rep = 0; rep < reps; ++rep) {
    const double t0 = now();
    const NetlistSpec spec = frontend::parseEsl(text, "<bench_scale>");
    const double t1 = now();
    const Netlist nl = spec.build();
    const double t2 = now();
    const SimContext ctx(nl);
    const double t3 = now();
    r.nodes = nl.nodeIds().size();
    const double perNode = 1e9 / static_cast<double>(r.nodes);
    const auto keepMin = [rep](double& best, double dt) {
      if (rep == 0 || dt < best) best = dt;
    };
    keepMin(r.parse, (t1 - t0) * perNode);
    keepMin(r.build, (t2 - t1) * perNode);
    keepMin(r.context, (t3 - t2) * perNode);
  }
  return r;
}

void writeJson(const std::string& path, const std::vector<Row>& rows,
               const std::vector<Speedup>& speedups,
               const std::vector<LoadRow>& loads) {
  std::ofstream os(path);
  os << "{\n  \"benchmarks\": [\n";
  bool first = true;
  for (const Row& r : rows) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"" << r.name << "\", \"ns_per_cycle\": " << r.nsPerCycle
       << ", \"cycles\": " << r.cycles << ", \"nodes\": " << r.nodes
       << ", \"received\": " << r.received << "}";
  }
  for (const auto& [name, key, ratio] : speedups) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"" << name << "\", \"" << key << "\": " << ratio << "}";
  }
  for (const LoadRow& l : loads) {
    if (!first) os << ",\n";
    first = false;
    os << "    {\"name\": \"" << l.name << "\", \"ns_per_node\": " << l.total()
       << ", \"parse_ns_per_node\": " << l.parse
       << ", \"build_ns_per_node\": " << l.build
       << ", \"context_ns_per_node\": " << l.context << ", \"nodes\": " << l.nodes
       << "}";
  }
  os << "\n  ]\n}\n";
}

/// SimFarm grid over generated netlists: seeds x topologies, merged by label.
double farmGrid(unsigned threads, std::uint64_t seeds, std::size_t nodes,
                std::uint64_t cycles, sim::SimFarm::Merged* merged) {
  sim::SimFarm farm(
      [nodes](const sim::SimFarm::Task& task, sim::SimFarm::Instance& inst) {
        synth::SynthConfig cfg;
        cfg.topology = task.config == 0 ? synth::Topology::kPipeline
                                        : synth::Topology::kRandomDag;
        cfg.targetNodes = nodes;
        cfg.seed = task.seed;
        cfg.injectPeriod = 16;
        synth::SynthSystem sys = synth::build(cfg);
        TokenSink* sink = sys.mainSink;
        inst.nl = std::move(sys.nl);
        inst.harvest = [sink](sim::Simulator& s,
                              std::vector<std::pair<std::string, double>>& m) {
          m.emplace_back("received", static_cast<double>(sink->received(s.ctx())));
        };
      },
      {.checkProtocol = false});
  for (std::uint64_t config = 0; config < 2; ++config)
    farm.addSeedSweep(seeds, /*seed0=*/1, cycles, config);
  const double t0 = now();
  const auto results = farm.run(threads);
  const double dt = now() - t0;
  if (merged != nullptr) *merged = sim::SimFarm::merge(results);
  return dt;
}

int farmSmoke() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== SimFarm multicore smoke (hardware_concurrency=%u) ===\n", hw);
  sim::SimFarm::Merged ref;
  const double t1 = farmGrid(1, 6, 600, 500, &ref);
  std::printf("%8s %10s %14s %12s\n", "threads", "wall (s)", "speedup vs 1t",
              "sum received");
  std::printf("%8u %10.3f %14s %12.0f\n", 1u, t1, "1.00",
              ref.metricTotals.at("received"));
  bool ok = true;
  for (unsigned threads : {2u, 4u}) {
    sim::SimFarm::Merged got;
    const double t = farmGrid(threads, 6, 600, 500, &got);
    const bool same = got.metricTotals == ref.metricTotals &&
                      got.totalCycles == ref.totalCycles &&
                      got.failures == ref.failures;
    std::printf("%8u %10.3f %14.2f %12.0f  %s\n", threads, t, t1 / t,
                got.metricTotals.at("received"),
                same ? "bit-identical" : "MISMATCH");
    ok = ok && same;
  }
  if (!ok) {
    std::printf("FAIL: farm results differ across thread counts\n");
    return 1;
  }
  if (ref.metricTotals.at("received") <= 0.0) {
    std::printf("FAIL: no tokens delivered — the grid is not exercising anything\n");
    return 1;
  }
  std::printf("determinism OK; speedup is advisory (machine-dependent)\n");
  return 0;
}

/// Sharded tier: ONE netlist split across worker lanes (SimContext::setShards)
/// at 1/2/hw-thread counts, sparse and saturated traffic. Per-thread speedup
/// goes into the JSON as `speedup_vs_1t` (reported, never gated — wall-clock
/// parallel speedup is machine-dependent; bit-identity is what CI gates, via
/// shardedIdentityCheck() and the sharded-kernel test label).
void shardedTier(const std::vector<std::size_t>& nodeTiers, bool quick,
                 std::vector<Row>& rows, std::vector<Speedup>& speedups) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<unsigned> shardCounts{1, 2};
  if (hw > 2) shardCounts.push_back(hw);
  std::printf("\n=== sharded single-netlist tier (hardware_concurrency=%u) ===\n", hw);
  std::printf("%-52s %8s %12s %9s\n", "netlist", "shards", "ns/cyc", "vs 1t");
  for (const std::size_t nodes : nodeTiers) {
    for (const unsigned inject : {64u, 1u}) {
      synth::SynthConfig cfg;
      cfg.topology = synth::Topology::kPipeline;
      cfg.targetNodes = nodes;
      cfg.seed = 1;
      cfg.injectPeriod = inject;
      // Saturated traffic is where sharding pays (every node active each
      // cycle), but that only materializes once the pipeline has filled:
      // warm up deep enough that the measured window carries real per-cycle
      // work. These rows are reported-not-gated, so two reps keep the tier
      // affordable.
      const std::uint64_t cycles =
          (inject == 1 ? 20000000ULL : 200000000ULL) / (nodes * (quick ? 4 : 1));
      const std::uint64_t warmup =
          inject == 1 ? std::min<std::uint64_t>(nodes, quick ? 5000 : 20000) : 0;
      double oneThread = 0.0;
      for (const unsigned shards : shardCounts) {
        Row r = measure(cfg, SimContext::SettleKernel::kEventDriven,
                        cycles < 50 ? 50 : cycles, 2, shards, warmup);
        // Every row of this tier, the 1-shard reference included, carries
        // its shard count: its shorter window must not collide with (and
        // be gated as) the main tier's serial event row.
        r.name += "/shards" + std::to_string(shards);
        if (shards == 1) oneThread = r.nsPerCycle;
        const double speedup = oneThread / r.nsPerCycle;
        if (shards > 1)
          speedups.push_back({r.name + "/speedup_vs_1t", "speedup_vs_1t", speedup});
        std::printf("%-52s %8u %12.0f %8.2fx\n", synth::describe(cfg).c_str(),
                    shards, r.nsPerCycle, speedup);
        rows.push_back(std::move(r));
      }
    }
  }
}

/// CI gate (--check): packState bit-identity of the sharded cycle mode
/// against the serial event kernel, per shard count, on a saturated netlist.
bool shardedIdentityCheck() {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kRandomDag;
  cfg.targetNodes = 3000;
  cfg.seed = 5;
  cfg.injectPeriod = 1;
  synth::SynthSystem ref = synth::build(cfg);
  sim::Simulator sref(ref.nl, {.checkProtocol = false});
  sref.run(400);
  const auto want = sref.ctx().packState();
  const auto received = ref.mainSink != nullptr ? ref.mainSink->received(sref.ctx()) : 0;
  for (const unsigned shards : {2u, 4u, 8u}) {
    synth::SynthSystem sys = synth::build(cfg);
    sim::Simulator s(sys.nl, {.checkProtocol = false, .shards = shards});
    s.run(400);
    if (s.ctx().packState() != want ||
        (sys.mainSink != nullptr && sys.mainSink->received(s.ctx()) != received)) {
      std::printf("CHECK FAILED: sharded run (%u shards) diverged from the "
                  "serial event kernel on %s\n",
                  shards, synth::describe(cfg).c_str());
      return false;
    }
  }
  std::printf("CHECK OK: sharded cycles bit-identical to serial for 2/4/8 "
              "shards on %s\n",
              synth::describe(cfg).c_str());
  return true;
}

/// CI gate (--check): packState bit-identity of `--backend compiled
/// --shards N` against the serial interpreted reference (which the serial
/// compiled backend is separately gated against), for every tested shard
/// count. Interior nodes run specialized arena ops over shard-sliced state
/// records while boundary-adjacent nodes take the staging-aware interpreted
/// path — this gate pins that composition end to end.
bool compiledShardedIdentityCheck() {
  synth::SynthConfig cfg;
  cfg.topology = synth::Topology::kRandomDag;
  cfg.targetNodes = 3000;
  cfg.seed = 5;
  cfg.injectPeriod = 1;
  synth::SynthSystem ref = synth::build(cfg);
  sim::Simulator sref(ref.nl, {.checkProtocol = false});
  sref.run(400);
  const auto want = sref.ctx().packState();
  const auto received = ref.mainSink != nullptr ? ref.mainSink->received(sref.ctx()) : 0;
  for (const unsigned shards : {1u, 2u, 8u}) {
    synth::SynthSystem sys = synth::build(cfg);
    sim::Simulator s(sys.nl, {.checkProtocol = false,
                              .shards = shards,
                              .backend = SimContext::Backend::kCompiled});
    s.run(400);
    if (s.ctx().packState() != want ||
        (sys.mainSink != nullptr && sys.mainSink->received(s.ctx()) != received)) {
      std::printf("CHECK FAILED: compiled backend with %u shard(s) diverged "
                  "from the serial reference on %s\n",
                  shards, synth::describe(cfg).c_str());
      return false;
    }
  }
  std::printf("CHECK OK: compiled x sharded bit-identical to serial for 1/2/8 "
              "shards on %s\n",
              synth::describe(cfg).c_str());
  return true;
}

/// CI gate (--check): packState bit-identity of the compiled bytecode backend
/// against the interpreted event kernel, across topologies and traffic shapes.
bool compiledIdentityCheck() {
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kRandomDag}) {
    for (const unsigned inject : {64u, 1u}) {
      synth::SynthConfig cfg;
      cfg.topology = topo;
      cfg.targetNodes = 3000;
      cfg.seed = 5;
      cfg.injectPeriod = inject;
      synth::SynthSystem ref = synth::build(cfg);
      sim::Simulator sref(ref.nl, {.checkProtocol = false});
      sref.run(400);
      const auto want = sref.ctx().packState();
      const auto received =
          ref.mainSink != nullptr ? ref.mainSink->received(sref.ctx()) : 0;
      synth::SynthSystem sys = synth::build(cfg);
      sim::Simulator s(sys.nl, {.checkProtocol = false,
                                .backend = SimContext::Backend::kCompiled});
      s.run(400);
      if (s.ctx().packState() != want ||
          (sys.mainSink != nullptr && sys.mainSink->received(s.ctx()) != received)) {
        std::printf("CHECK FAILED: compiled backend diverged from the "
                    "interpreted event kernel on %s\n",
                    synth::describe(cfg).c_str());
        return false;
      }
    }
  }
  std::printf("CHECK OK: compiled backend bit-identical to interpreted across "
              "topologies and traffic shapes\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string outPath = "BENCH_scale.json";
  bool quick = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--farm-smoke") == 0) {
      return farmSmoke();
    } else {
      std::printf("usage: bench_scale [--out FILE] [--quick] [--check] "
                  "[--farm-smoke]\n");
      return 2;
    }
  }

  struct Tier {
    std::size_t nodes;
    std::uint64_t eventCycles, sweepCycles;
  };
  // Cycle budgets sized so every timed window is well above the timer/noise
  // floor (>=tens of ms): the sweep kernel's per-cycle cost grows linearly
  // with nodes, the event kernel's does not (that asymmetry is the result).
  std::vector<Tier> tiers = {{1000, 50000, 3000}, {10000, 10000, 300},
                             {100000, 20000, 100}};

  const synth::Topology topologies[] = {synth::Topology::kPipeline,
                                        synth::Topology::kRandomDag};
  // Load path first, on the fresh heap an `esl <design>` process loads on:
  // parse, build and context set-up per node at 10k and 100k nodes. A step
  // that grows faster than linearly shows as a 100k/10k ratio well above 1
  // (gated by --check).
  std::vector<LoadRow> loads;
  double checkLoadRatio = 0.0;
  std::printf("%-44s %8s %12s %12s %12s\n", "load", "nodes", "parse ns/nd",
              "build ns/nd", "ctx ns/nd");
  for (const synth::Topology topo : topologies) {
    synth::SynthConfig cfg;
    cfg.topology = topo;
    cfg.seed = 1;
    cfg.injectPeriod = 64;
    double perNode10k = 0.0;
    for (const std::size_t nodes : {std::size_t{10000}, std::size_t{100000}}) {
      cfg.targetNodes = nodes;
      const LoadRow l = measureLoad(cfg);
      std::printf("%-44s %8zu %12.0f %12.0f %12.0f\n", synth::describe(cfg).c_str(),
                  l.nodes, l.parse, l.build, l.context);
      if (nodes == 10000)
        perNode10k = l.total();
      else
        checkLoadRatio = std::max(checkLoadRatio, l.total() / perNode10k);
      loads.push_back(l);
    }
  }

  std::vector<Row> rows;
  std::vector<Speedup> speedups;
  double check10kSparse = 0.0;
  double check10kSparseCompiled = 0.0;
  double checkMonitorCost = 0.0;

  std::printf("=== scale benchmark: sweep vs event vs compiled on generated netlists ===\n");
  std::printf("%-44s %8s %12s %12s %12s %9s %9s\n", "netlist", "nodes",
              "sweep ns/cyc", "event ns/cyc", "cmpld ns/cyc", "ev/sweep",
              "cmpld/ev");
  for (const synth::Topology topo :
       {synth::Topology::kPipeline, synth::Topology::kRandomDag,
        synth::Topology::kForkJoin}) {
    // Fork/join trees carry the backward ripple: stops and kills travel
    // against the data, so each forward wave pushes settle work back to lower
    // node ids. They add sparse rows at 10k and 100k nodes only, and feed no
    // --check gate.
    const bool forkJoin = topo == synth::Topology::kForkJoin;
    for (const Tier& tier : tiers) {
      if (forkJoin && tier.nodes < 10000) continue;
      for (const unsigned inject : {64u, 1u}) {
        // Saturated runs at 100k nodes would spend minutes in the sweep
        // kernel for no extra information; the sparse point is the story.
        if (inject == 1 && (tier.nodes >= 100000 || forkJoin)) continue;
        // Quick runs skip the 100k sweep (linear per-cycle cost, minutes of
        // wall clock, and the event-vs-sweep gate is already decided at 10k)
        // but KEEP the 100k event+compiled pair: 100k nodes is where the
        // interpreted kernel's heap-scattered node state decisively misses
        // cache, so that pair anchors the compiled-vs-interpreted gate at
        // its most noise-robust margin. Fork/join always skips it.
        const bool skipSweep = (quick || forkJoin) && tier.nodes >= 100000;
        // At 100k the default cycles/10 warmup still sits in the filling
        // transient (the pipeline is ~6k stages deep), and min-of-N would
        // pick the emptiest window — understating in-flight state and with
        // it the ratio the gate reasons about. Warm past fill so every
        // window measures the filled steady state.
        const std::uint64_t warmup = tier.nodes >= 100000 ? tier.nodes / 8 : 0;
        synth::SynthConfig cfg;
        cfg.topology = topo;
        cfg.targetNodes = tier.nodes;
        cfg.seed = 1;
        cfg.injectPeriod = inject;
        Row sweep;
        if (!skipSweep)
          sweep = measure(cfg, SimContext::SettleKernel::kSweep, tier.sweepCycles);
        const Row event = measure(cfg, SimContext::SettleKernel::kEventDriven,
                                  tier.eventCycles, 3, 1, warmup);
        const Row compiled =
            measure(cfg, SimContext::SettleKernel::kEventDriven, tier.eventCycles,
                    3, 1, warmup, SimContext::Backend::kCompiled);
        const double compiledSpeedup = event.nsPerCycle / compiled.nsPerCycle;
        rows.push_back(event);
        rows.push_back(compiled);
        speedups.push_back(
            {"scale/" + synth::describe(cfg) + "/compiled-speedup",
             "compiled_vs_event", compiledSpeedup});
        if (skipSweep) {
          std::printf("%-44s %8zu %12s %12.0f %12.0f %9s %8.2fx\n",
                      synth::describe(cfg).c_str(), event.nodes, "-",
                      event.nsPerCycle, compiled.nsPerCycle, "-",
                      compiledSpeedup);
        } else {
          const double speedup = sweep.nsPerCycle / event.nsPerCycle;
          rows.push_back(sweep);
          speedups.push_back(
              {"scale/" + synth::describe(cfg) + "/speedup", "event_vs_sweep",
               speedup});
          std::printf("%-44s %8zu %12.0f %12.0f %12.0f %8.1fx %8.2fx\n",
                      synth::describe(cfg).c_str(), sweep.nodes,
                      sweep.nsPerCycle, event.nsPerCycle, compiled.nsPerCycle,
                      speedup, compiledSpeedup);
          if (!forkJoin && inject == 64 && tier.nodes >= 10000 &&
              speedup > check10kSparse)
            check10kSparse = speedup;
        }
        if (!forkJoin && inject == 64 && tier.nodes >= 10000 &&
            compiledSpeedup > check10kSparseCompiled)
          check10kSparseCompiled = compiledSpeedup;
        // The SELF protocol monitor is on in every `esl --sim` run, so on a
        // sparse board, where a cycle touches few channels, it must not cost
        // a per-channel pass over all of them: measure both backends again
        // with it on, and report the on/off ratio (gated by --check).
        if (topo == synth::Topology::kPipeline && tier.nodes == 10000 &&
            inject == 64) {
          const auto monitorCost = [&](const Row& off, SimContext::Backend backend,
                                       const char* label) {
            const Row on = measure(cfg, SimContext::SettleKernel::kEventDriven,
                                   tier.eventCycles, 3, 1, warmup, backend,
                                   /*monitor=*/true);
            const double ratio = on.nsPerCycle / off.nsPerCycle;
            speedups.push_back({off.name + "/monitor", "monitor_vs_off", ratio});
            std::printf("%-44s %8zu protocol monitor on: %.0f ns/cyc (%s), "
                        "%.2fx of off\n",
                        synth::describe(cfg).c_str(), on.nodes, on.nsPerCycle, label,
                        ratio);
            checkMonitorCost = std::max(checkMonitorCost, ratio);
          };
          monitorCost(event, SimContext::Backend::kInterpreted, "event");
          monitorCost(compiled, SimContext::Backend::kCompiled, "compiled");
        }
      }
    }
  }

  // Sharded single-netlist tier: 10k (and 100k in full runs) nodes.
  {
    std::vector<std::size_t> shardNodeTiers{10000};
    if (!quick) shardNodeTiers.push_back(100000);
    shardedTier(shardNodeTiers, quick, rows, speedups);
  }

  // SimFarm grid: the same generator feeding the Monte-Carlo runner.
  sim::SimFarm::Merged merged;
  const double farmWall = farmGrid(0, 4, 600, quick ? 300u : 800u, &merged);
  std::printf("farm grid: %llu tasks, %llu cycles total, %.2fs wall, "
              "%.0f tokens received\n",
              static_cast<unsigned long long>(merged.tasks),
              static_cast<unsigned long long>(merged.totalCycles), farmWall,
              merged.metricTotals.at("received"));

  writeJson(outPath, rows, speedups, loads);
  std::printf("wrote %s\n", outPath.c_str());

  if (check) {
    if (check10kSparse < 5.0) {
      std::printf("CHECK FAILED: event kernel only %.1fx vs sweep on >=10k-node "
                  "sparse netlists (need >=5x)\n",
                  check10kSparse);
      return 1;
    }
    std::printf("CHECK OK: event kernel %.1fx vs sweep on >=10k-node sparse "
                "netlists\n",
                check10kSparse);
    // Hard floor at 1.8x — with every port pre-resolved, a specialized op
    // streams its op/port/state records, while an interpreted evaluation
    // still goes through the heap node object (virtual call, port and width
    // lookups). Both read node state from the context's flat record arena.
    // The gate takes the best >=10k-node sparse tier — the 100k
    // event+compiled pair runs even under --quick for exactly this reason —
    // so a drop below 1.8x means the compiled ops stopped paying at any
    // scale (e.g. a regression reintroduced node-object loads on their hot
    // path).
    // The floor sits well below the measured best — not at it — because CI
    // runners are too noisy to pin an optimization ratio exactly; the ratio
    // itself is reported in the JSON for tracking.
    if (check10kSparseCompiled < 1.8) {
      std::printf("CHECK FAILED: compiled backend only %.2fx vs interpreted "
                  "event kernel on >=10k-node sparse netlists (need >=1.8x)\n",
                  check10kSparseCompiled);
      return 1;
    }
    std::printf("CHECK OK: compiled backend %.2fx vs interpreted event kernel "
                "on >=10k-node sparse netlists (floor 1.8x)\n",
                check10kSparseCompiled);
    // A word-parallel monitor costs a few word ops per 64 channels, well
    // under one sparse cycle (measured 0.9-1.3x); a per-channel scan costs
    // several cycles' worth (measured 5.7-7x interpreted, 13-18x compiled).
    if (checkMonitorCost > 2.0) {
      std::printf("CHECK FAILED: protocol monitor costs %.2fx the unmonitored "
                  "cycle on the 10k sparse pipeline (ceiling 2x)\n",
                  checkMonitorCost);
      return 1;
    }
    std::printf("CHECK OK: protocol monitor costs %.2fx the unmonitored cycle "
                "on the 10k sparse pipeline (ceiling 2x)\n",
                checkMonitorCost);
    // Loading is linear in the design, but its cost per node still grows
    // from 10k to 100k nodes as the design outgrows the caches: 1.2-2.3x on
    // a 4-vCPU shared VM. A quadratic step would read about 10x.
    if (checkLoadRatio > 3.0) {
      std::printf("CHECK FAILED: loading a 100k-node design costs %.2fx per node "
                  "what a 10k-node one does (ceiling 3x)\n",
                  checkLoadRatio);
      return 1;
    }
    std::printf("CHECK OK: loading a 100k-node design costs %.2fx per node what "
                "a 10k-node one does (ceiling 3x)\n",
                checkLoadRatio);
    if (!shardedIdentityCheck()) return 1;
    if (!compiledIdentityCheck()) return 1;
    if (!compiledShardedIdentityCheck()) return 1;
  }
  return 0;
}
