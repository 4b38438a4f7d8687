#include "shell/session.h"

#include <fstream>
#include <iomanip>
#include <sstream>

#include "backend/blif.h"
#include "backend/smv.h"
#include "backend/verilog.h"
#include "base/executor.h"
#include "elastic/params.h"
#include "frontend/esl_format.h"
#include "netlist/dot.h"
#include "netlist/patterns.h"
#include "perf/area.h"
#include "perf/throughput.h"
#include "perf/timing.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "transform/transform.h"

namespace esl::shell {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string t;
  while (is >> t) {
    if (t[0] == '#') break;
    tokens.push_back(t);
  }
  return tokens;
}

/// Resolves the scheduler through the Registry catalog (one source of truth
/// with `.esl` `sched=` attributes); `staticN` maps to `static` + pick.
std::unique_ptr<sched::Scheduler> makeSched(const std::string& name, unsigned k) {
  Params p;
  if (name.empty() || name.rfind("static", 0) == 0) {
    p.set("sched", "static");
    if (name.size() > 6) p.set("sched.pick", name.substr(6));
  } else {
    p.set("sched", name);
  }
  try {
    return Registry::instance().makeSched(k, p, "sched");
  } catch (const NetlistError&) {
    throw EslError("unknown scheduler '" + name +
                   "' (static0|static1|rr|last|2bit|timeout|bounded-fair|starving)");
  }
}

Node& findNodeOrThrow(Netlist& nl, const std::string& name) {
  Node* n = nl.findNode(name);
  ESL_CHECK(n != nullptr, "no node named '" + name + "'");
  return *n;
}

ChannelId findChannelOrThrow(const Netlist& nl, const std::string& name) {
  const Channel* ch = nl.findChannel(name);
  ESL_CHECK(ch != nullptr, "no channel named '" + name + "'");
  return ch->id;
}

/// Commands that change the design (recorded for replay-undo).
bool isMutating(const std::string& verb) {
  return verb == "bubble" || verb == "unbubble" || verb == "retime-back" ||
         verb == "retime-fwd" || verb == "shannon" || verb == "early" ||
         verb == "speculate";
}

}  // namespace

Session::Session() = default;

std::vector<std::string> Session::designNames() { return patterns::designNames(); }

std::unique_ptr<Netlist> Session::buildBase() const {
  if (baseSpec_) return std::make_unique<Netlist>(baseSpec_->build());
  return std::make_unique<Netlist>(patterns::buildDesign(baseDesign_));
}

std::string Session::helpText() {
  return
      "commands:\n"
      "  build <design>            load a base design (see `designs`)\n"
      "  load <file.esl>           load a design from a textual netlist file\n"
      "  save <file.esl>           write the current design as .esl\n"
      "  print                     print the current design as .esl text\n"
      "  designs                   list base designs\n"
      "  nodes | channels          list the current graph\n"
      "  candidates                speculation candidates (mux+func pairs)\n"
      "  bubble <channel>          insert an empty EB on a channel\n"
      "  unbubble <node>           remove an empty EB\n"
      "  retime-back <eb>          move an empty EB to the inputs of its producer\n"
      "  retime-fwd <func>         move input EBs of a function to its output\n"
      "  shannon <mux> <func>      Shannon decomposition (mux retiming)\n"
      "  early <mux>               convert a join mux to early evaluation\n"
      "  speculate <mux> <func> [sched]   full speculation recipe\n"
      "  undo | redo               replay-based undo/redo of transformations\n"
      "  sim <cycles> [shards|compiled|interpreted|cross-check]\n"
      "                            simulate; report sink transfers + violations\n"
      "  tput <cycles> <channel>   measured throughput on a channel\n"
      "  trace <cycles> <ch...>    Table-1 style trace of selected channels\n"
      "  timing                    cycle time + critical path\n"
      "  bound                     analytic throughput bound (min cycle ratio)\n"
      "  area                      area report (NAND2 equivalents)\n"
      "  dot | verilog | smv | blif  emit the corresponding artifact\n"
      "  help                      this text\n";
}

std::string Session::execute(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) return "";
  try {
    const std::string out = dispatch(line, /*replaying=*/false);
    if (isMutating(tokens[0])) {
      applied_.push_back(line);
      undone_.clear();
    }
    return out;
  } catch (const EslError& e) {
    return std::string("error: ") + e.what() + "\n";
  }
}

std::string Session::runScript(const std::string& script) {
  std::istringstream is(script);
  std::ostringstream os;
  std::string line;
  while (std::getline(is, line)) {
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    std::string trimmed = tokens[0];
    for (std::size_t i = 1; i < tokens.size(); ++i) trimmed += " " + tokens[i];
    os << "esl> " << trimmed << "\n" << execute(trimmed);
  }
  return os.str();
}

std::string Session::loadSpec(NetlistSpec spec, const std::string& origin) {
  netlist_ = std::make_unique<Netlist>(spec.build());
  baseSpec_ = std::move(spec);
  baseDesign_ = origin;
  applied_.clear();
  undone_.clear();
  std::ostringstream os;
  os << "loaded '" << origin << "': " << netlist_->nodeIds().size() << " nodes, "
     << netlist_->channelIds().size() << " channels\n";
  return os.str();
}

void Session::rebuildAndReplay() {
  netlist_ = buildBase();
  for (const std::string& cmd : applied_) dispatch(cmd, /*replaying=*/true);
}

std::string Session::dispatch(const std::string& line, bool replaying) {
  const auto t = tokenize(line);
  const std::string& verb = t[0];
  std::ostringstream os;

  if (verb == "help") return helpText();
  if (verb == "designs") {
    for (const auto& d : designNames()) os << d << "\n";
    return os.str();
  }
  if (verb == "build") {
    ESL_CHECK(t.size() == 2, "usage: build <design>");
    netlist_ = std::make_unique<Netlist>(patterns::buildDesign(t[1]));
    baseDesign_ = t[1];
    baseSpec_.reset();
    applied_.clear();
    undone_.clear();
    os << "loaded '" << t[1] << "': " << netlist_->nodeIds().size() << " nodes, "
       << netlist_->channelIds().size() << " channels\n";
    return os.str();
  }
  if (verb == "load") {
    ESL_CHECK(t.size() == 2, "usage: load <file.esl>");
    return loadSpec(frontend::parseEslFile(t[1]), t[1]);
  }

  ESL_CHECK(netlist_ != nullptr, "no design loaded (use `build <design>`)");
  Netlist& nl = *netlist_;

  if (verb == "undo") {
    ESL_CHECK(!applied_.empty(), "nothing to undo");
    undone_.push_back(applied_.back());
    applied_.pop_back();
    rebuildAndReplay();
    return "undone: " + undone_.back() + "\n";
  }
  if (verb == "redo") {
    ESL_CHECK(!undone_.empty(), "nothing to redo");
    const std::string cmd = undone_.back();
    undone_.pop_back();
    dispatch(cmd, /*replaying=*/true);
    applied_.push_back(cmd);
    return "redone: " + cmd + "\n";
  }

  if (verb == "nodes") {
    for (const NodeId id : nl.nodeIds()) {
      const Node& n = nl.node(id);
      os << std::setw(4) << id << "  " << std::left << std::setw(18) << n.name()
         << std::right << " (" << n.kindName() << ")\n";
    }
    return os.str();
  }
  if (verb == "channels") {
    for (const ChannelId id : nl.channelIds()) {
      const Channel& ch = nl.channel(id);
      os << std::setw(4) << id << "  " << std::left << std::setw(18) << ch.name
         << std::right << " [" << ch.width << "]  " << nl.node(ch.producer).name()
         << " -> " << nl.node(ch.consumer).name() << "\n";
    }
    return os.str();
  }
  if (verb == "candidates") {
    for (const auto& c : transform::findSpeculationCandidates(nl))
      os << "mux=" << nl.node(c.mux).name() << " func=" << nl.node(c.func).name()
         << (c.onCriticalCycle ? "  [on critical cycle through select]" : "") << "\n";
    return os.str();
  }
  if (verb == "bubble") {
    ESL_CHECK(t.size() == 2, "usage: bubble <channel>");
    auto& eb = transform::insertBubble(nl, findChannelOrThrow(nl, t[1]));
    return replaying ? "" : "inserted bubble '" + eb.name() + "'\n";
  }
  if (verb == "unbubble") {
    ESL_CHECK(t.size() == 2, "usage: unbubble <node>");
    transform::removeBubble(nl, findNodeOrThrow(nl, t[1]).id());
    return replaying ? "" : "removed bubble '" + t[1] + "'\n";
  }
  if (verb == "retime-back") {
    ESL_CHECK(t.size() == 2, "usage: retime-back <eb>");
    const auto ebs = transform::retimeBackward(nl, findNodeOrThrow(nl, t[1]).id());
    return replaying ? "" : "retimed into " + std::to_string(ebs.size()) + " EB(s)\n";
  }
  if (verb == "retime-fwd") {
    ESL_CHECK(t.size() == 2, "usage: retime-fwd <func>");
    transform::retimeForward(nl, findNodeOrThrow(nl, t[1]).id());
    return replaying ? "" : "retimed forward across '" + t[1] + "'\n";
  }
  if (verb == "shannon") {
    ESL_CHECK(t.size() == 3, "usage: shannon <mux> <func>");
    const auto r = transform::shannonDecompose(nl, findNodeOrThrow(nl, t[1]).id(),
                                               findNodeOrThrow(nl, t[2]).id());
    return replaying ? "" : "duplicated into " + std::to_string(r.copies.size()) +
                                " copies\n";
  }
  if (verb == "early") {
    ESL_CHECK(t.size() == 2, "usage: early <mux>");
    transform::convertToEarlyEval(nl, findNodeOrThrow(nl, t[1]).id());
    return replaying ? "" : "converted '" + t[1] + "' to early evaluation\n";
  }
  if (verb == "speculate") {
    ESL_CHECK(t.size() == 3 || t.size() == 4, "usage: speculate <mux> <func> [sched]");
    const NodeId shared = transform::speculate(
        nl, findNodeOrThrow(nl, t[1]).id(), findNodeOrThrow(nl, t[2]).id(),
        makeSched(t.size() == 4 ? t[3] : "", 2));
    return replaying ? "" : "speculation applied; shared module '" +
                                nl.node(shared).name() + "'\n";
  }

  if (verb == "sim") {
    ESL_CHECK(t.size() >= 2,
              "usage: sim <cycles> [shards|compiled|interpreted|cross-check]");
    sim::SimOptions opts{.checkProtocol = true, .throwOnViolation = false};
    for (std::size_t i = 2; i < t.size(); ++i) {
      if (t[i] == "compiled")
        opts.backend = SimContext::Backend::kCompiled;
      else if (t[i] == "interpreted")
        opts.backend = SimContext::Backend::kInterpreted;
      else if (t[i] == "cross-check")
        opts.crossCheckKernels = true;
      else
        opts.shards =
            Executor::checkLaneCount(parseU64(t[i], "sim: shard count"), "shard count");
    }
    const std::uint64_t cycles = parseU64(t[1], "sim: cycle count");
    sim::Simulator s(nl, opts);
    s.run(cycles);
    return sim::runReport(nl, s.ctx());
  }
  if (verb == "tput") {
    ESL_CHECK(t.size() == 3, "usage: tput <cycles> <channel>");
    const std::uint64_t cycles = parseU64(t[1], "tput: cycle count");
    sim::Simulator s(nl, {.checkProtocol = false});
    const ChannelId ch = findChannelOrThrow(nl, t[2]);
    s.run(cycles);
    return sim::throughputLine(t[2], s.throughput(ch));
  }
  if (verb == "trace") {
    ESL_CHECK(t.size() >= 3, "usage: trace <cycles> <channel...>");
    const std::uint64_t cycles = parseU64(t[1], "trace: cycle count");
    sim::TraceRecorder trace;
    for (std::size_t i = 2; i < t.size(); ++i)
      trace.addChannel(findChannelOrThrow(nl, t[i]), t[i]);
    sim::Simulator s(nl, {.checkProtocol = false});
    s.attachTrace(&trace);
    s.run(cycles);
    return trace.render();
  }
  if (verb == "timing") {
    const auto report = perf::analyzeTiming(nl);
    os << "cycle time: " << report.cycleTime << " gate units\n"
       << "critical path: " << perf::describeCriticalPath(nl, report) << "\n";
    return os.str();
  }
  if (verb == "bound") {
    const auto bound = perf::throughputBound(nl);
    os << "throughput bound: " << bound.bound
       << (bound.hasCycles ? "" : " (no token cycles)")
       << (bound.zeroLatencyCycle ? " [combinational cycle!]" : "") << "\n";
    return os.str();
  }
  if (verb == "save") {
    ESL_CHECK(t.size() == 2, "usage: save <file.esl>");
    const std::string text = frontend::printEsl(NetlistSpec::fromNetlist(nl));
    std::ofstream out(t[1]);
    ESL_CHECK(static_cast<bool>(out), "cannot write '" + t[1] + "'");
    out << text;
    ESL_CHECK(static_cast<bool>(out.flush()), "write to '" + t[1] + "' failed");
    return "saved " + std::to_string(nl.nodeIds().size()) + " nodes to '" + t[1] +
           "'\n";
  }
  if (verb == "print") return frontend::printEsl(NetlistSpec::fromNetlist(nl));
  if (verb == "area") return perf::renderAreaReport(perf::areaReport(nl));
  if (verb == "dot") return netlist::toDot(nl);
  if (verb == "verilog") return backend::emitVerilog(nl);
  if (verb == "smv") return backend::emitSmv(nl);
  if (verb == "blif") return backend::emitBlif(nl);

  throw EslError("unknown command '" + verb + "' (try `help`)");
}

}  // namespace esl::shell
