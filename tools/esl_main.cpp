// esl: unified command-line driver over the textual netlist IR.
//
// One scriptable entry point for what the bench/example mains each did in
// their own way: load a design (a `.esl` file or a builtin paper design),
// optionally transform it with the shell's command language, then simulate,
// model-check, re-save, round-trip-check or emit a backend artifact.
//
//   esl examples/designs/fig1d.esl --sim 1000
//   esl fig1a --transform speculate:mux:F:rr --check
//   esl design.esl --emit verilog --out design.v
//   esl design.esl --roundtrip          # CI gate: print->parse->print fixpoint
//   cat design.esl | esl - --sim 1000   # read the design from stdin
//   esl fig1a --sim 500 --save-state a.snap
//   esl fig1a --load-state a.snap --sim 500
//
// Two subcommand forms hand off to the serve subsystem before flag parsing:
//   esl serve --socket /tmp/esl.sock    # long-running multi-session daemon
//   esl client --socket /tmp/esl.sock   # scripted client for the daemon
//
// Exit codes: 0 ok, 1 usage, 2 command/load error, 3 check violations,
// 4 round-trip drift.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "base/executor.h"
#include "elastic/params.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "serve/cli.h"
#include "shell/session.h"
#include "sim/simulator.h"
#include "sim/state_file.h"
#include "verify/checker.h"

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <design.esl | design-name | -> [options]\n"
      << "       " << argv0 << " serve --socket PATH [options]\n"
      << "       " << argv0 << " client --socket PATH [script]\n"
      << "  -                  read the `.esl` design from stdin\n"
      << "  --transform LIST   comma-separated shell transform commands with\n"
      << "                     ':' between arguments, e.g.\n"
      << "                     --transform bubble:mux.out,speculate:mux:F:rr\n"
      << "  --sim N            simulate N cycles (sink transfers + violations)\n"
      << "  --shards N         with --sim: shard the netlist across N worker\n"
      << "                     lanes (bit-identical to serial for every N;\n"
      << "                     at most 256). Pays off on large, busy designs:\n"
      << "                     a 10k-node pipeline runs 1.64x (2) and 2.83x\n"
      << "                     (4) faster saturated, but 0.69x on sparse\n"
      << "                     traffic, where the barriers dominate\n"
      << "  --backend B        with --sim: 'interpreted' (default) or\n"
      << "                     'compiled' (bytecode VM, bit-identical)\n"
      << "  --cross-check      with --sim: settle every cycle on both the\n"
      << "                     selected backend and the sweep oracle, and\n"
      << "                     audit every clock edge; throws on divergence\n"
      << "  --tput CHANNEL     with --sim N: measured throughput of CHANNEL\n"
      << "  --check            model-check the SELF suite on the design\n"
      << "  --workers N        checker worker lanes (default 1)\n"
      << "  --max-states N     checker state cap (default 100000)\n"
      << "  --emit FORMAT      dot | blif | smv | verilog\n"
      << "  --out FILE         write --emit output to FILE instead of stdout\n"
      << "  --save FILE        write the (transformed) design back as .esl\n"
      << "  --save-state FILE  after --sim N: write the simulator snapshot\n"
      << "  --load-state FILE  before --sim N: resume from a snapshot\n"
      << "  --roundtrip        verify the print->parse->print fixpoint\n"
      << "  --designs          list builtin design names\n";
  return 1;
}

/// Runs one shell command and fails on "error:" replies. Status replies
/// (load/transform/save) go to stderr so stdout stays clean for artifacts
/// and results.
bool run(esl::shell::Session& session, const std::string& cmd) {
  const std::string out = session.execute(cmd);
  if (out.rfind("error:", 0) == 0) {
    std::cerr << "esl: " << cmd << ": " << out;
    return false;
  }
  std::cerr << out;
  return true;
}

std::vector<std::string> splitOn(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t at = s.find(sep, start);
    out.push_back(s.substr(start, at - start));
    if (at == std::string::npos) break;
    start = at + 1;
  }
  return out;
}

bool fileExists(const std::string& path) {
  return static_cast<bool>(std::ifstream(path));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esl;

  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
    return serve::serveMain(argc - 2, argv + 2);
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0)
    return serve::clientMain(argc - 2, argv + 2);

  std::string input, transforms, emit, outFile, saveFile, tputChannel;
  std::string saveState, loadState;
  std::string simBackend;
  std::uint64_t simCycles = 0;
  unsigned simShards = 1;
  bool doSim = false, doCheck = false, doRoundtrip = false, doCrossCheck = false;
  verify::CheckerOptions checkOptions;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "esl: " << arg << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;  // explicitly requested help is not an error
      }
      if (arg == "--designs") {
        for (const auto& name : patterns::designNames()) std::cout << name << "\n";
        return 0;
      }
      if (arg == "--transform") {
        transforms = value();
      } else if (arg == "--sim") {
        doSim = true;
        simCycles = parseU64(value(), arg);
      } else if (arg == "--shards") {
        simShards = Executor::checkLaneCount(parseU64(value(), arg), arg);
      } else if (arg == "--backend") {
        simBackend = value();
        if (simBackend != "compiled" && simBackend != "interpreted") {
          std::cerr << "esl: --backend expects compiled|interpreted, got '"
                    << simBackend << "'\n";
          return 1;
        }
      } else if (arg == "--cross-check") {
        doCrossCheck = true;
      } else if (arg == "--tput") {
        tputChannel = value();
      } else if (arg == "--check") {
        doCheck = true;
      } else if (arg == "--workers") {
        checkOptions.workers = Executor::checkLaneCount(parseU64(value(), arg), arg);
      } else if (arg == "--max-states") {
        checkOptions.maxStates = parseU64(value(), arg);
      } else if (arg == "--emit") {
        emit = value();
      } else if (arg == "--out") {
        outFile = value();
      } else if (arg == "--save") {
        saveFile = value();
      } else if (arg == "--save-state") {
        saveState = value();
      } else if (arg == "--load-state") {
        loadState = value();
      } else if (arg == "--roundtrip") {
        doRoundtrip = true;
      } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
        std::cerr << "esl: unknown option " << arg << "\n";
        return usage(argv[0]);
      } else if (input.empty()) {
        input = arg;
      } else {
        std::cerr << "esl: more than one input design\n";
        return usage(argv[0]);
      }
    } catch (const EslError& e) {
      std::cerr << "esl: " << e.what() << "\n";  // a bad count is a usage error
      return 1;
    }
  }
  if (input.empty()) return usage(argv[0]);
  if (!emit.empty() && emit != "dot" && emit != "blif" && emit != "smv" &&
      emit != "verilog") {
    std::cerr << "esl: --emit expects dot|blif|smv|verilog, got '" << emit << "'\n";
    return 1;
  }
  if (!tputChannel.empty() && !doSim) {
    std::cerr << "esl: --tput requires --sim N\n";
    return 1;
  }
  if (simShards != 1 && !doSim) {
    std::cerr << "esl: --shards requires --sim N\n";
    return 1;
  }
  if ((!simBackend.empty() || doCrossCheck) && !doSim) {
    std::cerr << "esl: --backend/--cross-check require --sim N\n";
    return 1;
  }
  if ((!saveState.empty() || !loadState.empty()) && !doSim) {
    std::cerr << "esl: --save-state/--load-state require --sim N\n";
    return 1;
  }
  try {
    shell::Session session;
    if (input == "-") {
      // Read the whole design from stdin; parse errors cite `<stdin>:line`.
      std::ostringstream body;
      body << std::cin.rdbuf();
      std::cerr << session.loadSpec(frontend::parseEsl(body.str(), "<stdin>"),
                                    "<stdin>");
    } else if (!run(session, (fileExists(input) ? "load " : "build ") + input)) {
      return 2;
    }

    if (!transforms.empty()) {
      for (const std::string& item : splitOn(transforms, ',')) {
        if (item.empty()) continue;
        std::string cmd = item;
        for (char& c : cmd)
          if (c == ':') c = ' ';
        if (!run(session, cmd)) return 2;
      }
    }

    if (doRoundtrip) {
      // Throws InternalError quoting the diverging line on drift.
      try {
        frontend::checkRoundTrip(NetlistSpec::fromNetlist(*session.netlist()));
        std::cout << "roundtrip ok: " << input << "\n";
      } catch (const EslError& e) {
        std::cerr << "esl: roundtrip FAILED: " << e.what() << "\n";
        return 4;
      }
    }

    if (doSim) {
      Netlist& nl = *session.netlist();
      const Channel* tputCh = nullptr;
      if (!tputChannel.empty()) {  // before the run: a typo costs no cycles
        tputCh = nl.findChannel(tputChannel);
        if (tputCh == nullptr) {
          std::cerr << "esl: no channel named '" << tputChannel << "'\n";
          return 2;
        }
      }
      sim::SimOptions opts{.checkProtocol = true, .throwOnViolation = false};
      opts.shards = simShards;
      if (simBackend == "compiled") opts.backend = SimContext::Backend::kCompiled;
      opts.crossCheckKernels = doCrossCheck;
      sim::Simulator s(nl, opts);
      if (!loadState.empty())
        s.ctx().unpackState(sim::readFileBytes(loadState), "'" + loadState + "'");
      s.run(simCycles);
      std::cout << sim::runReport(nl, s.ctx());
      if (tputCh != nullptr)
        std::cout << sim::throughputLine(tputChannel, s.throughput(tputCh->id));
      if (!saveState.empty()) {
        sim::writeFileAtomic(saveState, s.ctx().packState(), "state-file-write");
        std::cerr << "state saved to '" << saveState << "' at cycle "
                  << s.cycle() << "\n";
      }
    }

    if (doCheck) {
      const verify::ProtocolReport report =
          verify::checkSelfProtocol(*session.netlist(), checkOptions);
      std::cout << "check: " << report.explore.states << " states, "
                << report.explore.transitions << " transitions"
                << (report.explore.truncated ? " (truncated)" : "") << ", "
                << report.propertiesChecked << " properties\n";
      for (const auto& v : report.violations) std::cout << "  " << v.str() << "\n";
      if (!report.ok()) return 3;
      std::cout << "check: all properties hold\n";
    }

    if (!saveFile.empty() && !run(session, "save " + saveFile)) return 2;

    if (!emit.empty()) {
      const std::string artifact = session.execute(emit);
      if (artifact.rfind("error:", 0) == 0) {
        std::cerr << "esl: " << artifact;
        return 2;
      }
      if (outFile.empty()) {
        std::cout << artifact;
      } else {
        std::ofstream out(outFile);
        out << artifact;
        if (!out.flush()) {
          std::cerr << "esl: cannot write " << outFile << "\n";
          return 2;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "esl: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
