#include "backend/smv.h"

#include <sstream>

#include "elastic/buffer.h"
#include "elastic/eemux.h"
#include "elastic/endpoints.h"
#include "elastic/fork.h"
#include "elastic/func.h"
#include "elastic/shared.h"

namespace esl::backend {

namespace {

std::string chv(ChannelId id, const char* sig) {
  return "ch" + std::to_string(id) + "_" + sig;
}

std::string nv(NodeId id, const std::string& what) {
  return "n" + std::to_string(id) + "_" + what;
}

}  // namespace

std::string emitSmv(const Netlist& nl) {
  std::ostringstream vars, defs, assigns, specs;

  for (const NodeId id : nl.nodeIds()) {
    const Node& n = nl.node(id);

    if (const auto* eb = dynamic_cast<const ElasticBuffer*>(&n)) {
      const ChannelId in = n.input(0), out = n.output(0);
      const unsigned cap = eb->capacity();
      vars << "  " << nv(id, "cnt") << " : 0.." << cap << ";  -- " << n.name() << "\n";
      vars << "  " << nv(id, "anti") << " : 0..2;\n";
      defs << "  " << chv(out, "vf") << " := " << nv(id, "cnt") << " > 0;\n"
           << "  " << chv(out, "sb") << " := " << nv(id, "cnt") << " = 0 & "
           << nv(id, "anti") << " = 2;\n"
           << "  " << chv(in, "sf") << " := " << nv(id, "cnt") << " >= " << cap
           << ";\n"
           << "  " << chv(in, "vb") << " := " << nv(id, "anti") << " > 0;\n"
           << "  " << nv(id, "take") << " := " << chv(out, "vf") << " & (!"
           << chv(out, "sf") << " | " << chv(out, "vb") << ");\n"
           << "  " << nv(id, "put") << " := " << chv(in, "vf") << " & !"
           << chv(in, "sf") << " & !" << chv(in, "vb") << ";\n"
           << "  " << nv(id, "antiin") << " := " << chv(out, "vb") << " & !"
           << chv(out, "sb") << " & !" << chv(out, "vf") << ";\n"
           << "  " << nv(id, "antiuse") << " := " << chv(in, "vb") << " & ("
           << chv(in, "vf") << " | !" << chv(in, "sb") << ");\n";
      assigns << "  init(" << nv(id, "cnt") << ") := " << eb->initTokens().size()
              << ";\n"
              << "  next(" << nv(id, "cnt") << ") := case\n"
              << "    " << nv(id, "put") << " & !" << nv(id, "take") << " & !"
              << nv(id, "antiin") << " : " << nv(id, "cnt") << " + 1;\n"
              << "    !" << nv(id, "put") << " & " << nv(id, "take") << " : "
              << nv(id, "cnt") << " - 1;\n"
              << "    " << nv(id, "put") << " & " << nv(id, "antiin") << " : "
              << nv(id, "cnt") << ";  -- internal cancellation\n"
              << "    TRUE : " << nv(id, "cnt") << ";\n  esac;\n"
              << "  init(" << nv(id, "anti") << ") := 0;\n"
              << "  next(" << nv(id, "anti") << ") := case\n"
              << "    " << nv(id, "antiin") << " & !" << nv(id, "antiuse") << " & !"
              << nv(id, "put") << " : " << nv(id, "anti") << " + 1;\n"
              << "    !" << nv(id, "antiin") << " & " << nv(id, "antiuse") << " : "
              << nv(id, "anti") << " - 1;\n"
              << "    TRUE : " << nv(id, "anti") << ";\n  esac;\n";
    } else if (dynamic_cast<const ElasticBuffer0*>(&n) != nullptr) {
      const ChannelId in = n.input(0), out = n.output(0);
      vars << "  " << nv(id, "full") << " : boolean;  -- " << n.name() << "\n";
      defs << "  " << chv(out, "vf") << " := " << nv(id, "full") << ";\n"
           << "  " << nv(id, "leave") << " := " << nv(id, "full") << " & (!"
           << chv(out, "sf") << " | " << chv(out, "vb") << ");\n"
           << "  " << chv(in, "sf") << " := " << nv(id, "full") << " & !"
           << nv(id, "leave") << ";\n"
           << "  " << chv(in, "vb") << " := !" << nv(id, "full") << " & "
           << chv(out, "vb") << ";\n"
           << "  " << chv(out, "sb") << " := !" << nv(id, "full") << " & !"
           << chv(in, "vf") << " & " << chv(in, "sb") << ";\n";
      assigns << "  init(" << nv(id, "full") << ") := FALSE;\n"
              << "  next(" << nv(id, "full") << ") := case\n"
              << "    " << chv(in, "vf") << " & !" << chv(in, "sf") << " & !"
              << chv(in, "vb") << " : TRUE;\n"
              << "    " << nv(id, "leave") << " : FALSE;\n"
              << "    TRUE : " << nv(id, "full") << ";\n  esac;\n";
    } else if (const auto* fk = dynamic_cast<const ForkNode*>(&n)) {
      const ChannelId in = n.input(0);
      std::string allDone = chv(in, "vf");
      for (unsigned b = 0; b < fk->branches(); ++b) {
        const ChannelId br = n.output(b);
        vars << "  " << nv(id, "done" + std::to_string(b)) << " : boolean;\n";
        defs << "  " << chv(br, "vf") << " := " << chv(in, "vf") << " & !"
             << nv(id, "done" + std::to_string(b)) << ";\n"
             << "  " << chv(br, "sb") << " := !" << chv(br, "vf") << ";\n"
             << "  " << nv(id, "fin" + std::to_string(b)) << " := "
             << nv(id, "done" + std::to_string(b)) << " | (" << chv(br, "vf")
             << " & (!" << chv(br, "sf") << " | " << chv(br, "vb") << "));\n";
        allDone += " & " + nv(id, "fin" + std::to_string(b));
      }
      defs << "  " << nv(id, "alldone") << " := " << allDone << ";\n"
           << "  " << chv(in, "sf") << " := !" << nv(id, "alldone") << ";\n"
           << "  " << chv(in, "vb") << " := FALSE;\n";
      for (unsigned b = 0; b < fk->branches(); ++b) {
        const std::string d = nv(id, "done" + std::to_string(b));
        assigns << "  init(" << d << ") := FALSE;\n"
                << "  next(" << d << ") := case\n"
                << "    !" << chv(in, "vf") << " : " << d << ";\n"
                << "    " << nv(id, "alldone") << " : FALSE;\n"
                << "    TRUE : " << nv(id, "fin" + std::to_string(b)) << ";\n  esac;\n";
      }
    } else if (const auto* fn = dynamic_cast<const FuncNode*>(&n)) {
      const ChannelId out = n.output(0);
      std::string allIn = "TRUE", allCan = "TRUE";
      for (unsigned p = 0; p < fn->numInputs(); ++p) {
        allIn += " & " + chv(n.input(p), "vf");
        allCan += " & (" + chv(n.input(p), "vf") + " | !" + chv(n.input(p), "sb") + ")";
      }
      defs << "  " << nv(id, "allin") << " := " << allIn << ";\n"
           << "  " << nv(id, "allcan") << " := " << allCan << ";\n"
           << "  " << chv(out, "vf") << " := " << nv(id, "allin") << ";\n"
           << "  " << nv(id, "fire") << " := " << nv(id, "allin") << " & (!"
           << chv(out, "sf") << " | " << chv(out, "vb") << ");\n"
           << "  " << nv(id, "back") << " := " << chv(out, "vb") << " & !"
           << nv(id, "allin") << " & " << nv(id, "allcan") << ";\n"
           << "  " << chv(out, "sb") << " := !" << nv(id, "allin") << " & !"
           << nv(id, "allcan") << ";\n";
      for (unsigned p = 0; p < fn->numInputs(); ++p) {
        defs << "  " << chv(n.input(p), "vb") << " := " << nv(id, "back") << ";\n"
             << "  " << chv(n.input(p), "sf") << " := !" << nv(id, "fire") << " & !"
             << chv(n.input(p), "vb") << ";\n";
      }
    } else if (const auto* ee = dynamic_cast<const EarlyEvalMux*>(&n)) {
      // Control abstraction: the select VALUE is a free environment input.
      const ChannelId sel = ee->selectChannel(), out = n.output(0);
      vars << "  " << nv(id, "idx") << " : 0.." << (ee->dataInputs() - 1)
           << ";  -- abstracted select value\n";
      std::string usable = chv(sel, "vf") + " & (FALSE";
      for (unsigned d = 0; d < ee->dataInputs(); ++d) {
        vars << "  " << nv(id, "pend" + std::to_string(d)) << " : 0..3;\n";
        usable += " | (" + nv(id, "idx") + " = " + std::to_string(d) + " & " +
                  chv(ee->dataChannel(d), "vf") + " & " +
                  nv(id, "pend" + std::to_string(d)) + " = 0)";
      }
      usable += ")";
      defs << "  " << nv(id, "usable") << " := " << usable << ";\n"
           << "  " << chv(out, "vf") << " := " << nv(id, "usable") << ";\n"
           << "  " << chv(out, "sb") << " := !" << nv(id, "usable") << ";\n"
           << "  " << nv(id, "fire") << " := " << nv(id, "usable") << " & (!"
           << chv(out, "sf") << " | " << chv(out, "vb") << ");\n"
           << "  " << chv(sel, "sf") << " := !" << nv(id, "fire") << ";\n"
           << "  " << chv(sel, "vb") << " := FALSE;\n";
      for (unsigned d = 0; d < ee->dataInputs(); ++d) {
        const ChannelId ch = ee->dataChannel(d);
        const std::string pend = nv(id, "pend" + std::to_string(d));
        const std::string avail = nv(id, "avail" + std::to_string(d));
        defs << "  " << avail << " := " << pend << " + ((" << nv(id, "fire") << " & "
             << nv(id, "idx") << " != " << d << ") ? 1 : 0);\n"
             << "  " << chv(ch, "vb") << " := " << avail << " > 0;\n"
             << "  " << chv(ch, "sf") << " := " << chv(ch, "vb")
             << " ? FALSE : ((" << chv(sel, "vf") << " & " << nv(id, "idx") << " = "
             << d << ") ? !" << nv(id, "fire") << " : " << chv(ch, "vf") << ");\n";
        assigns << "  init(" << pend << ") := 0;\n"
                << "  next(" << pend << ") := case\n"
                << "    " << chv(ch, "vb") << " & (" << chv(ch, "vf") << " | !"
                << chv(ch, "sb") << ") : " << avail << " - 1;\n"
                << "    " << avail << " < 3 : " << avail << ";\n"
                << "    TRUE : 3;\n  esac;\n";
      }
      // Select value persists while the select token is held.
      assigns << "  next(" << nv(id, "idx") << ") := (" << chv(sel, "vf") << " & !"
              << nv(id, "fire") << ") ? " << nv(id, "idx") << " : {0"
              << (ee->dataInputs() > 1
                      ? ", " + std::to_string(ee->dataInputs() - 1)
                      : "")
              << "};\n";
    } else if (const auto* sh = dynamic_cast<const SharedModule*>(&n)) {
      // Unconstrained nondeterministic scheduler (§4.2 verifies against any
      // leads-to scheduler; fairness is left to FAIRNESS constraints below).
      vars << "  " << nv(id, "sched") << " : 0.." << (sh->channels() - 1)
           << ";  -- free scheduler of " << n.name() << "\n";
      for (unsigned c = 0; c < sh->channels(); ++c) {
        const ChannelId in = n.input(c), out = n.output(c);
        defs << "  " << chv(out, "vf") << " := " << nv(id, "sched") << " = " << c
             << " & " << chv(in, "vf") << ";\n"
             << "  " << chv(in, "vb") << " := " << chv(out, "vb") << ";\n"
             << "  " << chv(out, "sb") << " := !" << chv(in, "vf") << " & "
             << chv(in, "sb") << ";\n"
             << "  " << chv(in, "sf") << " := !" << chv(in, "vb") << " & (("
             << nv(id, "sched") << " = " << c << ") ? " << chv(out, "sf")
             << " : TRUE);\n";
      }
    } else if (dynamic_cast<const TokenSource*>(&n) != nullptr ||
               dynamic_cast<const NondetSource*>(&n) != nullptr) {
      const ChannelId out = n.output(0);
      vars << "  " << nv(id, "offer") << " : boolean;  -- env source " << n.name()
           << "\n";
      defs << "  " << chv(out, "vf") << " := " << nv(id, "offer") << ";\n"
           << "  " << chv(out, "sb") << " := FALSE;\n";
      assigns << "  init(" << nv(id, "offer") << ") := FALSE;\n"
              << "  next(" << nv(id, "offer") << ") := (" << chv(out, "vf") << " & "
              << chv(out, "sf") << " & !" << chv(out, "vb")
              << ") ? TRUE : {TRUE, FALSE};\n";
      specs << "FAIRNESS " << chv(out, "vf") << ";\n";
    } else if (dynamic_cast<const TokenSink*>(&n) != nullptr ||
               dynamic_cast<const NondetSink*>(&n) != nullptr) {
      const ChannelId in = n.input(0);
      vars << "  " << nv(id, "stop") << " : boolean;  -- env sink " << n.name() << "\n";
      defs << "  " << chv(in, "sf") << " := " << nv(id, "stop") << ";\n"
           << "  " << chv(in, "vb") << " := FALSE;\n";
      assigns << "  next(" << nv(id, "stop") << ") := {TRUE, FALSE};\n";
      specs << "FAIRNESS !" << chv(in, "sf") << ";\n";
    }
  }

  // §3.1 properties per channel.
  const std::vector<bool> persistent = nl.channelPersistence();
  for (const ChannelId id : nl.channelIds()) {
    const std::string vf = chv(id, "vf"), sf = chv(id, "sf"), vb = chv(id, "vb"),
                      sb = chv(id, "sb");
    specs << "-- channel " << nl.channel(id).name << "\n";
    if (persistent[id])
      specs << "LTLSPEC G ((" << vf << " & " << sf << " & !" << vb << ") -> X " << vf
            << ")  -- Retry+\n";
    specs << "LTLSPEC G ((" << vb << " & " << sb << " & !" << vf << ") -> X " << vb
          << ")  -- Retry-\n"
          << "LTLSPEC G !(" << vf << " & " << sf << " & " << vb << ")  -- Invariant\n"
          << "LTLSPEC G !(" << vb << " & " << sb << " & " << vf << ")  -- Invariant-\n";
  }

  std::ostringstream os;
  os << "-- Generated by the elastic-speculation toolkit (DAC'09 reproduction).\n"
     << "-- Control-level abstraction: payload data omitted.\n"
     << "MODULE main\nVAR\n"
     << vars.str() << "DEFINE\n" << defs.str() << "ASSIGN\n" << assigns.str()
     << specs.str();
  return os.str();
}

}  // namespace esl::backend
