#include "shell/session.h"

#include <gtest/gtest.h>

namespace esl::shell {
namespace {

TEST(Shell, SaveLoadRoundTripPreservesBehaviour) {
  const std::string path = testing::TempDir() + "esl_shell_roundtrip.esl";
  Session a;
  a.execute("build fig1a");
  EXPECT_NE(a.execute("speculate mux F rr").find("speculation applied"),
            std::string::npos);
  EXPECT_NE(a.execute("save " + path).find("saved"), std::string::npos);
  const std::string simA = a.execute("sim 300");

  Session b;
  EXPECT_NE(b.execute("load " + path).find("loaded '" + path + "'"),
            std::string::npos);
  EXPECT_EQ(b.execute("sim 300"), simA);
  // The loaded spec is the session's base design: transformations on top of
  // it replay through undo/redo exactly like `build`-based sessions.
  const std::string before = b.execute("nodes");
  b.execute("bubble pc.out");
  EXPECT_NE(b.execute("nodes"), before);
  b.execute("undo");
  EXPECT_EQ(b.execute("nodes"), before);
}

TEST(Shell, PrintEmitsParseableEsl) {
  Session s;
  s.execute("build table1");
  const std::string text = s.execute("print");
  EXPECT_EQ(text.rfind("esl 1;", 0), 0u) << text;
  EXPECT_NE(text.find("node shared F"), std::string::npos);
}

TEST(Shell, LoadReportsMissingFile) {
  Session s;
  EXPECT_NE(s.execute("load /no/such/file.esl").find("error:"), std::string::npos);
}

TEST(Shell, SpeculateAcceptsEveryCatalogScheduler) {
  // makeSched resolves through the Registry catalog, so the shell accepts
  // every serializable policy (not just the hand-listed subset it once had).
  for (const std::string sched :
       {"static0", "static1", "rr", "last", "2bit", "timeout", "bounded-fair"}) {
    Session s;
    s.execute("build fig1a");
    EXPECT_NE(s.execute("speculate mux F " + sched).find("speculation applied"),
              std::string::npos)
        << sched;
  }
  Session s;
  s.execute("build fig1a");
  EXPECT_NE(s.execute("speculate mux F warp").find("error: unknown scheduler"),
            std::string::npos);
}

TEST(Shell, BuildAndInspect) {
  Session s;
  EXPECT_NE(s.execute("build fig1a").find("loaded 'fig1a'"), std::string::npos);
  const std::string nodes = s.execute("nodes");
  EXPECT_NE(nodes.find("mux"), std::string::npos);
  EXPECT_NE(nodes.find("(eb)"), std::string::npos);
  const std::string channels = s.execute("channels");
  EXPECT_NE(channels.find("pc.out"), std::string::npos);
}

TEST(Shell, ErrorsAreReportedNotThrown) {
  Session s;
  EXPECT_NE(s.execute("nodes").find("error: no design loaded"), std::string::npos);
  s.execute("build fig1a");
  EXPECT_NE(s.execute("frobnicate").find("error: unknown command"), std::string::npos);
  EXPECT_NE(s.execute("bubble nosuch").find("error:"), std::string::npos);
  EXPECT_NE(s.execute("build nosuch").find("error: unknown design"), std::string::npos);
}

TEST(Shell, CountsParseStrictly) {
  // Cycle and shard counts parse strictly: garbage and negative numbers come
  // back as errors (a sign-wrapped "-1" would run 2^64-1 cycles), and the
  // session keeps working afterwards.
  Session s;
  s.execute("build fig1a");
  for (const std::string cmd :
       {"sim abc", "sim -1", "sim 10 abc", "tput -1 pc.out", "trace x pc.out"})
    EXPECT_EQ(s.execute(cmd).rfind("error:", 0), 0u) << cmd;
  // Every front end parses counts with parseU64 (decimal or 0x hex) and
  // words a lane count above the limit the same way, naming no source file.
  EXPECT_EQ(s.execute("sim 10 257"),
            "error: shard count 257 is above the limit of 256\n");
  EXPECT_EQ(s.execute("sim 0x10 0x2"), s.execute("sim 16 2"));
  EXPECT_NE(s.execute("tput 200 pc.out").find("1.0000"), std::string::npos);
}

TEST(Shell, CandidatesAndSpeculationRecipe) {
  Session s;
  s.execute("build fig1a");
  const std::string cand = s.execute("candidates");
  EXPECT_NE(cand.find("mux=mux func=F"), std::string::npos);
  EXPECT_NE(cand.find("critical cycle"), std::string::npos);

  const std::string out = s.execute("speculate mux F last");
  EXPECT_NE(out.find("shared module"), std::string::npos);
  // The shared module now exists; the duplicated copies do not.
  const std::string nodes = s.execute("nodes");
  EXPECT_NE(nodes.find("(shared)"), std::string::npos);
  EXPECT_NE(nodes.find("(ee-mux)"), std::string::npos);
}

TEST(Shell, UndoRedoByReplay) {
  Session s;
  s.execute("build fig1a");
  const std::string before = s.execute("nodes");
  s.execute("bubble mux.out");
  const std::string mutated = s.execute("nodes");
  EXPECT_NE(before, mutated);

  EXPECT_NE(s.execute("undo").find("undone"), std::string::npos);
  EXPECT_EQ(s.execute("nodes"), before);

  EXPECT_NE(s.execute("redo").find("redone"), std::string::npos);
  EXPECT_EQ(s.execute("nodes"), mutated);

  EXPECT_NE(s.execute("undo").find("undone"), std::string::npos);
  EXPECT_NE(s.execute("undo").find("error: nothing to undo"), std::string::npos);
}

TEST(Shell, ThroughputReflectsBubbleInsertion) {
  Session s;
  s.execute("build fig1a");
  const std::string t1 = s.execute("tput 200 pc.out");
  EXPECT_NE(t1.find("1.0000"), std::string::npos);
  s.execute("bubble mux.out");
  const std::string t2 = s.execute("tput 200 pc.out");
  EXPECT_NE(t2.find("0.5"), std::string::npos);  // bubble halves it
}

TEST(Shell, SimTimingAreaBoundEmitters) {
  Session s;
  s.execute("build table1");
  EXPECT_NE(s.execute("sim 20").find("sink 'sink':"), std::string::npos);
  EXPECT_NE(s.execute("timing").find("cycle time"), std::string::npos);
  EXPECT_NE(s.execute("bound").find("throughput bound"), std::string::npos);
  EXPECT_NE(s.execute("area").find("total"), std::string::npos);
  EXPECT_NE(s.execute("dot").find("digraph"), std::string::npos);
  EXPECT_NE(s.execute("verilog").find("module esl_eb"), std::string::npos);
  EXPECT_NE(s.execute("smv").find("MODULE main"), std::string::npos);
  EXPECT_NE(s.execute("blif").find(".model"), std::string::npos);
}

TEST(Shell, TraceRendersTable) {
  Session s;
  s.execute("build table1");
  const std::string trace = s.execute("trace 7 Fin0 Fout0 Fin1 Fout1 EBin");
  EXPECT_NE(trace.find("Cycle"), std::string::npos);
  EXPECT_NE(trace.find("Fin0"), std::string::npos);
  EXPECT_NE(trace.find("-"), std::string::npos);  // anti-token cells
  EXPECT_NE(trace.find("*"), std::string::npos);  // bubble cells
}

TEST(Shell, ScriptRunsTheWholeSection4Flow) {
  Session s;
  const std::string out = s.runScript(R"(
    # Section 4 recipe on the Fig. 1(a) loop
    build fig1a
    candidates
    speculate mux F 2bit
    tput 300 pc.out
    timing
    area
  )");
  EXPECT_NE(out.find("esl> build fig1a"), std::string::npos);
  EXPECT_NE(out.find("speculation applied"), std::string::npos);
  EXPECT_NE(out.find("throughput(pc.out)"), std::string::npos);
  EXPECT_NE(out.find("cycle time"), std::string::npos);
}

TEST(Shell, AllBaseDesignsLoadAndSimulate) {
  for (const std::string& d : Session::designNames()) {
    Session s;
    EXPECT_NE(s.execute("build " + d).find("loaded"), std::string::npos) << d;
    const std::string sim = s.execute("sim 50");
    EXPECT_NE(sim.find("protocol violations: 0"), std::string::npos)
        << d << ": " << sim;
  }
}

TEST(Shell, ManualStepwiseRecipeMatchesSpeculate) {
  // shannon + early can be applied step by step as in the paper.
  Session s;
  s.execute("build fig1a");
  EXPECT_NE(s.execute("shannon mux F").find("duplicated into 2 copies"),
            std::string::npos);
  EXPECT_NE(s.execute("early mux").find("early evaluation"), std::string::npos);
  const std::string nodes = s.execute("nodes");
  EXPECT_NE(nodes.find("F0"), std::string::npos);
  EXPECT_NE(nodes.find("F1"), std::string::npos);
  EXPECT_NE(nodes.find("(ee-mux)"), std::string::npos);
  // Still functional: full throughput with both copies present.
  EXPECT_NE(s.execute("tput 200 pc.out").find("1.0000"), std::string::npos);
}

}  // namespace
}  // namespace esl::shell
