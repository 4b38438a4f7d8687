// Fault-injection tests (label: serve-fault): the deterministic crash/damage
// harness of src/base/fault_inject.h driven through the durability stack —
// spool-directory recovery (the directory scan, quarantine, temp cleanup),
// admission refusal on spool-write failure, clean errors on bit-rot and
// truncation, drain-at-quantum-boundary shutdown, and a fork()ed
// kill-at-quantum-boundary crash whose restart resumes byte-identically.
//
// Every injected fault must produce a structured error or a quarantine —
// never a crash, a hang, or silently corrupted state.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/crc32.h"
#include "base/error.h"
#include "base/fault_inject.h"
#include "elastic/state_io.h"
#include "netlist/patterns.h"
#include "serve/service.h"
#include "serve/session.h"
#include "serve/spool.h"
#include "sim/state_file.h"

namespace esl::serve {
namespace {

// --- ESL_FAULT grammar -------------------------------------------------------
// The registry parses ESL_FAULT once, on first use. This test must therefore
// be the process's first touch of the fault API: it is declared first in this
// file, the binary holds only this file, and neither gtest nor static
// initialization reaches the registry. (ctest runs each test in its own
// process anyway.)

TEST(FaultInjectEnv, GrammarArmsPointsFromTheEnvironment) {
  ::setenv("ESL_FAULT", "env-a=fail@2;env-b=truncate@1:3;junk;env-c=nokind@1",
           1);
  fault::hitPoint("env-a");  // hit 1 of 2: inert
  EXPECT_THROW(fault::hitPoint("env-a"), EslError);
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  fault::hitData("env-b", buf);
  EXPECT_EQ(buf.size(), 3u);
  // Unparsable items and unknown kinds are skipped, never armed.
  EXPECT_NO_THROW(fault::hitPoint("junk"));
  EXPECT_NO_THROW(fault::hitPoint("env-c"));
  fault::disarmAll();
  ::unsetenv("ESL_FAULT");
}

// --- Registry semantics ------------------------------------------------------

TEST(FaultInject, ArmTriggersOnTheNthHitOnly) {
  fault::disarmAll();
  fault::arm("p", {fault::Kind::kFail, 3, 0});
  EXPECT_NO_THROW(fault::hitPoint("p"));
  EXPECT_NO_THROW(fault::hitPoint("p"));
  EXPECT_THROW(fault::hitPoint("p"), EslError);
  EXPECT_NO_THROW(fault::hitPoint("p"));  // past the nth hit: inert again
  EXPECT_EQ(fault::hits("p"), 4u);
  fault::disarmAll();
  EXPECT_EQ(fault::hits("p"), 0u);
}

TEST(FaultInject, DataKindsMutateTheBufferInPlace) {
  fault::disarmAll();
  fault::arm("t", {fault::Kind::kTruncate, 1, 2});
  std::vector<std::uint8_t> a{9, 9, 9, 9};
  fault::hitData("t", a);
  EXPECT_EQ(a, (std::vector<std::uint8_t>{9, 9}));

  fault::arm("f", {fault::Kind::kBitFlip, 1, 10});  // byte 1, bit 2
  std::vector<std::uint8_t> b{0, 0};
  fault::hitData("f", b);
  EXPECT_EQ(b[0], 0);
  EXPECT_EQ(b[1], 4);

  // Data kinds are inert on control-flow points.
  fault::arm("c", {fault::Kind::kTruncate, 1, 0});
  EXPECT_NO_THROW(fault::hitPoint("c"));
  fault::disarmAll();
}

// --- Helpers -----------------------------------------------------------------

SimSession::Options interpreted() { return {}; }

SimSession::Options compiled(unsigned shards = 1) {
  SimSession::Options opts;
  opts.backend = SimContext::Backend::kCompiled;
  opts.shards = shards;
  return opts;
}

std::unique_ptr<SimSession> makeSession(const std::string& design,
                                        SimSession::Options opts = {}) {
  return std::make_unique<SimSession>(patterns::designSpec(design), design,
                                      opts);
}

std::string makeTempDir() {
  std::string tmpl = testing::TempDir() + "esl_fault_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void removeTree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name != "." && name != "..") std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

bool fileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void flipByte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x40));
}

void truncateFile(const std::string& path, std::size_t keep) {
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(keep)), 0);
}

/// A record file's bytes: `s` as the payload of a session container (the
/// spool verifies containers, not what they carry).
std::vector<std::uint8_t> recordOf(const std::string& s) {
  StateWriter w(StateKind::kSession);
  w.writeString(s);
  return w.seal();
}

Service::Config baseConfig(const std::string& dir) {
  Service::Config cfg;
  cfg.workers = 1;
  cfg.spoolDir = dir;
  cfg.warn = [](const std::string&) {};
  return cfg;
}

// --- SpoolDir recovery -------------------------------------------------------

TEST(SpoolRecovery, QuarantinesDamageAndRecoversTheRest) {
  const std::string dir = makeTempDir();
  {
    SpoolDir s;
    s.open(dir, true);
    s.writeRecord("good", recordOf("payload-good"));
    s.writeRecord("rot", recordOf("payload-rot"));
    s.writeRecord("torn", recordOf("payload-torn"));
    // Written by an older build: reads accept the current version only.
    std::vector<std::uint8_t> old = recordOf("payload-old");
    old[4] = 1;
    s.writeRecord("old", old);
  }
  flipByte(dir + "/rot.spool", kStateHeaderBytes + 3);
  truncateFile(dir + "/torn.spool", kStateHeaderBytes + 4);

  SpoolDir s2;
  s2.open(dir, true);
  std::vector<std::string> warnings;
  std::uint64_t quarantined = 0;
  const auto recovered = s2.recover(warnings, &quarantined);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0], "good");
  EXPECT_EQ(quarantined, 3u);
  EXPECT_EQ(warnings.size(), 3u);
  EXPECT_TRUE(fileExists(dir + "/rot.spool.corrupt"));
  EXPECT_TRUE(fileExists(dir + "/torn.spool.corrupt"));
  EXPECT_TRUE(fileExists(dir + "/old.spool.corrupt"));
  const auto said = [&](const std::string& needle) {
    return std::any_of(warnings.begin(), warnings.end(), [&](const std::string& w) {
      return w.find(needle) != std::string::npos;
    });
  };
  EXPECT_TRUE(said("checksum mismatch"));
  EXPECT_TRUE(said("unsupported state version 1"));
  EXPECT_FALSE(fileExists(dir + "/rot.spool"));
  // The survivor reads back byte for byte.
  EXPECT_EQ(s2.readRecord("good"), recordOf("payload-good"));
  removeTree(dir);
}

TEST(SpoolRecovery, EveryVerifiedRecordIsASessionAndTempsAreDeleted) {
  const std::string dir = makeTempDir();
  SpoolDir s;
  s.open(dir, true);
  s.writeRecord("keep", recordOf("kept"));
  // A valid record that did not come through this SpoolDir is a session too:
  // the directory is the index.
  sim::writeFileAtomic(dir + "/beside.spool", recordOf("beside"));
  // A doomed temp from an interrupted atomic write.
  std::ofstream(dir + "/half.spool.tmp") << "half-written";
  // Left alone: a quarantined record and an older daemon's journal.
  std::ofstream(dir + "/old.spool.corrupt") << "rot";
  std::ofstream(dir + "/spool.journal") << "{\"event\":\"spool\",\"sid\":\"gone\"}\n";

  SpoolDir s2;
  s2.open(dir, true);
  std::vector<std::string> warnings;
  const auto recovered = s2.recover(warnings, nullptr);
  EXPECT_EQ(recovered, (std::vector<std::string>{"beside", "keep"}));
  EXPECT_EQ(s2.readRecord("beside"), recordOf("beside"));
  EXPECT_FALSE(fileExists(dir + "/half.spool.tmp"));
  EXPECT_TRUE(fileExists(dir + "/old.spool.corrupt"));
  EXPECT_TRUE(fileExists(dir + "/spool.journal"));
  EXPECT_TRUE(warnings.empty());
  removeTree(dir);
}

TEST(SpoolRecovery, SessionChurnLeavesExactlyTheLiveRecords) {
  const std::string dir = makeTempDir();
  {
    SpoolDir s;
    s.open(dir, true);
    for (const char* sid : {"a", "b", "c"}) s.writeRecord(sid, recordOf(sid));
    // 50 open/close cycles while only three sessions stay live.
    for (int i = 0; i < 50; ++i) {
      const std::string sid = "churn" + std::to_string(i);
      s.writeRecord(sid, recordOf(sid));
      s.removeRecord(sid);
    }
    s.removeRecord("b");
    s.writeRecord("d", recordOf("d"));
  }

  SpoolDir s2;
  s2.open(dir, true);
  std::vector<std::string> warnings;
  const auto recovered = s2.recover(warnings, nullptr);
  EXPECT_EQ(recovered, (std::vector<std::string>{"a", "c", "d"}));
  EXPECT_TRUE(warnings.empty());
  for (const std::string& sid : recovered)
    EXPECT_EQ(s2.readRecord(sid), recordOf(sid));
  removeTree(dir);
}

// --- Service under injected faults ------------------------------------------

TEST(ServeFault, SpoolWriteFailureRefusesAdmissionCleanly) {
  const std::string dir = makeTempDir();
  Service::Config cfg = baseConfig(dir);
  cfg.maxResident = 1;
  {
    Service svc(cfg);
    svc.open("s1", patterns::designSpec("fig1a"), "fig1a", interpreted());
    // Disk refuses the eviction write: the open is refused, the resident
    // session is untouched, nothing crashes.
    fault::arm("spool-write", {fault::Kind::kFail, 1, 0});
    EXPECT_THROW(
        svc.open("s2", patterns::designSpec("fig1b"), "fig1b", interpreted()),
        AdmissionError);
    EXPECT_EQ(svc.stats().denied, 1u);
    EXPECT_NO_THROW(svc.step("s1", 10));
    // Once the disk behaves again the same open succeeds.
    fault::disarmAll();
    EXPECT_NO_THROW(
        svc.open("s2", patterns::designSpec("fig1b"), "fig1b", interpreted()));
    svc.close("s1");
    svc.close("s2");
  }
  fault::disarmAll();
  removeTree(dir);
}

TEST(ServeFault, BitRotOnAnEvictedRecordIsACleanErrorNotACrash) {
  const std::string dir = makeTempDir();
  Service::Config cfg = baseConfig(dir);
  cfg.maxResident = 1;
  Service svc(cfg);
  svc.open("s1", patterns::designSpec("fig1a"), "fig1a", interpreted());
  svc.step("s1", 100);
  svc.open("s2", patterns::designSpec("fig1a"), "fig1a", interpreted());
  ASSERT_TRUE(fileExists(dir + "/s1.spool"));
  flipByte(dir + "/s1.spool", kStateHeaderBytes + 8);
  try {
    svc.step("s1", 10);
    FAIL() << "restore from a bit-rotted record must throw";
  } catch (const EslError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos);
  }
  // The service survives: other sessions keep working.
  EXPECT_NO_THROW(svc.step("s2", 10));
  svc.close("s1");
  svc.close("s2");
  removeTree(dir);
}

TEST(ServeFault, RestartQuarantinesDamageAndReattachesTheRest) {
  const std::string dir = makeTempDir();
  Service::Config cfg = baseConfig(dir);
  {
    Service svc(cfg);
    svc.open("keep", patterns::designSpec("fig1d"), "fig1d", compiled());
    svc.step("keep", 120);
    svc.open("rot", patterns::designSpec("fig1a"), "fig1a", interpreted());
    svc.step("rot", 250);
    EXPECT_EQ(svc.drainAndSpool(), 2u);
  }
  flipByte(dir + "/rot.spool", kStateHeaderBytes + 5);

  std::vector<std::string> warnings;
  cfg.warn = [&](const std::string& w) { warnings.push_back(w); };
  Service svc2(cfg);
  const Service::Stats st = svc2.stats();
  EXPECT_EQ(st.recovered, 1u);
  EXPECT_EQ(st.quarantined, 1u);
  EXPECT_FALSE(warnings.empty());
  EXPECT_TRUE(fileExists(dir + "/rot.spool.corrupt"));
  // The quarantined session is not re-attached; addressing it is a clean
  // structured error.
  EXPECT_THROW(svc2.step("rot", 1), NotFoundError);
  // The survivor resumes byte-identically to a session that never left.
  auto ref = makeSession("fig1d", compiled());
  ref->step(170);
  EXPECT_EQ(svc2.step("keep", 50), ref->report());
  svc2.close("keep");
  removeTree(dir);
}

TEST(ServeFault, OutOfRangeSpoolOptionsFailTheFirstOpAndServingGoesOn) {
  const std::string dir = makeTempDir();
  Service::Config cfg = baseConfig(dir);
  {
    Service svc(cfg);
    svc.open("wide", patterns::designSpec("fig1a"), "fig1a", interpreted());
    svc.open("odd", patterns::designSpec("fig1a"), "fig1a", interpreted());
    svc.open("keep", patterns::designSpec("fig1d"), "fig1d", interpreted());
    svc.step("keep", 120);
    EXPECT_EQ(svc.drainAndSpool(), 3u);
  }
  // CRC-valid records no daemon writes: 257 shards, backend 7 (the payload
  // opens with the u32 backend, then the u32 shard count).
  const auto patch = [&dir](const std::string& sid, std::size_t at, std::uint32_t v) {
    SpoolDir spool;
    spool.open(dir, true);
    std::vector<std::uint8_t> record = spool.readRecord(sid);
    for (int i = 0; i < 4; ++i)
      record[kStateHeaderBytes + at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    const std::uint32_t crc =
        crc32(record.data() + kStateHeaderBytes, record.size() - kStateHeaderBytes);
    for (int i = 0; i < 4; ++i)
      record[20 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    spool.writeRecord(sid, record);
  };
  patch("wide", 4, Executor::kMaxLanes + 1);
  patch("odd", 0, 7);

  Service svc2(cfg);
  EXPECT_EQ(svc2.stats().recovered, 3u);
  try {
    svc2.step("wide", 1);
    ADD_FAILURE() << "a 257-shard record was loaded";
  } catch (const EslError& e) {
    EXPECT_NE(std::string(e.what()).find("above the limit"), std::string::npos)
        << e.what();
  }
  try {
    svc2.step("odd", 1);
    ADD_FAILURE() << "a backend-7 record was loaded";
  } catch (const EslError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown backend 7"), std::string::npos)
        << e.what();
  }
  auto ref = makeSession("fig1d");
  ref->step(170);
  EXPECT_EQ(svc2.step("keep", 50), ref->report());
  svc2.close("keep");
  removeTree(dir);
}

TEST(ServeFault, DrainAbortsInFlightStepsAtTheQuantumBoundary) {
  const std::string dir = makeTempDir();
  Service::Config cfg = baseConfig(dir);
  cfg.quantumCycles = 100;
  {
    Service svc(cfg);
    svc.open("s1", patterns::designSpec("fig1a"), "fig1a", interpreted());
    svc.step("s1", 300);
    const std::uint64_t base = fault::hits("serve-quantum");
    auto aborted = std::async(std::launch::async, [&svc] {
      try {
        svc.step("s1", 1'000'000'000);  // far longer than the test will wait
      } catch (const DrainingError&) {
        return true;
      }
      return false;
    });
    // Wait until the big step is demonstrably mid-flight (a few quanta in),
    // then drain: the step must abort at its next quantum boundary.
    while (fault::hits("serve-quantum") < base + 5)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(svc.drainAndSpool(), 1u);
    EXPECT_TRUE(aborted.get());
    // A draining service refuses new work with the structured kind.
    EXPECT_THROW(svc.step("s1", 1), DrainingError);
    EXPECT_THROW(
        svc.open("s2", patterns::designSpec("fig1b"), "fig1b", interpreted()),
        DrainingError);
  }
  // Restart on the same directory: the partial progress survived, cut at an
  // exact quantum boundary, and resumes byte-identically.
  Service svc2(baseConfig(dir));
  EXPECT_EQ(svc2.stats().recovered, 1u);
  const std::uint64_t cycle = svc2.cycle("s1");
  EXPECT_EQ(cycle % 100, 0u);
  EXPECT_GE(cycle, 300u);
  const std::string resumed = svc2.step("s1", 400);
  auto ref = makeSession("fig1a");
  ref->step(cycle + 400);
  EXPECT_EQ(resumed, ref->report());
  svc2.close("s1");
  removeTree(dir);
}

// --- Crash at a quantum boundary --------------------------------------------
// fork() a child that runs a durable service and dies (std::_Exit(137), the
// SIGKILL stand-in: no destructors, no flush) at a scheduler quantum
// boundary. The parent restarts on the same spool directory and must find
// the state of the last completed operation, byte-identical.

TEST(ServeCrash, KillAtQuantumBoundaryLosesAtMostTheOpInFlight) {
  const std::string dir = makeTempDir();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: never return into gtest; signal failure stages via exit codes.
    try {
      Service::Config cfg = baseConfig(dir);
      cfg.quantumCycles = 50;
      cfg.durable = true;
      Service svc(cfg);
      svc.open("s1", patterns::designSpec("fig1a"), "fig1a", interpreted());
      svc.step("s1", 40);
      svc.step("s1", 40);
      svc.step("s1", 40);  // last durable checkpoint: cycle 120
      fault::arm("serve-quantum", {fault::Kind::kExit, 1, 0});
      svc.step("s1", 5000);  // dies at the first quantum boundary
    } catch (...) {
      std::_Exit(3);
    }
    std::_Exit(4);  // the fault failed to fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137);

  Service::Config cfg = baseConfig(dir);
  cfg.quantumCycles = 50;
  cfg.durable = true;
  Service svc(cfg);
  EXPECT_EQ(svc.stats().recovered, 1u);
  // The kill lost exactly the operation in flight: the re-attached session
  // sits at the last completed op's checkpoint.
  EXPECT_EQ(svc.cycle("s1"), 120u);
  const std::string resumed = svc.step("s1", 380);
  auto ref = makeSession("fig1a");
  ref->step(500);
  EXPECT_EQ(resumed, ref->report());
  svc.close("s1");
  removeTree(dir);
}

}  // namespace
}  // namespace esl::serve
