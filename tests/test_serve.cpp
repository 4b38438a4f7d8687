// Tests of the serve subsystem (src/serve/*): the JSON wire format, frame
// protocol, persistent sessions, the session-manager/scheduler, and the
// Unix-socket daemon end to end.
//
// The load-bearing contract gated here is determinism under concurrency:
// any interleaving of N concurrent sessions — across backends, shard counts,
// quantum chunking, LRU eviction and back-pressure parking — produces
// per-session results byte-identical to the same commands run serially.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/crc32.h"
#include "frontend/esl_format.h"
#include "netlist/patterns.h"
#include "serve/cli.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/session.h"
#include "sim/simulator.h"

namespace esl::serve {
namespace {

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

// --- JSON ------------------------------------------------------------------

TEST(ServeJson, RoundTripIsByteStable) {
  const std::string text =
      R"({"op":"step","id":7,"deep":[true,false,null,"a\nb\\\"c"],"n":2.5})";
  const json::Value v = json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);
  EXPECT_EQ(json::Value::parse(v.dump()).dump(), text);
  EXPECT_EQ(v.find("id")->asU64(), 7u);
  EXPECT_EQ(v.find("op")->asString(), "step");
  EXPECT_EQ(v.find("deep")->items().size(), 4u);
  EXPECT_EQ(v.find("deep")->items()[3].asString(), "a\nb\\\"c");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, LargeCountersSurviveExactly) {
  // Cycle counts and payload sizes ride JSON numbers; anything the protocol
  // produces stays below 2^53 and must round-trip without drift.
  const std::uint64_t big = (1ull << 53) - 1;
  json::Value head = json::Value::object();
  head.set("cycle", json::Value::number(big));
  EXPECT_EQ(json::Value::parse(head.dump()).find("cycle")->asU64(), big);
}

TEST(ServeJson, RejectsDamagedDocuments) {
  EXPECT_THROW(json::Value::parse("{\"a\":1} junk"), ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\" 1}"), ParseError);
  EXPECT_THROW(json::Value::parse("\"\\q\""), ParseError);
  EXPECT_THROW(json::Value::parse(""), ParseError);
}

// --- Frame protocol (over a pipe — no sockets needed) ----------------------

TEST(ServeProtocol, FramesCarryBinaryPayloadsIntact) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  std::string payload("snap\0shot\nwith\xffnoise", 20);
  json::Value head = json::Value::object();
  head.set("id", json::Value::number(std::uint64_t{1}));
  head.set("op", json::Value::str("restore"));
  writeFrame(p[1], head, payload);
  json::Value plain = json::Value::object();
  plain.set("id", json::Value::number(std::uint64_t{2}));
  writeFrame(p[1], plain);
  ::close(p[1]);

  FrameReader reader(p[0]);
  Frame f;
  ASSERT_TRUE(reader.read(f));
  EXPECT_EQ(f.head.find("op")->asString(), "restore");
  EXPECT_EQ(f.head.find("bytes")->asU64(), payload.size());
  EXPECT_EQ(f.payload, payload);
  ASSERT_TRUE(reader.read(f));
  EXPECT_EQ(f.head.find("id")->asU64(), 2u);
  EXPECT_TRUE(f.payload.empty());
  EXPECT_FALSE(reader.read(f));  // clean EOF at a frame boundary
  ::close(p[0]);
}

TEST(ServeProtocol, MidFrameEofIsAProtocolError) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  const char torn[] = "{\"id\":1,\"op\":\"st";  // no newline, then hangup
  ASSERT_GT(::write(p[1], torn, sizeof torn - 1), 0);
  ::close(p[1]);
  FrameReader reader(p[0]);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[0]);
}

TEST(ServeProtocol, PayloadMustBeNewlineTerminated) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  const char bad[] = "{\"id\":1,\"bytes\":3}\nabcX";
  ASSERT_GT(::write(p[1], bad, sizeof bad - 1), 0);
  ::close(p[1]);
  FrameReader reader(p[0]);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[0]);
}

TEST(ServeProtocol, AbsurdDeclaredPayloadIsRejectedBeforeAllocation) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  // Declares ~9 PB. The reader must reject on the declared length alone —
  // nothing is buffered, allocated or waited for.
  const char huge[] = "{\"id\":1,\"bytes\":9007199254740991}\n";
  ASSERT_GT(::write(p[1], huge, sizeof huge - 1), 0);
  FrameReader reader(p[0]);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[1]);
  ::close(p[0]);
}

TEST(ServeProtocol, PayloadCapIsConfigurable) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  const char over[] = "{\"id\":1,\"bytes\":17}\n";
  ASSERT_GT(::write(p[1], over, sizeof over - 1), 0);
  FrameReader reader(p[0], /*maxPayload=*/16);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[1]);
  ::close(p[0]);
}

TEST(ServeProtocol, RunawayHeadLineIsBoundedByTheCap) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  // A "head" that never ends: the reader must give up once the buffered
  // line exceeds the cap, not accumulate it forever.
  const std::string junk(64, 'x');
  ASSERT_GT(::write(p[1], junk.data(), junk.size()), 0);
  FrameReader reader(p[0], /*maxPayload=*/16);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[1]);
  ::close(p[0]);
}

TEST(ServeProtocol, GarbageAndNulFramesAreStructuredParseErrors) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  std::string junk("\x00\x01\xff{]garbage", 12);
  junk += '\n';
  ASSERT_GT(::write(p[1], junk.data(), junk.size()), 0);
  ::close(p[1]);
  FrameReader reader(p[0]);
  Frame f;
  EXPECT_THROW(reader.read(f), ParseError);
  ::close(p[0]);
}

TEST(ServeProtocol, MidPayloadEofIsAProtocolError) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  const char bad[] = "{\"id\":1,\"bytes\":100}\nabc";  // 3 of 100 bytes, EOF
  ASSERT_GT(::write(p[1], bad, sizeof bad - 1), 0);
  ::close(p[1]);
  FrameReader reader(p[0]);
  Frame f;
  EXPECT_THROW(reader.read(f), ProtocolError);
  ::close(p[0]);
}

TEST(ServeProtocol, ErrorKindsFollowTheExceptionHierarchy) {
  EXPECT_EQ(errorKind(NotFoundError("x")), "not-found");
  EXPECT_EQ(errorKind(AdmissionError("x")), "admission");
  EXPECT_EQ(errorKind(ParseError("x")), "parse");
  EXPECT_EQ(errorKind(ProtocolError("x")), "protocol");
  EXPECT_EQ(errorKind(EslError("x")), "error");
  EXPECT_EQ(errorKind(std::runtime_error("x")), "internal");
  // throwKind inverts the map: a failed op crosses threads as (kind,
  // message) and its waiter throws an exception of the same kind.
  for (const char* kind :
       {"not-found", "admission", "draining", "timeout", "parse", "protocol",
        "transform", "comb-cycle", "netlist", "internal", "error"}) {
    try {
      throwKind(kind, "m");
    } catch (const EslError& e) {
      EXPECT_EQ(errorKind(e), kind);
      EXPECT_STREQ(e.what(), "m");
    }
  }
}

// --- SimSession ------------------------------------------------------------

TEST(ServeSession, ChunkedStepsMatchOneShot) {
  for (const auto& opts : {interpreted(), compiled(2)}) {
    auto oneShot = makeSession("fig1a", opts);
    oneShot->step(1000);
    auto chunked = makeSession("fig1a", opts);
    for (int i = 0; i < 4; ++i) chunked->step(250);
    EXPECT_EQ(oneShot->report(), chunked->report());
    EXPECT_EQ(oneShot->tputLine("pc.out"), chunked->tputLine("pc.out"));
    EXPECT_EQ(oneShot->snapshot(), chunked->snapshot());
  }
}

TEST(ServeSession, ForbiddenVerbsAreRejected) {
  auto s = makeSession("fig1a");
  for (const char* verb : {"sim 100", "tput pc.out", "trace 10 pc.out",
                           "build fig1b", "load x.esl", "save x.esl", "undo",
                           "redo"}) {
    EXPECT_THROW(s->command(verb), EslError) << verb;
  }
  // The transform/query surface stays open, mid-run netlist surgery included.
  EXPECT_NE(s->command("nodes"), "");
  s->step(100);
  EXPECT_NE(s->command("bubble pc.out"), "");
  s->step(100);
  EXPECT_EQ(s->cycle(), 200u);
}

TEST(ServeSession, SpoolRoundTripPreservesEveryReport) {
  auto a = makeSession("fig1a", compiled(2));
  a->command("bubble pc.out");
  a->step(500);
  auto b = SimSession::spoolLoad(a->spoolSave());
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->cycle(), 500u);
  EXPECT_EQ(b->origin(), a->origin());
  // A restored session's future is byte-identical to one that never left:
  // reports carry the pre-spool transfer history packState() excludes.
  EXPECT_EQ(a->report(), b->report());
  a->step(500);
  b->step(500);
  EXPECT_EQ(a->report(), b->report());
  EXPECT_EQ(a->tputLine("pc.out"), b->tputLine("pc.out"));
  EXPECT_EQ(a->snapshot(), b->snapshot());
}

TEST(ServeSession, SpoolLoadRejectsForeignRecords) {
  auto a = makeSession("fig1a");
  std::vector<std::uint8_t> record = a->spoolSave();
  record[0] ^= 0xff;  // break the magic
  EXPECT_THROW(SimSession::spoolLoad(record), EslError);
  EXPECT_THROW(SimSession::spoolLoad({1, 2, 3}), EslError);
}

/// `record` with the u32 at payload offset `at` replaced, its CRC kept valid:
/// a record that passes every container check.
std::vector<std::uint8_t> withU32(std::vector<std::uint8_t> record, std::size_t at,
                                  std::uint32_t v) {
  const auto put = [&record](std::size_t off, std::uint32_t x) {
    for (int i = 0; i < 4; ++i) record[off + i] = static_cast<std::uint8_t>(x >> (8 * i));
  };
  put(kStateHeaderBytes + at, v);
  put(20, crc32(record.data() + kStateHeaderBytes, record.size() - kStateHeaderBytes));
  return record;
}

TEST(ServeSession, SpoolLoadRejectsOutOfRangeOptions) {
  // The payload opens with the u32 backend, then the u32 shard count. Only
  // values refused before any thread starts are loaded here.
  const std::vector<std::uint8_t> record = makeSession("fig1a")->spoolSave();
  ASSERT_NO_THROW(SimSession::spoolLoad(withU32(record, 4, 1)));  // the patch is sound
  const auto expectRefused = [](const std::vector<std::uint8_t>& bad,
                                const std::string& what) {
    try {
      SimSession::spoolLoad(bad);
      ADD_FAILURE() << "accepted; expected: " << what;
    } catch (const EslError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  expectRefused(withU32(record, 4, Executor::kMaxLanes + 1), "above the limit");
  expectRefused(withU32(record, 4, ~0u), "above the limit");
  expectRefused(withU32(record, 0, 7), "unknown backend 7");
}

TEST(ServeSession, RestoreHasLoadStateSemantics) {
  auto a = makeSession("fig1a");
  a->step(600);
  const std::vector<std::uint8_t> snap = a->snapshot();

  // Restoring into a dirty session equals loading into a fresh one: the
  // sequential state and cycle come from the snapshot, perf logs restart.
  auto dirty = makeSession("fig1a");
  dirty->step(123);
  dirty->restore(snap);
  EXPECT_EQ(dirty->cycle(), 600u);
  auto fresh = makeSession("fig1a");
  fresh->restore(snap);
  dirty->step(400);
  fresh->step(400);
  EXPECT_EQ(dirty->report(), fresh->report());
  EXPECT_EQ(dirty->snapshot(), fresh->snapshot());

  EXPECT_THROW(fresh->restore({0xde, 0xad, 0xbe, 0xef}), EslError);
}

TEST(ServeSession, RejectedRestoreLeavesTheSessionUntouched) {
  auto s = makeSession("fig1d");
  s->step(100);
  std::vector<std::uint8_t> torn = s->snapshot();
  torn.resize(torn.size() - 3);  // header intact, node state cut short
  s->step(37);
  const std::vector<std::uint8_t> snap = s->snapshot();
  const std::string report = s->report();
  ASSERT_NE(report.find("108 transfers"), std::string::npos) << report;

  EXPECT_THROW(s->restore(torn), EslError);
  EXPECT_EQ(s->cycle(), 137u);
  EXPECT_EQ(s->snapshot(), snap);
  EXPECT_EQ(s->report(), report);
}

/// Calls `fn` with every truncation and every single-bit flip of `good`.
void forEachDamage(const std::vector<std::uint8_t>& good,
                   const std::function<void(const std::vector<std::uint8_t>&)>& fn) {
  for (std::size_t n = 0; n < good.size(); ++n)
    fn(std::vector<std::uint8_t>(good.begin(), good.begin() + n));
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    fn(bad);
  }
}

TEST(ServeSession, DamagedSnapshotsAndRecordsAreStructuredErrors) {
  // Every truncation and every single-bit flip of a fig1a snapshot and of a
  // fig1a spool record is refused, and a refused restore leaves the session
  // as it was.
  auto source = makeSession("fig1a");
  source->step(300);
  const std::vector<std::uint8_t> snap = source->snapshot();
  const std::vector<std::uint8_t> record = source->spoolSave();
  auto s = makeSession("fig1a");
  s->step(137);
  const std::vector<std::uint8_t> before = s->snapshot();
  const std::string report = s->report();
  std::size_t damaged = 0;
  forEachDamage(snap, [&](const std::vector<std::uint8_t>& bad) {
    EXPECT_THROW(s->restore(bad), EslError);
    ++damaged;
  });
  EXPECT_EQ(s->cycle(), 137u);
  EXPECT_EQ(s->snapshot(), before);
  EXPECT_EQ(s->report(), report);
  forEachDamage(record, [&](const std::vector<std::uint8_t>& bad) {
    EXPECT_THROW(SimSession::spoolLoad(bad), EslError);
    ++damaged;
  });
  EXPECT_EQ(damaged, 9 * (snap.size() + record.size()));
  EXPECT_EQ(SimSession::spoolLoad(record)->snapshot(), snap);
}

TEST(ServeSession, StreamBytesAreChunkInvariant) {
  auto whole = makeSession("fig1a");
  whole->watch({"pc.out"});
  whole->step(200);
  const std::string serialStream = whole->drainStream();
  ASSERT_NE(serialStream.find("pc.out="), std::string::npos);

  auto pieces = makeSession("fig1a");
  pieces->watch({"pc.out"});
  std::string chunkedStream;
  for (int i = 0; i < 8; ++i) {
    pieces->step(25);
    chunkedStream += pieces->drainStream();
  }
  EXPECT_EQ(chunkedStream, serialStream);
}

// --- Service: scheduling, residency, determinism ---------------------------

// One scripted session: open, interleave transforms and chunked steps,
// snapshot, close. Returns the concatenated printable output.
struct GatePlan {
  std::string sid;
  std::string design;
  SimSession::Options opts;
  std::vector<std::string> cmds;          // run before the steps
  std::vector<std::uint64_t> stepChunks;  // step sizes, in order
};

std::string driveSerial(const GatePlan& p, std::vector<std::uint8_t>& snap) {
  SimSession s(patterns::designSpec(p.design), p.design, p.opts);
  std::string out;
  for (const std::string& cmd : p.cmds) out += s.command(cmd);
  for (const std::uint64_t n : p.stepChunks) {
    s.step(n);
    out += s.report();
  }
  snap = s.snapshot();
  return out;
}

// Retries AdmissionError: under a deliberately tight resident cap a burst of
// concurrent opens can momentarily find nothing evictable. The service must
// refuse (bounded memory), the client backs off — nothing partial happened.
template <typename F>
auto admitted(F f) {
  while (true) {
    try {
      return f();
    } catch (const AdmissionError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

std::string driveService(Service& svc, const GatePlan& p,
                         std::vector<std::uint8_t>& snap) {
  admitted([&] {
    return svc.open(p.sid, patterns::designSpec(p.design), p.design, p.opts);
  });
  std::string out;
  for (const std::string& cmd : p.cmds)
    out += admitted([&] { return svc.command(p.sid, cmd); });
  for (const std::uint64_t n : p.stepChunks)
    out += admitted([&] { return svc.step(p.sid, n); });
  snap = admitted([&] { return svc.snapshot(p.sid); });
  svc.close(p.sid);
  return out;
}

TEST(ServeService, ConcurrentSessionsMatchSerialByteForByte) {
  const std::vector<GatePlan> plans = {
      {"s0", "fig1a", interpreted(), {"bubble pc.out"}, {250, 250, 250, 250}},
      {"s1", "fig1a", compiled(2), {"bubble pc.out"}, {400, 600}},
      {"s2", "table1", interpreted(), {}, {500, 500}},
      {"s3", "fig1d", compiled(), {}, {1000}},
      {"s4", "vlu-spec", interpreted(), {}, {200, 800}},
      {"s5", "secded-spec", compiled(2), {}, {300, 700}},
  };

  // Serial references: each plan in isolation, no service in the loop.
  std::vector<std::string> serialOut(plans.size());
  std::vector<std::vector<std::uint8_t>> serialSnap(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i)
    serialOut[i] = driveSerial(plans[i], serialSnap[i]);

  // Concurrent run: six client threads, four lanes, a three-session resident
  // cap (forces spool eviction mid-run) and a 97-cycle quantum (forces steps
  // to interleave mid-flight).
  Service::Config cfg;
  cfg.workers = 4;
  cfg.maxResident = 3;
  cfg.quantumCycles = 97;
  Service svc(cfg);
  std::vector<std::string> liveOut(plans.size());
  std::vector<std::vector<std::uint8_t>> liveSnap(plans.size());
  std::vector<std::string> failures(plans.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        liveOut[i] = driveService(svc, plans[i], liveSnap[i]);
      } catch (const std::exception& e) {
        failures[i] = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < plans.size(); ++i) {
    ASSERT_EQ(failures[i], "") << plans[i].sid;
    EXPECT_EQ(liveOut[i], serialOut[i]) << plans[i].sid;
    EXPECT_EQ(liveSnap[i], serialSnap[i]) << plans[i].sid;
  }
  const Service::Stats stats = svc.stats();
  EXPECT_EQ(stats.sessions, 0u);
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.opened, plans.size());
  EXPECT_LE(stats.peakResident, cfg.maxResident);
}

TEST(ServeService, EvictionAndRestoreAreTransparent) {
  // One resident slot, two sessions: every alternating touch spools one out
  // and pages the other in. Reports and snapshots must not notice.
  Service::Config cfg;
  cfg.workers = 1;
  cfg.maxResident = 1;
  cfg.quantumCycles = 50;
  Service svc(cfg);
  svc.open("a", patterns::designSpec("fig1a"), "fig1a", interpreted());
  const std::string a1 = svc.step("a", 300);
  svc.open("b", patterns::designSpec("table1"), "table1", interpreted());
  const std::string b1 = svc.step("b", 300);
  const std::string a2 = svc.step("a", 300);  // restore a, evict b
  const std::string b2 = svc.step("b", 300);  // restore b, evict a
  const std::vector<std::uint8_t> aSnap = svc.snapshot("a");
  const std::vector<std::uint8_t> bSnap = svc.snapshot("b");

  const Service::Stats stats = svc.stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.peakResident, 1u);
  EXPECT_GE(stats.evictions, 3u);
  EXPECT_GE(stats.restores, 2u);

  auto serialA = makeSession("fig1a");
  serialA->step(300);
  EXPECT_EQ(a1, serialA->report());
  serialA->step(300);
  EXPECT_EQ(a2, serialA->report());
  EXPECT_EQ(aSnap, serialA->snapshot());
  auto serialB = makeSession("table1");
  serialB->step(300);
  EXPECT_EQ(b1, serialB->report());
  serialB->step(300);
  EXPECT_EQ(b2, serialB->report());
  EXPECT_EQ(bSnap, serialB->snapshot());

  // Across its evictions, a's tput line is the one-shot CLI's `--tput` line.
  const Netlist fig1a = patterns::designSpec("fig1a").build();
  sim::Simulator oneShot(fig1a, {.checkProtocol = true, .throwOnViolation = false});
  oneShot.run(600);
  const ChannelId pc = fig1a.findChannel("pc.out")->id;
  EXPECT_EQ(svc.tput("a", "pc.out"),
            sim::throughputLine("pc.out", oneShot.throughput(pc)));

  svc.close("a");
  svc.close("b");
  EXPECT_EQ(svc.stats().sessions, 0u);
}

TEST(ServeService, EvictionKeepsAViolationThatSpansIt) {
  // The broken-eb design has a Retry+ violation every fourth cycle, spanning
  // cycle 250 among others. Evicted between two 250-cycle steps, the session
  // must still report the one-shot `--sim 500` run: the spool record carries
  // the monitor's kept cycle.
  const std::string broken =
      "esl 1;\n"
      "node source src width=8 gen=counting;\n"
      "node broken-eb bad width=8;\n"
      "node sink sink width=8 ready=period ready.period=2;\n"
      "channel src.out0 -> bad.in0;\n"
      "channel bad.out0 -> sink.in0;\n";
  SimSession oneShot(frontend::parseEsl(broken, "broken-eb"), "broken-eb", {});
  oneShot.step(500);
  ASSERT_NE(oneShot.report().find("protocol violations: 125\n"), std::string::npos);

  Service::Config cfg;
  cfg.workers = 1;
  cfg.maxResident = 1;
  Service svc(cfg);
  svc.open("bad", frontend::parseEsl(broken, "broken-eb"), "broken-eb", interpreted());
  svc.step("bad", 250);
  svc.open("other", patterns::designSpec("fig1a"), "fig1a", interpreted());
  EXPECT_EQ(svc.stats().evictions, 1u);
  EXPECT_EQ(svc.step("bad", 250), oneShot.report());
  EXPECT_EQ(svc.stats().restores, 1u);
  svc.close("bad");
  svc.close("other");
}

TEST(ServeService, RefusesMoreWorkersThanTheLaneLimit) {
  // The executor checks its lane count before it starts a thread.
  Service::Config cfg;
  cfg.workers = Executor::kMaxLanes + 1;
  EXPECT_THROW(Service svc(cfg), EslError);
}

TEST(ServeService, AdmissionControlRefusesRatherThanGrows) {
  Service::Config cfg;
  cfg.workers = 1;
  cfg.maxResident = 1;
  Service svc(cfg);
  svc.open("pinned", patterns::designSpec("fig1a"), "fig1a", interpreted());
  svc.watch("pinned", {"pc.out"});  // watching pins the session resident

  EXPECT_THROW(
      svc.open("late", patterns::designSpec("fig1b"), "fig1b", interpreted()),
      AdmissionError);
  EXPECT_GE(svc.stats().denied, 1u);
  // The refused open left no residue; the same sid works once a slot frees.
  svc.watch("pinned", {});  // un-pin: now evictable
  svc.open("late", patterns::designSpec("fig1b"), "fig1b", interpreted());
  EXPECT_GE(svc.stats().evictions, 1u);
  auto serial = makeSession("fig1a");
  serial->step(100);
  EXPECT_EQ(svc.step("pinned", 100), serial->report());
  svc.close("pinned");
  svc.close("late");
}

TEST(ServeService, BackPressureParksWithoutChangingTheStream) {
  auto serial = makeSession("fig1a");
  serial->watch({"pc.out", "mux.out"});
  serial->step(400);
  const std::string serialStream = serial->drainStream();
  const std::string serialReport = serial->report();

  // High-water far below the 400-cycle stream: the session must park many
  // times and only finish because the drainer keeps pulling.
  Service::Config cfg;
  cfg.workers = 2;
  cfg.quantumCycles = 16;
  cfg.streamHighWater = 256;
  Service svc(cfg);
  svc.open("s", patterns::designSpec("fig1a"), "fig1a", interpreted());
  svc.watch("s", {"pc.out", "mux.out"});
  auto stepDone = std::async(std::launch::async,
                             [&] { return svc.step("s", 400); });
  std::string stream;
  bool more = true;
  while (stepDone.wait_for(std::chrono::milliseconds(1)) !=
         std::future_status::ready) {
    stream += svc.drain("s", 96, &more);
    if (!more) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The step's last quantum may have filled the outbox after the last drain
  // above found it empty: once the step is done, drain to exhaustion.
  do {
    stream += svc.drain("s", 96, &more);
  } while (more);
  EXPECT_EQ(stepDone.get(), serialReport);
  EXPECT_EQ(stream, serialStream);
  svc.close("s");
}

TEST(ServeService, CloseAbortsARunningStepAtAQuantumBoundary) {
  Service::Config cfg;
  cfg.workers = 2;
  cfg.quantumCycles = 200;
  Service svc(cfg);
  svc.open("s", patterns::designSpec("fig1a"), "fig1a", interpreted());
  auto bigStep = std::async(std::launch::async,
                            [&] { return svc.step("s", 50'000'000); });
  // A query would serialize behind the step in the session FIFO, so just give
  // the step time to claim the session, then close underneath it. Every
  // interleaving (close before, during, or after the step's first quantum)
  // must abort the step with "session closed" — never run it to completion.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  svc.close("s");  // must return: the turn aborts at its next boundary
  EXPECT_THROW(bigStep.get(), NotFoundError);
  EXPECT_TRUE(svc.sessionIds().empty());
}

TEST(ServeService, UnknownAndInvalidSessionsFailCleanly) {
  Service::Config cfg;
  cfg.workers = 1;
  Service svc(cfg);
  EXPECT_THROW(svc.step("ghost", 10), NotFoundError);
  EXPECT_THROW(svc.close("ghost"), NotFoundError);
  EXPECT_THROW(svc.open("bad id!", patterns::designSpec("fig1a"), "fig1a",
                        interpreted()),
               EslError);
  svc.open("dup", patterns::designSpec("fig1a"), "fig1a", interpreted());
  EXPECT_THROW(
      svc.open("dup", patterns::designSpec("fig1a"), "fig1a", interpreted()),
      EslError);
  EXPECT_THROW(svc.open("oops", patterns::designSpec("no-such-design"),
                        "no-such-design", interpreted()),
               EslError);
  svc.close("dup");
}

// --- Server + Client over a Unix socket ------------------------------------

std::string testSocketPath(const std::string& tag) {
  return "/tmp/esl-serve-ut-" + std::to_string(::getpid()) + "-" + tag +
         ".sock";
}

struct ServerFixture {
  explicit ServerFixture(const std::string& tag,
                         std::uint64_t maxPayload = kMaxPayloadBytes) {
    Server::Config cfg;
    cfg.socketPath = testSocketPath(tag);
    cfg.maxPayloadBytes = maxPayload;
    cfg.service.workers = 2;
    server = std::make_unique<Server>(std::move(cfg));
    thread = std::thread([this] { server->run(); });
  }
  ~ServerFixture() {
    server->requestStop();
    if (thread.joinable()) thread.join();
  }
  std::unique_ptr<Server> server;
  std::thread thread;
};

int rawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  return fd;
}

TEST(ServeWire, EndToEndMatchesDirectSessions) {
  ServerFixture fx("e2e");
  Client client(fx.server->socketPath());

  auto serial = makeSession("fig1a", compiled(2));
  serial->step(1000);
  const std::string status =
      client.openDesign("s1", "fig1a", compiled(2));
  EXPECT_NE(status.find("s1"), std::string::npos);
  EXPECT_EQ(client.step("s1", 1000), serial->report());
  EXPECT_EQ(client.tput("s1", "pc.out"), serial->tputLine("pc.out"));
  EXPECT_EQ(client.cycle("s1"), 1000u);
  EXPECT_EQ(client.sinks("s1"), serial->report());
  const std::vector<std::uint8_t> snap = client.snapshot("s1");
  EXPECT_EQ(snap, serial->snapshot());

  // Inline `.esl` upload (payload path), then snapshot restore over the wire.
  const std::string esl = frontend::printEsl(patterns::designSpec("fig1a"));
  client.openEsl("s2", esl, "fig1a.esl", compiled(2));
  client.restore("s2", snap);
  EXPECT_EQ(client.cycle("s2"), 1000u);
  auto restored = makeSession("fig1a", compiled(2));
  restored->restore(snap);
  restored->step(500);
  EXPECT_EQ(client.step("s2", 500), restored->report());
  EXPECT_EQ(client.cmd("s2", "channels"), restored->command("channels"));

  client.close("s1");
  client.close("s2");
  const json::Value stats = client.stats();
  EXPECT_EQ(stats.find("sessions")->asU64(), 0u);
  EXPECT_EQ(stats.find("opened")->asU64(), 2u);
  client.shutdownServer();  // acknowledged before the server tears down
}

TEST(ServeWire, StepSnapshotAndRestoreReplyWithTheCycleOfTheirOwnOp) {
  ServerFixture fx("cycle");
  Client client(fx.server->socketPath());
  client.openDesign("s", "fig1a");
  const auto ops = [&] { return client.stats().find("ops")->asU64(); };
  const auto head = [](const std::string& op) {
    json::Value h = json::Value::object();
    h.set("op", json::Value::str(op));
    h.set("session", json::Value::str("s"));
    return h;
  };
  // Each reply's cycle is read by the queued op that did the work, so every
  // frame costs the session exactly one op.
  std::uint64_t before = ops();
  json::Value step = head("step");
  step.set("cycles", json::Value::number(std::uint64_t{10}));
  EXPECT_EQ(client.request(step).find("cycle")->asU64(), 10u);
  EXPECT_EQ(ops(), before + 1);

  before = ops();
  std::string snap;
  EXPECT_EQ(client.request(head("snapshot"), {}, &snap).find("cycle")->asU64(),
            10u);
  EXPECT_EQ(ops(), before + 1);

  client.step("s", 5);
  before = ops();
  EXPECT_EQ(client.request(head("restore"), snap).find("cycle")->asU64(), 10u);
  EXPECT_EQ(ops(), before + 1);
  client.close("s");
}

TEST(ServeWire, ServerErrorsCarryStructuredKinds) {
  ServerFixture fx("kinds");
  Client client(fx.server->socketPath());
  const auto expectKind = [](const std::function<void()>& op,
                             const std::string& kind) {
    try {
      op();
      FAIL() << "expected a '" << kind << "' failure";
    } catch (const EslError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(kind + ":", 0), 0u) << e.what();
    }
  };
  expectKind([&] { client.step("ghost", 5); }, "not-found");
  expectKind([&] { client.openEsl("s", "channel oops", "bad.esl"); }, "parse");
  expectKind([&] { client.restore("ghost2", {1, 2, 3}); }, "not-found");
  client.openDesign("s", "fig1a");
  expectKind([&] { client.restore("s", {1, 2, 3}); }, "error");
  expectKind([&] { client.cmd("s", "sim 100"); }, "error");
  // A failed request leaves the session usable.
  EXPECT_EQ(client.cycle("s"), 0u);
  client.close("s");
}

TEST(ServeWire, RejectedRestoreKeepsTheSessionInStep) {
  ServerFixture fx("torn");
  Client client(fx.server->socketPath());
  client.openDesign("s", "fig1d", compiled(2));
  client.openDesign("twin", "fig1d", compiled(2));
  client.step("s", 100);
  std::vector<std::uint8_t> torn = client.snapshot("s");
  torn.resize(torn.size() - 3);
  client.step("s", 37);
  client.step("twin", 137);
  try {
    client.restore("s", torn);
    FAIL() << "a truncated snapshot was accepted";
  } catch (const EslError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("error:", 0), 0u) << e.what();
  }
  EXPECT_EQ(client.cycle("s"), 137u);
  EXPECT_EQ(client.step("s", 200), client.step("twin", 200));
  EXPECT_EQ(client.snapshot("s"), client.snapshot("twin"));
  client.close("s");
  client.close("twin");
}

TEST(ServeWire, OpenAboveTheShardLimitGetsAnErrorAndServingGoesOn) {
  ServerFixture fx("shards");
  const int fd = rawConnect(fx.server->socketPath());
  FrameReader reader(fd);
  Frame f;
  ASSERT_TRUE(reader.read(f));  // greeting
  json::Value hello = json::Value::object();
  hello.set("id", json::Value::number(std::uint64_t{1}));
  hello.set("op", json::Value::str("hello"));
  hello.set("proto", json::Value::number(kProtocolVersion));
  writeFrame(fd, hello);
  ASSERT_TRUE(reader.read(f));
  ASSERT_TRUE(f.head.find("ok")->asBool());
  // Only counts the daemon refuses before it starts a thread; the middle one
  // would wrap to 2 if narrowed unchecked, the last is JSON's largest exact
  // integer.
  std::uint64_t id = 2;
  for (const std::uint64_t shards :
       {std::uint64_t{Executor::kMaxLanes} + 1, (std::uint64_t{1} << 32) | 2,
        (std::uint64_t{1} << 53) - 1}) {
    json::Value open = json::Value::object();
    open.set("id", json::Value::number(id++));
    open.set("op", json::Value::str("open"));
    open.set("session", json::Value::str("wide"));
    open.set("design", json::Value::str("fig1a"));
    open.set("shards", json::Value::number(shards));
    writeFrame(fd, open);
    ASSERT_TRUE(reader.read(f)) << shards;
    EXPECT_FALSE(f.head.find("ok")->asBool()) << shards;
    EXPECT_NE(f.head.find("error")->find("message")->asString().find("above the limit"),
              std::string::npos)
        << shards;
  }
  ::close(fd);
  // The daemon keeps serving.
  Client client(fx.server->socketPath());
  client.openDesign("ok", "fig1a");
  auto serial = makeSession("fig1a");
  serial->step(100);
  EXPECT_EQ(client.step("ok", 100), serial->report());
  EXPECT_EQ(client.stats().find("sessions")->asU64(), 1u);
  client.close("ok");
}

TEST(ServeWire, HandshakeRejectsVersionMismatch) {
  ServerFixture fx("proto");
  const int fd = rawConnect(fx.server->socketPath());
  FrameReader reader(fd);
  Frame f;
  ASSERT_TRUE(reader.read(f));  // greeting
  EXPECT_EQ(f.head.find("serve")->asString(), "esl");
  EXPECT_EQ(f.head.find("proto")->asU64(), kProtocolVersion);

  json::Value hello = json::Value::object();
  hello.set("id", json::Value::number(std::uint64_t{1}));
  hello.set("op", json::Value::str("hello"));
  hello.set("proto", json::Value::number(std::uint64_t{999}));
  writeFrame(fd, hello);
  ASSERT_TRUE(reader.read(f));
  EXPECT_FALSE(f.head.find("ok")->asBool());
  EXPECT_EQ(f.head.find("error")->find("kind")->asString(), "protocol");
  EXPECT_FALSE(reader.read(f));  // server hung up after answering
  ::close(fd);
}

TEST(ServeWire, FirstRequestMustBeHello) {
  ServerFixture fx("hello");
  const int fd = rawConnect(fx.server->socketPath());
  FrameReader reader(fd);
  Frame f;
  ASSERT_TRUE(reader.read(f));  // greeting
  json::Value req = json::Value::object();
  req.set("id", json::Value::number(std::uint64_t{1}));
  req.set("op", json::Value::str("stats"));
  writeFrame(fd, req);
  ASSERT_TRUE(reader.read(f));
  EXPECT_FALSE(f.head.find("ok")->asBool());
  EXPECT_EQ(f.head.find("error")->find("kind")->asString(), "protocol");
  EXPECT_FALSE(reader.read(f));
  ::close(fd);
}

TEST(ServeWire, MalformedJsonGetsAnErrorFrameThenHangup) {
  ServerFixture fx("badjson");
  const int fd = rawConnect(fx.server->socketPath());
  FrameReader reader(fd);
  Frame f;
  ASSERT_TRUE(reader.read(f));  // greeting
  const char junk[] = "this is not json\n";
  ASSERT_GT(::write(fd, junk, sizeof junk - 1), 0);
  ASSERT_TRUE(reader.read(f));
  EXPECT_FALSE(f.head.find("ok")->asBool());
  EXPECT_EQ(f.head.find("error")->find("kind")->asString(), "parse");
  EXPECT_FALSE(reader.read(f));  // connection dropped
  ::close(fd);
}

TEST(ServeWire, ShutdownClosesEverySession) {
  ServerFixture fx("shutdown");
  {
    Client a(fx.server->socketPath());
    a.openDesign("left-open", "fig1a");
    a.step("left-open", 100);
    Client b(fx.server->socketPath());
    b.shutdownServer();  // another connection's sessions get torn down too
  }
  fx.thread.join();  // run() returns only once the service is empty
  EXPECT_TRUE(fx.server->service().sessionIds().empty());
  EXPECT_EQ(fx.server->service().stats().resident, 0u);
}

TEST(ServeWire, OversizedDeclaredPayloadGetsAStructuredError) {
  // Server configured with a 1 KiB frame cap: a request declaring a bigger
  // payload is answered with a structured protocol error — no hang while
  // "waiting" for bytes that will never come, no allocation of the claim.
  ServerFixture fx("cap", /*maxPayload=*/1024);
  const int fd = rawConnect(fx.server->socketPath());
  FrameReader reader(fd);
  Frame f;
  ASSERT_TRUE(reader.read(f));  // greeting
  json::Value hello = json::Value::object();
  hello.set("id", json::Value::number(std::uint64_t{1}));
  hello.set("op", json::Value::str("hello"));
  hello.set("proto", json::Value::number(kProtocolVersion));
  writeFrame(fd, hello);
  ASSERT_TRUE(reader.read(f));
  ASSERT_TRUE(f.head.find("ok")->asBool());
  const char big[] =
      "{\"id\":2,\"op\":\"restore\",\"session\":\"s\",\"bytes\":999999999}\n";
  ASSERT_GT(::write(fd, big, sizeof big - 1), 0);
  ASSERT_TRUE(reader.read(f));
  EXPECT_FALSE(f.head.find("ok")->asBool());
  EXPECT_EQ(f.head.find("error")->find("kind")->asString(), "protocol");
  EXPECT_FALSE(reader.read(f));  // connection dropped after the error
  ::close(fd);
}

TEST(ServeWire, ClientDistinguishesConnectFailureFromServerDeath) {
  // No daemon at all: ConnectError, after the configured retries.
  Client::Options quick;
  quick.retries = 1;
  quick.backoffMs = 1;
  EXPECT_THROW(Client(testSocketPath("nobody-home"), quick), ConnectError);

  // Daemon dies under a connected client: ConnectionLostError, not a hang.
  ServerFixture fx("dies");
  Client client(fx.server->socketPath());
  client.openDesign("s", "fig1a");
  fx.server->requestStop();
  fx.thread.join();  // sessions closed, connection fds shut down
  EXPECT_THROW(client.step("s", 10), ConnectionLostError);
}

TEST(ServeWire, ClientRefusesARetryCountAboveItsTypeBeforeConnecting) {
  // 4294967297 would narrow to 1 retry: the client must refuse it as a usage
  // error (exit 1) naming the flag and the limit, not try a missing socket
  // (exit 3).
  const std::string socket = testSocketPath("no-daemon");
  std::vector<std::string> args = {"--socket", socket, "--retries", "4294967297",
                                   "--backoff", "1"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  testing::internal::CaptureStderr();
  const int code = clientMain(static_cast<int>(argv.size()), argv.data());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1) << err;
  EXPECT_NE(err.find("--retries"), std::string::npos) << err;
  EXPECT_NE(err.find("4294967295"), std::string::npos) << err;
}

TEST(ServeWire, ServeRefusesAZeroCapOrQuantumAsAUsageError) {
  // Refused while the flags are parsed (exit 1, naming the flag), before a
  // socket is bound.
  const std::string socket = testSocketPath("zero");
  for (const std::string flag : {"--max-resident", "--quantum"}) {
    std::vector<std::string> args = {"--socket", socket, flag, "0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    testing::internal::CaptureStderr();
    const int code = serveMain(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << err;
    EXPECT_NE(err.find(flag + " must be at least 1"), std::string::npos) << err;
  }
}

TEST(ServeWire, ReplyDeadlineSurfacesAsTimeout) {
  ServerFixture fx("slow");
  Client::Options opts;
  opts.timeoutMs = 60;
  Client client(fx.server->socketPath(), opts);
  client.openDesign("s", "fig1a");
  // A step far larger than 60 ms of simulation: the reply deadline fires as
  // TimeoutError (exit code 4 in `esl client`), not a silent forever-wait.
  EXPECT_THROW(client.step("s", 200'000'000), TimeoutError);
}

}  // namespace
}  // namespace esl::serve
