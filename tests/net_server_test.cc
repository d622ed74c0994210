// End-to-end tests for the network plane (src/net): real sockets against
// NetServer, the dispatcher's batched-persist equivalence guarantee, fault
// semantics over the wire, and the reactor passthrough.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

#include "gtest/gtest.h"
#include "obs/reqtrace.h"
#include "obs/resource/resource_accountant.h"
#include "obs/resource/slo_tracker.h"
#include "obs/timeseries.h"
#include "faults/fault_ids.h"
#include "net/dispatcher.h"
#include "net/protocol.h"
#include "net/server.h"
#include "reactor/reactor_server.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"

namespace arthas {
namespace net {
namespace {

// Minimal blocking client: sends raw bytes, reads RESP-framed replies.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return;
    }
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~TestClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until `want` replies arrived (appended to the running tally) or
  // the timeout expires. Returns the replies collected this call.
  std::vector<NetReply> ReadReplies(size_t want, int timeout_ms = 5000) {
    std::vector<NetReply> replies;
    char buf[4096];
    while (replies.size() < want && timeout_ms > 0) {
      pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 50);
      timeout_ms -= 50;
      if (ready <= 0) {
        continue;
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;  // peer closed
      }
      parser_.Feed(buf, static_cast<size_t>(n), &replies);
    }
    return replies;
  }

  // True when the server closed the connection (read() returns 0).
  bool ReadEof(int timeout_ms = 5000) {
    char buf[256];
    while (timeout_ms > 0) {
      pollfd pfd = {fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 50);
      timeout_ms -= 50;
      if (ready <= 0) {
        continue;
      }
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) {
        return true;
      }
      if (n < 0) {
        return false;
      }
    }
    return false;
  }

  void CloseAbruptly() {
    ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  ReplyParser parser_;
};

TEST(NetServerTest, KvCommandsOverRealSocket) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServerOptions options;
  options.loop_threads = 2;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("PING\nSET user1 hello\nGET user1\nGET nosuch\n"
                          "DEL user1\nDEL user1\n"));
  std::vector<NetReply> replies = client.ReadReplies(6);
  ASSERT_EQ(replies.size(), 6u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kSimple);
  EXPECT_EQ(replies[0].text, "PONG");
  EXPECT_EQ(replies[1].kind, NetReply::Kind::kSimple);
  EXPECT_EQ(replies[1].text, "OK");
  EXPECT_EQ(replies[2].kind, NetReply::Kind::kBulk);
  EXPECT_EQ(replies[2].text, "hello");
  EXPECT_EQ(replies[3].kind, NetReply::Kind::kNil);
  EXPECT_EQ(replies[4].kind, NetReply::Kind::kInteger);
  EXPECT_EQ(replies[4].integer, 1);
  EXPECT_EQ(replies[5].kind, NetReply::Kind::kInteger);
  EXPECT_EQ(replies[5].integer, 0);

  // QUIT answers +BYE and the server closes the connection.
  ASSERT_TRUE(client.Send("QUIT\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].text, "BYE");
  EXPECT_TRUE(client.ReadEof());

  server.Stop();
  EXPECT_FALSE(mc.last_fault().has_value());
}

TEST(NetServerTest, PipeliningPreservesReplyOrder) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // One write: 32 SETs then 32 GETs. Replies must come back by position.
  std::string bytes;
  for (int i = 0; i < 32; i++) {
    bytes += "SET user" + std::to_string(i) + " v" + std::to_string(i) + "\n";
  }
  for (int i = 0; i < 32; i++) {
    bytes += "GET user" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(client.Send(bytes));
  const std::vector<NetReply> replies = client.ReadReplies(64);
  ASSERT_EQ(replies.size(), 64u);
  for (int i = 0; i < 32; i++) {
    EXPECT_EQ(replies[static_cast<size_t>(i)].text, "OK") << "SET " << i;
    const NetReply& get = replies[static_cast<size_t>(32 + i)];
    EXPECT_EQ(get.kind, NetReply::Kind::kBulk) << "GET " << i;
    EXPECT_EQ(get.text, "v" + std::to_string(i)) << "GET " << i;
  }
  server.Stop();
}

TEST(NetServerTest, PipelinedRunExecutesInChunks) {
  // One write of 10 commands against max_batch_commands = 4: the read runs
  // as chunks of at most 4 commands, each its own batch, executed in place.
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServerOptions options;
  options.loop_threads = 1;
  options.max_batch_commands = 4;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());
  obs::RequestTracePlane& plane = obs::RequestTracePlane::Global();
  const uint64_t traced_before = plane.total_traced();

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // SETs and GETs interleaved so that most GETs read a key set in an
  // earlier chunk, and key 1 is overwritten before its last read.
  const char* const kLines[] = {
      "SET k0 a0", "SET k1 a1", "GET k0",    "SET k2 a2", "GET k1",
      "SET k1 b1", "GET k2",    "GET k1",    "SET k3 a3", "GET k3"};
  const char* const kWant[] = {"OK", "OK", "a0", "OK", "a1",
                               "OK", "a2", "b1", "OK", "a3"};
  std::string bytes;
  for (const char* line : kLines) {
    bytes += std::string(line) + "\n";
  }
  ASSERT_TRUE(client.Send(bytes));
  const std::vector<NetReply> replies = client.ReadReplies(10);
  ASSERT_EQ(replies.size(), 10u);
  for (size_t i = 0; i < 10; i++) {
    EXPECT_EQ(replies[i].text, kWant[i]) << kLines[i];
  }
  // Stop joins the loop thread, which commits the traces after its write.
  server.Stop();
  EXPECT_FALSE(mc.last_fault().has_value());

#ifndef ARTHAS_OBS_DISABLED
  EXPECT_EQ(plane.total_traced() - traced_before, 10u);
  std::vector<obs::RequestTrace> traces = plane.SnapshotRings();
  traces.erase(std::remove_if(traces.begin(), traces.end(),
                              [&](const obs::RequestTrace& t) {
                                return t.seq <= traced_before;
                              }),
               traces.end());
  ASSERT_EQ(traces.size(), 10u);
  for (size_t i = 0; i < traces.size(); i++) {
    const obs::RequestTrace& t = traces[i];
    EXPECT_EQ(t.StageSumNs(), t.EndToEndNs()) << kLines[i];
    EXPECT_GE(t.trace_id, obs::RequestTracePlane::kServerIdBase);
    EXPECT_EQ(t.op, static_cast<uint8_t>(kLines[i][0] == 'S' ? NetOp::kSet
                                                              : NetOp::kGet))
        << kLines[i];
  }
#else
  (void)traced_before;
#endif
}

// The perf path must not change semantics: a pipelined run executed as one
// batched-persist batch leaves the same replies and a bit-identical durable
// image as the same commands executed one-by-one with per-store persists
// (the closed-loop drivers' behaviour).
TEST(NetDispatcherTest, BatchedPipelineMatchesUnpipelinedDurableImage) {
  std::vector<std::string> lines;
  for (int i = 0; i < 120; i++) {
    const std::string key = "user" + std::to_string(i % 17);
    switch (i % 5) {
      case 0:
      case 1:
        lines.push_back("SET " + key + " value" + std::to_string(i));
        break;
      case 2:
        lines.push_back("GET " + key);
        break;
      case 3:
        lines.push_back("APPEND " + key + " x");
        break;
      default:
        lines.push_back("DEL " + key);
        break;
    }
  }
  std::vector<NetCommand> commands;
  commands.reserve(lines.size());
  for (const std::string& line : lines) {
    commands.push_back(ParseRequestLine(line));
  }

  MemcachedMini batched_mc;
  NetDispatcher::Options batched_options;
  batched_options.batch_persists = true;
  NetDispatcher batched(batched_mc, nullptr, batched_options);
  std::string batched_replies;
  // Pipelined: chunks of 16 commands, each one lock + section + drain.
  for (size_t i = 0; i < commands.size(); i += 16) {
    const size_t end = std::min(commands.size(), i + 16);
    std::vector<NetCommand> chunk(commands.begin() + i, commands.begin() + end);
    batched.ExecuteBatch(chunk, &batched_replies);
  }

  MemcachedMini plain_mc;
  NetDispatcher::Options plain_options;
  plain_options.batch_persists = false;
  NetDispatcher plain(plain_mc, nullptr, plain_options);
  std::string plain_replies;
  for (const NetCommand& command : commands) {
    plain.ExecuteBatch(std::span(&command, 1), &plain_replies);
  }

  EXPECT_EQ(batched_replies, plain_replies);
  EXPECT_EQ(batched_mc.ItemCount(), plain_mc.ItemCount());
  EXPECT_TRUE(batched_mc.CheckConsistency().ok());
  EXPECT_TRUE(plain_mc.CheckConsistency().ok());
  EXPECT_FALSE(batched_mc.last_fault().has_value());
  EXPECT_FALSE(plain_mc.last_fault().has_value());
  EXPECT_EQ(batched_mc.pool().device().SnapshotDurable(),
            plain_mc.pool().device().SnapshotDurable())
      << "durable image differs between batched and per-op persists";
}

TEST(NetServerTest, GarbageAndOversizedLinesDoNotLatchFault) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServerOptions options;
  options.max_line_bytes = 128;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // Unknown verb, wrong arity, and an oversized line each answer -ERR; the
  // connection stays usable and the served system never sees a fault.
  ASSERT_TRUE(client.Send("BLARGH what is this\nGET\n"));
  std::vector<NetReply> replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kError);
  EXPECT_EQ(replies[1].kind, NetReply::Kind::kError);

  ASSERT_TRUE(client.Send(std::string(1000, 'x') + "\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kError);

  ASSERT_TRUE(client.Send("PING\nSET user1 still-works\nGET user1\n"));
  replies = client.ReadReplies(3);
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].text, "PONG");
  EXPECT_EQ(replies[2].text, "still-works");

  EXPECT_FALSE(mc.last_fault().has_value());
  server.Stop();
}

TEST(NetServerTest, TeardownMidRequestLeavesServerServing) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  {
    TestClient abandoner(server.port());
    ASSERT_TRUE(abandoner.connected());
    // Half a request, no newline, then an abrupt close.
    ASSERT_TRUE(abandoner.Send("SET user1 aband"));
    abandoner.CloseAbruptly();
  }

  // The server must shrug it off: a new client gets full service and the
  // half-written SET never executed.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("GET user1\nPING\n"));
  const std::vector<NetReply> replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kNil);
  EXPECT_EQ(replies[1].text, "PONG");

  // The accept counter trails the loop thread; give it a bounded moment.
  for (int i = 0; i < 100 && server.connections_accepted() < 2; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.connections_accepted(), 2u);
  EXPECT_FALSE(mc.last_fault().has_value());
  server.Stop();
  EXPECT_EQ(server.connections_open(), 0u);
}

TEST(NetServerTest, ReactorStatsHealthExplainOverSocket) {
  // Latch a real f2 fault and ingest the trace, exactly like the in-process
  // reactor tests — then ask for the explanation over the wire.
  MemcachedMini mc;
  mc.ArmFault(FaultId::kF2FlushAllLogic);
  Request put;
  put.op = Request::Op::kPut;
  put.key = "a";
  put.value = "1";
  ASSERT_TRUE(mc.Handle(put).status.ok());
  Request flush;
  flush.op = Request::Op::kFlushAll;
  flush.int_arg = 600;
  ASSERT_TRUE(mc.Handle(flush).status.ok());
  Request get = {};
  get.op = Request::Op::kGet;
  get.key = "a";
  get.must_exist = true;
  mc.Handle(get);
  ASSERT_TRUE(mc.last_fault().has_value());

  ReactorServer reactor(mc.ir_model(), mc.guid_registry());
  ASSERT_TRUE(reactor.IngestTrace(mc.tracer().Serialize()).ok());
  auto substrate = MakeSubstrate(SubstrateKind::kArthasCheckpoint);
  ASSERT_TRUE(substrate->Attach(mc.pool()).ok());
  reactor.set_active_substrate(substrate.get());

  NetDispatcher dispatcher(mc, &reactor);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  ASSERT_TRUE(client.Send("STATS\nHEALTH net.ops.ok\n"));
  std::vector<NetReply> replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_EQ(replies[0].kind, NetReply::Kind::kBulk);
  EXPECT_TRUE(StatsResponse::Parse(replies[0].text).ok());
  ASSERT_EQ(replies[1].kind, NetReply::Kind::kBulk);
  auto health = HealthResponse::Parse(replies[1].text);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->substrate, "arthas");

  MitigationRequest request;
  request.fault = *mc.last_fault();
  ASSERT_TRUE(client.Send("EXPLAIN " + request.Serialize() + "\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].kind, NetReply::Kind::kBulk);
  auto explain = ExplainResponse::Parse(replies[0].text);
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->substrate, "arthas");
  EXPECT_TRUE(explain->revert_capable);

  server.Stop();
  reactor.set_active_substrate(nullptr);
  substrate->Detach();
}

TEST(NetServerTest, CapacityOverSocket) {
  MemcachedMini mc;
  ReactorServer reactor(mc.ir_model(), mc.guid_registry());
  NetDispatcher dispatcher(mc, &reactor);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  // Give the capacity plane something to report: a budgeted cell plus a
  // long sampler series the analyzer can classify.
  obs::ResourceAccountant& accountant = obs::ResourceAccountant::Global();
  accountant.GetCell("test.socket.cell", "bytes").Set(512);
  accountant.SetBudget("test.socket.cell", 1 << 20);

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("CAPACITY\n"));
  std::vector<NetReply> replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].kind, NetReply::Kind::kBulk);
  auto capacity = CapacityResponse::Parse(replies[0].text);
  ASSERT_TRUE(capacity.ok());
  EXPECT_TRUE(capacity->accountant_enabled);

  bool saw_cell = false;
  bool saw_rss = false;
  for (const obs::ResourceCellSnapshot& cell : capacity->cells) {
    if (cell.name == "test.socket.cell") {
      saw_cell = true;
      EXPECT_EQ(cell.value, 512);
      EXPECT_EQ(cell.budget, 1 << 20);
    }
    if (cell.name == "process.rss.bytes") {
      saw_rss = true;
      EXPECT_GT(cell.value, 0);
    }
  }
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_rss);

  // A prefix argument narrows the fitted series (none here: the global
  // sampler has no "no.such." series, so zero verdicts is the answer).
  ASSERT_TRUE(client.Send("CAPACITY no.such.prefix.\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  auto narrowed = CapacityResponse::Parse(replies[0].text);
  ASSERT_TRUE(narrowed.ok());
  EXPECT_TRUE(narrowed->verdicts.empty());

  server.Stop();
  accountant.GetCell("test.socket.cell").Set(0);
}

TEST(NetServerTest, CapacityWireRoundTrip) {
  CapacityResponse response;
  response.accountant_enabled = false;
  obs::ResourceCellSnapshot cell;
  cell.name = "checkpoint.arena.bytes";
  cell.unit = "bytes";
  cell.value = 1 << 20;
  cell.budget = 1 << 26;
  response.cells.push_back(cell);
  obs::GrowthVerdict verdict;
  verdict.series = "resource.checkpoint.arena.bytes";
  verdict.cls = obs::GrowthClass::kLinearGrowth;
  verdict.slope_per_sec = 1234.5;
  verdict.last_value = 1 << 20;
  verdict.budget = 1 << 26;
  verdict.time_to_budget_sec = 53538.4;
  verdict.points = 300;
  verdict.window_ns = 300LL * 1000 * 1000 * 1000;
  response.verdicts.push_back(verdict);

  const auto parsed = CapacityResponse::Parse(response.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->accountant_enabled);
  ASSERT_EQ(parsed->cells.size(), 1u);
  EXPECT_EQ(parsed->cells[0].name, "checkpoint.arena.bytes");
  EXPECT_EQ(parsed->cells[0].budget, 1 << 26);
  ASSERT_EQ(parsed->verdicts.size(), 1u);
  EXPECT_EQ(parsed->verdicts[0].cls, obs::GrowthClass::kLinearGrowth);
  EXPECT_NEAR(parsed->verdicts[0].time_to_budget_sec, 53538.4, 0.001);
  EXPECT_EQ(parsed->verdicts[0].window_ns, 300LL * 1000 * 1000 * 1000);

  EXPECT_FALSE(CapacityResponse::Parse("not a capacity response").ok());
  // Request side: "-" and bare both mean the default prefix.
  auto request = CapacityRequest::Parse("-");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->prefix, "resource.");
  request = CapacityRequest::Parse("");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->prefix, "resource.");
  request = CapacityRequest::Parse("slo.");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->prefix, "slo.");
  EXPECT_FALSE(CapacityRequest::Parse("two tokens").ok());
}

TEST(NetServerTest, HealthCarriesSloVerdictOverSocket) {
  MemcachedMini mc;
  ReactorServer reactor(mc.ir_model(), mc.guid_registry());
  NetDispatcher dispatcher(mc, &reactor);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  // Unconfigured tracker: health reports "no SLO knowledge" (-1).
  obs::SloTracker::Global().Clear();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("HEALTH net.ops.ok\n"));
  std::vector<NetReply> replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  auto health = HealthResponse::Parse(replies[0].text);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->slo_breached, -1);

  // Configured and quiet: breached reads 0, and the verdict stays ruled
  // by the fault timeline.
  obs::SloTracker::Global().Configure(obs::DefaultNetSloTargets());
  ASSERT_TRUE(client.Send("HEALTH net.ops.ok\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  health = HealthResponse::Parse(replies[0].text);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->slo_breached, 0);

  // Older-peer compatibility: a response without the trailing SLO tokens
  // still parses (and without the substrate token before them, too).
  auto old_peer = HealthResponse::Parse("0 1 0 -1 -1 0 arthas");
  ASSERT_TRUE(old_peer.ok());
  EXPECT_EQ(old_peer->substrate, "arthas");
  EXPECT_EQ(old_peer->slo_breached, -1);
  old_peer = HealthResponse::Parse("0 1 0 -1 -1 0");
  ASSERT_TRUE(old_peer.ok());
  EXPECT_EQ(old_peer->substrate, "-");

  server.Stop();
  obs::SloTracker::Global().Clear();
}

TEST(NetServerTest, ReactorPassthroughWithoutReactorAnswersErr) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("STATS\n"));
  const std::vector<NetReply> replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kError);
  server.Stop();
}

TEST(NetServerTest, HardFaultAnswersFaultAndHookRecovers) {
  // f4's corruption is durable, so a bare restart re-latches the fault —
  // the on_fault hook must run the real mitigation (reactor reversion +
  // re-execution), the same flow bench_netplane's fault scenario drives.
  MemcachedMini mc;
  mc.tracer().set_enabled(true);
  mc.ArmFault(FaultId::kF4AppendIntOverflow);
  auto substrate = MakeSubstrate(SubstrateKind::kArthasCheckpoint);
  ASSERT_TRUE(substrate->Attach(mc.pool()).ok());
  mc.set_substrate(substrate.get());
  ReactorServer reactor(mc.ir_model(), mc.guid_registry());
  reactor.set_active_substrate(substrate.get());
  VirtualClock clock;

  auto reexecute = [&mc]() {
    (void)mc.Restart();
    Request get;
    get.op = Request::Op::kGet;
    get.key = "f4victim";
    (void)mc.Handle(get);
    RunObservation observation;
    observation.fault = mc.last_fault();
    observation.item_count = mc.ItemCount();
    return observation;
  };
  std::atomic<int> recoveries{0};
  NetDispatcher::Options options;
  options.on_fault = [&](const FaultInfo& fault) {
    mc.DisarmFaults();  // the mitigated "binary" no longer carries the bug
    ASSERT_TRUE(reactor.IngestTrace(mc.tracer().Serialize()).ok());
    MitigationRequest request;
    request.fault = fault;
    const MitigationOutcome outcome =
        reactor.Execute(request, *substrate, mc, reexecute, clock);
    if (outcome.recovered) {
      recoveries.fetch_add(1);
    }
  };
  NetDispatcher dispatcher(mc, &reactor, options);
  NetServer server(dispatcher);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  // One write = one pipelined batch = one request-lock hold, so the two
  // fresh allocations are buddy-adjacent and the armed APPEND overflows
  // into its neighbour (the f4 recipe of harness/experiment.cc).
  std::string trigger;
  trigger += "SET appendee " + std::string(200, 'a') + "\n";
  trigger += "SET f4victim " + std::string(210, 'v') + "\n";
  trigger += "APPEND appendee " + std::string(100, 'b') + "\n";
  trigger += "GET f4victim\n";
  ASSERT_TRUE(client.Send(trigger));
  std::vector<NetReply> replies = client.ReadReplies(4);
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].text, "OK");
  EXPECT_EQ(replies[1].text, "OK");

  // Reading the appendee's clobbered chain latches the hard fault: the
  // faulting command and the rest of its batch answer -FAULT (a dead
  // process executes nothing further), then the hook mitigates before the
  // next batch takes the request lock.
  ASSERT_TRUE(client.Send("GET appendee\nGET f4victim\n"));
  replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kFault);
  EXPECT_EQ(replies[1].kind, NetReply::Kind::kFault);

  // Same connection, next batch: the system is live again.
  ASSERT_TRUE(client.Send("PING\nGET f4victim\n"));
  replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].text, "PONG");
  EXPECT_TRUE(replies[1].ok());
  EXPECT_EQ(recoveries.load(), 1);
  EXPECT_FALSE(mc.last_fault().has_value());
  server.Stop();
  mc.set_substrate(nullptr);
  substrate->Detach();
}

TEST(NetServerTest, ConcurrentClientsHammer) {
  // Thread-safety smoke for TSan: several clients pipeline disjoint keys
  // through both loop threads while a reactor serves STATS passthrough.
  MemcachedMini mc;
  ReactorServer reactor(mc.ir_model(), mc.guid_registry());
  NetDispatcher dispatcher(mc, &reactor);
  NetServerOptions options;
  options.loop_threads = 2;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 4;
  constexpr int kPairs = 100;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    clients.emplace_back([t, port = server.port(), &bad]() {
      TestClient client(port);
      if (!client.connected()) {
        bad.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPairs; i++) {
        const std::string key =
            "t" + std::to_string(t) + "k" + std::to_string(i % 7);
        std::string bytes = "SET " + key + " v\nGET " + key + "\n";
        if (i % 25 == 0) {
          bytes += "STATS\n";
        }
        if (!client.Send(bytes)) {
          bad.fetch_add(1);
          return;
        }
        const size_t want = 2 + (i % 25 == 0 ? 1 : 0);
        const std::vector<NetReply> replies = client.ReadReplies(want);
        if (replies.size() != want) {
          bad.fetch_add(1);
          return;
        }
        for (const NetReply& reply : replies) {
          if (!reply.ok()) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(server.connections_accepted(), static_cast<uint64_t>(kThreads));
  EXPECT_FALSE(mc.last_fault().has_value());
  server.Stop();
}

TEST(NetServerTest, TraceAutopsyOverWire) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServerOptions options;
  options.loop_threads = 1;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  // A propagated context (origin 1 ns, safely before receipt) commits a
  // trace under the client's id; TRACE then autopsies it over the wire.
  ASSERT_TRUE(client.Send("*424211:1 SET user1 hello\n"));
  std::vector<NetReply> replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].text, "OK");

  ASSERT_TRUE(client.Send("TRACE 424211\n"));
  replies = client.ReadReplies(1);
  ASSERT_EQ(replies.size(), 1u);
#ifdef ARTHAS_OBS_DISABLED
  // With instrumentation compiled out nothing was committed, but the wire
  // command still parses and answers cleanly instead of wedging the parser.
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kError);
  EXPECT_NE(replies[0].text.find("unknown trace id"), std::string::npos);
#else
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kBulk);
  EXPECT_NE(replies[0].text.find("trace 424211"), std::string::npos);
  EXPECT_NE(replies[0].text.find("op=SET"), std::string::npos);
  EXPECT_NE(replies[0].text.find("client_wait"), std::string::npos);
#endif

  // Unknown ids answer -ERR without wedging the connection.
  ASSERT_TRUE(client.Send("TRACE 988877\nPING\n"));
  replies = client.ReadReplies(2);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].kind, NetReply::Kind::kError);
  EXPECT_NE(replies[0].text.find("unknown trace id"), std::string::npos);
  EXPECT_EQ(replies[1].text, "PONG");

  server.Stop();
  EXPECT_FALSE(mc.last_fault().has_value());
}

TEST(NetServerTest, OutbufAndQueueDepthProbesSampled) {
  MemcachedMini mc;
  NetDispatcher dispatcher(mc, /*reactor=*/nullptr);
  NetServerOptions options;
  options.loop_threads = 2;
  NetServer server(dispatcher, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send("SET user1 hello\nGET user1\n"));
  ASSERT_EQ(client.ReadReplies(2).size(), 2u);

  // The server registers both gauges as sampler probes while it runs; a
  // manual sweep must produce one finite point per series. In a disabled
  // build the probe macros compile out, so the series must stay absent.
  obs::TelemetrySampler& sampler = obs::TelemetrySampler::Global();
  sampler.SampleNow();
  const auto outbuf = sampler.SeriesPoints("net.conn.outbuf_bytes");
  const auto depth = sampler.SeriesPoints("net.loop.queue_depth");
#ifdef ARTHAS_OBS_DISABLED
  EXPECT_TRUE(outbuf.empty());
  EXPECT_TRUE(depth.empty());
#else
  ASSERT_FALSE(outbuf.empty());
  EXPECT_GE(outbuf.back().value, 0.0);
  ASSERT_FALSE(depth.empty());
  EXPECT_GE(depth.back().value, 0.0);
#endif

  server.Stop();
  EXPECT_FALSE(mc.last_fault().has_value());
}

}  // namespace
}  // namespace net
}  // namespace arthas
