// The repository benchmark: Memcached on the arthas checkpoint substrate,
// served over the socket plane, driven from one process.
//
//   perfbench --workload <serve_read|serve_write> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Both workloads run the same steps with their own traffic mix and sizes
// (see kWorkloads and perfbench/README.md):
//   1. set-up: pool + system, substrate attach, ReactorServer (static
//      analysis + PDG), server start, connect, preload of every key;
//   2. rounds, each measuring every end-to-end metric once: a fixed-rate
//      Poisson open-loop window (latency from scheduled arrival), a
//      saturation burst (a fixed number of requests outstanding per
//      connection), and a fault injection on a fresh server: a fixed count
//      of requests at a fixed rate, then the f4 append-overflow sequence,
//      which the on_fault hook answers with detector confirm,
//      Tracer::Serialize, ReactorServer::IngestTrace and
//      ReactorServer::Execute, with no modelled sleeps;
//   3. checks: every key read back over the wire, then again after
//      PmSystemTarget::Restart().
// With --trace 1 the run also replays the requests sent before the first
// saturation burst in process through RequestParser::Feed,
// NetDispatcher::ExecuteBatch and PmSystemTarget::Handle, with a span
// around each call, and reports the per-layer metrics instead of the
// end-to-end ones.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics. A human-readable summary goes to stderr.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/checkpoint_log.h"
#include "client.h"
#include "common/clock.h"
#include "detector/detector.h"
#include "faults/fault_ids.h"
#include "net/dispatcher.h"
#include "net/protocol.h"
#include "net/server.h"
#include "pmem/device.h"
#include "reactor/reactor_server.h"
#include "spans.h"
#include "stats.h"
#include "substrate/substrate.h"
#include "systems/memcached_mini.h"
#include "traffic.h"

namespace perfbench {
namespace {

using arthas::net::NetReply;

constexpr int kConnections = 4;
constexpr int kLoopThreads = 2;
constexpr size_t kPoolBytes = 8 * 1024 * 1024;
constexpr int64_t kSecond = 1'000'000'000;
constexpr double kNsPerSecond = 1e9;
// Set-ups of the workload's server per run; setup_s is their median.
constexpr size_t kSetups = 9;
// Requests replayed in process by the traced run, and how many times with
// and without spans.
constexpr uint64_t kReplayOps = 200'000;
constexpr int kReplayPairs = 4;

// A run is a series of rounds, and each round measures every end-to-end
// metric once, on the same server: a fixed-rate window, then a saturation
// burst; then one fault injection on a fresh server. Spreading each metric's
// samples over the whole run, and reporting their median, keeps a slow
// second of the host from deciding the figure.
struct Workload {
  const char* name;
  Mix mix;
  double rate;            // fixed-rate window, requests per second
  uint64_t sat_requests;  // saturation burst per round
};
constexpr int64_t kFixedNs = kSecond;  // fixed-rate window per round
constexpr double kRoundS = 1.8;  // nominal round: rounds = seconds / kRoundS

// 95% GET / 5% SET of 16-byte values; every item fits a 64-byte block.
constexpr Mix kReadMix = {0.95, 0.0, 16, 16, 10000};
// 90% SET / 10% APPEND, values of 232 to 248 bytes: every item sits in a
// 512-byte block and no request frees or moves one.
constexpr Mix kWriteMix = {0.0, 0.10, 232, 8, 8000};
// Every workload's fault-injection servers build their history with the
// write mix over a quarter of its keyspace, so that each injection is short
// and a run holds enough of them for a median.
constexpr Mix kFaultMix = {0.0, 0.10, 232, 8, 2000};
constexpr uint64_t kHistoryOps = 20000;  // requests before each fault
constexpr double kHistoryRate = 100000;
constexpr int kSatDepth = 128;  // requests outstanding per connection
// Open-loop traffic before the first round, unmeasured.
constexpr int64_t kWarmNs = 500'000'000;

const Workload kWorkloads[] = {
    {"serve_read", kReadMix, 50000, 400000},
    {"serve_write", kWriteMix, 50000, 150000},
};

// The f4 recipe. Two items allocated back to back on a fresh heap are
// buddies; with the fault armed, an APPEND past the first one's block
// overflows into the second. The two SETs run at set-up, before any other
// traffic, and the APPEND after the history: the fault then has the whole
// history behind it.
const std::string kVictimValue(210, 'v');
const std::string kPlantBatch = "SET appendee " + std::string(200, 'a') +
                                "\nSET f4victim " + kVictimValue + "\n";
const std::string kTriggerBatch =
    "APPEND appendee " + std::string(100, 'b') + "\nGET f4victim\n";

// Pins a thread of this process to one CPU. The client thread and the two
// server loop threads each get a CPU of their own when there are at least
// four, so that where the scheduler puts them does not change from run to
// run; otherwise they float.
void PinThread(int tid, int cpu) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < kLoopThreads + 2) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

// Peak resident set size of this process so far.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Outcome of one pass of the on_fault hook.
struct Mitigation {
  bool ran = false;
  bool recovered = false;
  int reexecutions = 0;
  uint64_t reverted_updates = 0;
  uint64_t trace_bytes = 0;
};

// Memcached on the arthas checkpoint substrate, runtime tracing on.
struct Target {
  explicit Target(bool arm_f4) {
    arthas::MemcachedOptions options;
    options.pool_size = kPoolBytes;
    options.hashtable_buckets = 1024;
    system = std::make_unique<arthas::MemcachedMini>(options);
    system->tracer().set_enabled(true);
    if (arm_f4) {
      system->ArmFault(arthas::FaultId::kF4AppendIntOverflow);
    }
    substrate =
        arthas::MakeSubstrate(arthas::SubstrateKind::kArthasCheckpoint);
    attached = substrate->Attach(system->pool()).ok();
    if (attached) {
      system->set_substrate(substrate.get());
    }
  }
  ~Target() {
    system->set_substrate(nullptr);
    substrate->Detach();
  }
  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  std::unique_ptr<arthas::MemcachedMini> system;
  std::unique_ptr<arthas::ConsistencySubstrate> substrate;
  bool attached = false;
};

// One served system and everything it needs, built and torn down whole.
class Deployment {
 public:
  Deployment(const Mix& mix, uint64_t seed, bool arm_f4, SpanLog& spans)
      : spans_(spans),
        traffic_(mix, seed, kConnections),
        t0_ns_(NowNs()),
        target_(arm_f4),
        system_(*target_.system),
        substrate_(*target_.substrate) {
    if (!target_.attached) {
      error_ = "substrate attach failed";
      return;
    }
    const int64_t analysis_t0 = NowNs();
    reactor_ = std::make_unique<arthas::ReactorServer>(
        system_.ir_model(), system_.guid_registry());
    analysis_ms_ = static_cast<double>(NowNs() - analysis_t0) / 1e6;
    reactor_->set_active_substrate(&substrate_);

    arthas::net::NetDispatcher::Options dispatch;
    dispatch.batch_persists = true;
    dispatch.on_fault = [this](const arthas::FaultInfo& fault) {
      OnFault(fault);
    };
    dispatcher_ = std::make_unique<arthas::net::NetDispatcher>(
        system_, reactor_.get(), dispatch);
    arthas::net::NetServerOptions server_options;
    server_options.loop_threads = kLoopThreads;
    server_ = std::make_unique<arthas::net::NetServer>(*dispatcher_,
                                                       server_options);
    const std::vector<int> before = ListTasks();
    if (!server_->Start().ok()) {
      error_ = "server start failed";
      return;
    }
    loop_tids_ = NewTasks(before, ListTasks());
    for (size_t i = 0; i < loop_tids_.size(); i++) {
      PinThread(loop_tids_[i], static_cast<int>(i) + 1);
    }
    if (!client_.Connect(server_->port(), kConnections)) {
      error_ = "client connect failed";
      return;
    }
    if (arm_f4 && !Plant()) {
      error_ = "planting the f4 items failed";
      return;
    }
    preload_ = client_.Preload(traffic_);
    if (preload_.failed() != 0 || preload_.mismatches != 0) {
      error_ = "preload failed";
      return;
    }
    setup_s_ = static_cast<double>(NowNs() - t0_ns_) / 1e9;
  }

  ~Deployment() {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const std::string& error() const { return error_; }
  double setup_s() const { return setup_s_; }
  double analysis_ms() const { return analysis_ms_; }
  const PhaseStats& preload() const { return preload_; }
  LoadClient& client() { return client_; }
  Traffic& traffic() { return traffic_; }
  const std::vector<int>& loop_tids() const { return loop_tids_; }
  // The fault hook runs on a server loop thread.
  Mitigation mitigation() const {
    std::lock_guard<std::mutex> lock(mitigation_mutex_);
    return mitigation_;
  }

  // Crash-restarts the served system between batches; only flushed bytes
  // survive.
  bool Restart() {
    std::lock_guard<std::mutex> lock(system_.request_mutex());
    return system_.Restart().ok();
  }

  // Sends the f4 trigger, and once its -FAULT reply is in, reads the victim
  // again. Returns the time from sending the trigger to that OK reply, or
  // nullopt when the fault never showed or the victim is wrong.
  std::optional<double> InjectFault(uint64_t* requests) {
    ControlConn control;
    if (!control.Connect(server_->port())) {
      return std::nullopt;
    }
    const int64_t t_send = NowNs();
    if (!control.Send(kTriggerBatch)) {
      return std::nullopt;
    }
    *requests += 2;
    const std::vector<NetReply> replies = control.Read(2, 30000);
    const bool faulted =
        std::any_of(replies.begin(), replies.end(), [](const NetReply& r) {
          return r.kind == NetReply::Kind::kFault;
        });
    if (replies.size() != 2 || !faulted || !control.Send("GET f4victim\n")) {
      return std::nullopt;
    }
    *requests += 1;
    const std::vector<NetReply> victim = control.Read(1, 30000);
    const int64_t t_ok = NowNs();
    if (victim.size() != 1 || victim[0].kind != NetReply::Kind::kBulk ||
        victim[0].text != kVictimValue) {
      return std::nullopt;
    }
    return static_cast<double>(t_ok - t_send) / 1e6;
  }

 private:
  bool Plant() {
    ControlConn control;
    if (!control.Connect(server_->port()) || !control.Send(kPlantBatch)) {
      return false;
    }
    const std::vector<NetReply> replies = control.Read(2, 30000);
    return replies.size() == 2 && replies[0].ok() && replies[1].ok();
  }

  // Mirrors the serving plane's mitigation loop, minus its modelled detect
  // and restart delays.
  void OnFault(const arthas::FaultInfo& fault) {
    auto reexecute = [this]() {
      SpanLog::Scope span(spans_, "reexecute");
      {
        SpanLog::Scope restart(spans_, "pmem.restart");
        (void)system_.Restart();
      }
      arthas::Request get;
      get.op = arthas::Request::Op::kGet;
      get.key = "f4victim";
      (void)system_.Handle(get);
      arthas::RunObservation observation;
      observation.fault = system_.last_fault();
      observation.item_count = system_.ItemCount();
      return observation;
    };
    Mitigation result;
    result.ran = true;
    arthas::RunObservation confirm;
    arthas::Detector::Assessment assessment;
    {
      SpanLog::Scope span(spans_, "detector.confirm");
      (void)detector_.Observe(fault);
      confirm = reexecute();
      assessment = detector_.Observe(confirm.fault);
    }
    result.reexecutions = 1;
    if (assessment != arthas::Detector::Assessment::kSuspectedHardFailure) {
      result.recovered = !confirm.fault.has_value();
      Publish(result);
      return;
    }
    std::string trace;
    {
      SpanLog::Scope span(spans_, "trace.serialize");
      trace = system_.tracer().Serialize();
    }
    result.trace_bytes = trace.size();
    {
      SpanLog::Scope span(spans_, "reactor.ingest");
      (void)reactor_->IngestTrace(trace);
    }
    arthas::MitigationRequest request;
    request.fault = *confirm.fault;
    arthas::MitigationOutcome outcome;
    {
      SpanLog::Scope span(spans_, "reactor.execute");
      outcome =
          reactor_->Execute(request, substrate_, system_, reexecute, clock_);
    }
    result.recovered = outcome.recovered;
    result.reexecutions += outcome.reexecutions;
    result.reverted_updates = outcome.reverted_updates;
    Publish(result);
  }

  void Publish(const Mitigation& result) {
    std::lock_guard<std::mutex> lock(mitigation_mutex_);
    mitigation_ = result;
  }

  SpanLog& spans_;
  Traffic traffic_;
  const int64_t t0_ns_;  // set-up starts here
  Target target_;
  arthas::MemcachedMini& system_;
  arthas::ConsistencySubstrate& substrate_;
  std::unique_ptr<arthas::ReactorServer> reactor_;
  arthas::Detector detector_;
  arthas::VirtualClock clock_;
  mutable std::mutex mitigation_mutex_;
  Mitigation mitigation_;
  std::unique_ptr<arthas::net::NetDispatcher> dispatcher_;
  std::unique_ptr<arthas::net::NetServer> server_;
  std::vector<int> loop_tids_;
  LoadClient client_;
  PhaseStats preload_;
  std::string error_;
  double setup_s_ = 0;
  double analysis_ms_ = 0;
};

// Per-layer figures from the in-process replay.
struct ReplayResult {
  double parse_ns_per_cmd = 0;
  double batch_ns_per_cmd = 0;
  double get_ns = 0;
  double set_ns = 0;
  double append_ns = 0;
  double persists_per_op = 0;
  double lines_per_op = 0;
  double drains_per_op = 0;
  double bytes_per_user_byte = 0;
  double versions_per_op = 0;
  double overhead_pct = 0;
  uint64_t mismatches = 0;
};

// A served system without sockets, for the replay.
struct Bench {
  explicit Bench(const Workload& workload, uint64_t seed)
      : traffic(workload.mix, seed, kConnections),
        target(false),
        system(*target.system) {
    arthas::net::NetDispatcher::Options dispatch;
    dispatch.batch_persists = true;
    dispatcher =
        std::make_unique<arthas::net::NetDispatcher>(system, nullptr, dispatch);
    // Preload as the served set-up does, in batches of 128 SETs.
    std::string bytes;
    std::vector<arthas::net::NetCommand> commands;
    std::string out;
    for (uint64_t key = 0; key < traffic.keys(); key++) {
      traffic.EmitPreload(key, &bytes);
      if (key % 128 == 127 || key + 1 == traffic.keys()) {
        commands.clear();
        parser.Feed(bytes.data(), bytes.size(), &commands);
        dispatcher->ExecuteBatch(commands, &out);
        bytes.clear();
        out.clear();
      }
    }
  }
  Traffic traffic;
  Target target;
  arthas::MemcachedMini& system;
  std::unique_ptr<arthas::net::NetDispatcher> dispatcher;
  arthas::net::RequestParser parser;
};

// The first `ops` requests of the served run (warm-up, then the first
// fixed-rate window), as the client generated them, cut into batches of
// `batch` commands (the client's commands per write).
struct Batches {
  std::vector<std::string> bytes;
  std::vector<std::vector<Pending>> expect;
};

Batches MakeBatches(Traffic& traffic, uint64_t ops, size_t batch) {
  Batches out;
  for (uint64_t seq = 0; seq < ops; seq++) {
    if (seq % batch == 0) {
      out.bytes.emplace_back();
      out.expect.emplace_back();
    }
    out.expect.back().push_back(traffic.Emit(
        seq, static_cast<int>(seq % kConnections), &out.bytes.back()));
  }
  return out;
}

uint64_t CountMismatches(std::string_view replies,
                         const std::vector<Pending>& expect) {
  arthas::net::ReplyParser parser;
  std::vector<NetReply> parsed;
  parser.Feed(replies.data(), replies.size(), &parsed);
  uint64_t bad = parsed.size() == expect.size() ? 0 : 1;
  for (size_t i = 0; i < parsed.size() && i < expect.size(); i++) {
    const bool ok = expect[i].kind == Pending::kRead
                        ? parsed[i].kind == NetReply::Kind::kBulk &&
                              HashBytes(parsed[i].text) == expect[i].expect
                        : parsed[i].text == "OK";
    bad += ok ? 0 : 1;
  }
  return bad;
}

// Replays `ops` requests through parse + ExecuteBatch on fresh systems,
// in pairs of one run without spans and one with (the median difference is
// the tracing overhead; which of the two goes first alternates from pair to
// pair), then once more through Handle() per command for the systems layer.
// Replies are checked after each timed loop, so the two sides of a pair
// differ only by their spans.
ReplayResult Replay(const Workload& workload, uint64_t seed, uint64_t ops,
                    size_t batch, SpanLog& spans) {
  ReplayResult result;
  int64_t wall_ns[2] = {0, 0};
  std::vector<double> overhead_pct;
  SpanLog off(false);
  for (int round = 0; round < 2 * kReplayPairs; round++) {
    const int pair = round / 2;
    const bool traced = (round + pair) % 2 == 1;
    SpanLog& span_log = traced ? spans : off;
    Bench bench(workload, seed);
    const uint64_t user_before = bench.traffic.user_write_bytes();
    Batches batches = MakeBatches(bench.traffic, ops, batch);
    const uint64_t user_bytes = bench.traffic.user_write_bytes() - user_before;
    const arthas::PmemDeviceStats& device =
        bench.system.pool().device().stats();
    const uint64_t persists = device.persists.load();
    const uint64_t lines = device.flushed_lines.load();
    const uint64_t drains = device.drains.load();
    const uint64_t bytes = device.persisted_bytes.load();
    const arthas::CheckpointLog& log =
        *bench.target.substrate->checkpoint_log();
    const uint64_t seq = log.LatestSeq();
    std::vector<arthas::net::NetCommand> commands;
    // Every batch's replies, end to end; batch b's end at ends[b].
    std::string out;
    out.reserve(64 * ops);
    std::vector<size_t> ends;
    ends.reserve(batches.bytes.size());
    const int64_t t0 = NowNs();
    for (const std::string& bytes : batches.bytes) {
      commands.clear();
      {
        SpanLog::Scope span(span_log, "protocol.parse");
        bench.parser.Feed(bytes.data(), bytes.size(), &commands);
      }
      {
        SpanLog::Scope span(span_log, "dispatcher.batch");
        bench.dispatcher->ExecuteBatch(commands, &out);
      }
      ends.push_back(out.size());
    }
    wall_ns[traced ? 1 : 0] = NowNs() - t0;
    for (size_t b = 0, begin = 0; b < ends.size(); begin = ends[b++]) {
      result.mismatches += CountMismatches(
          std::string_view(out).substr(begin, ends[b] - begin),
          batches.expect[b]);
    }
    if (round % 2 == 1) {
      overhead_pct.push_back(100.0 *
                             static_cast<double>(wall_ns[1] - wall_ns[0]) /
                             static_cast<double>(wall_ns[0]));
    }
    if (traced) {
      const double n = static_cast<double>(ops);
      result.persists_per_op =
          static_cast<double>(device.persists.load() - persists) / n;
      result.lines_per_op =
          static_cast<double>(device.flushed_lines.load() - lines) / n;
      result.drains_per_op =
          static_cast<double>(device.drains.load() - drains) / n;
      result.bytes_per_user_byte =
          user_bytes == 0 ? 0
                          : static_cast<double>(device.persisted_bytes.load() -
                                                bytes) /
                                static_cast<double>(user_bytes);
      result.versions_per_op = static_cast<double>(log.LatestSeq() - seq) / n;
    }
  }
  result.overhead_pct = Median(overhead_pct);

  // Systems layer: the dispatcher's lock, section and persist batch, opened
  // from here, with a span around each Handle().
  Bench bench(workload, seed);
  Batches batches = MakeBatches(bench.traffic, ops, batch);
  std::vector<arthas::net::NetCommand> commands;
  for (const std::string& bytes : batches.bytes) {
    commands.clear();
    bench.parser.Feed(bytes.data(), bytes.size(), &commands);
    std::lock_guard<std::mutex> lock(bench.system.request_mutex());
    arthas::SectionScope section(bench.system);
    arthas::PmemDevice::BatchScope persist_batch(bench.system.pool().device());
    for (const arthas::net::NetCommand& command : commands) {
      arthas::Request request;
      request.key = command.key;
      request.value = command.value;
      const char* name = "systems.get";
      if (command.op == arthas::net::NetOp::kSet) {
        request.op = arthas::Request::Op::kPut;
        name = "systems.set";
      } else if (command.op == arthas::net::NetOp::kAppend) {
        request.op = arthas::Request::Op::kAppend;
        name = "systems.append";
      }
      SpanLog::Scope span(spans, name);
      (void)bench.system.Handle(request);
    }
  }

  const auto totals = spans.Summary();
  auto per_call_ns = [&](const char* name, double per) {
    const auto it = totals.find(name);
    return it == totals.end() || per == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) / per;
  };
  const double cmds = kReplayPairs * static_cast<double>(ops);
  result.parse_ns_per_cmd = per_call_ns("protocol.parse", cmds);
  result.batch_ns_per_cmd = per_call_ns("dispatcher.batch", cmds);
  auto count = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  result.get_ns = per_call_ns("systems.get", count("systems.get"));
  result.set_ns = per_call_ns("systems.set", count("systems.set"));
  result.append_ns = per_call_ns("systems.append", count("systems.append"));
  return result;
}

// Writes the traced run's spans: per-name totals for every layer, and each
// fault-injection span in full (the per-request replay spans are too many
// to list).
void WriteSpans(const std::string& path, const SpanLog& spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\"layers\": {";
  const char* sep = "";
  for (const auto& [name, total] : spans.Summary()) {
    out << sep << "\"" << name << "\": {\"count\": " << total.count
        << ", \"total_ns\": " << total.total_ns
        << ", \"self_ns\": " << total.self_ns << "}";
    sep = ", ";
  }
  out << "}, \"fault_spans\": [";
  sep = "";
  const std::vector<SpanLog::Span> all = spans.Snapshot();
  for (size_t i = 0; i < all.size(); i++) {
    const std::string name = all[i].name;
    if (name.rfind("protocol.", 0) == 0 || name.rfind("dispatcher.", 0) == 0 ||
        name.rfind("systems.", 0) == 0) {
      continue;
    }
    out << sep << "{\"id\": " << i << ", \"name\": \"" << name
        << "\", \"start_ns\": " << all[i].start_ns
        << ", \"end_ns\": " << all[i].end_ns
        << ", \"parent\": " << all[i].parent << "}";
    sep = ", ";
  }
  out << "]}\n";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    return std::nullopt;  // a flag without its value
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    return std::nullopt;
  }
  return args;
}

class MetricsJson {
 public:
  void Add(const char* name, double value, const char* unit) {
    // The shortest text that reads back as the same double.
    char number[32];
    const auto end = std::to_chars(number, number + sizeof(number), value).ptr;
    body_ += std::string(body_.empty() ? "" : ", ") + "\"" + name +
             "\": {\"value\": " + std::string(number, end) +
             ", \"unit\": \"" + unit + "\"}";
    std::fprintf(stderr, "  %-28s %14.6g %s\n", name, value, unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

int Run(const Workload& workload, const Args& args) {
  std::signal(SIGPIPE, SIG_IGN);
  PinThread(static_cast<int>(gettid()), 0);
  SpanLog spans(args.trace);
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t lost = 0;
  auto account = [&](const PhaseStats& phase) {
    attempted += phase.sent;
    failed += phase.failed();
    if (phase.mismatches != 0) {
      correct = false;
    }
  };
  std::vector<double> setups;
  std::vector<double> analysis_ms;
  // Builds a server for the workload, records its set-up, and drops it.
  auto setup = [&](uint64_t seed) {
    Deployment deployment(workload.mix, seed, false, spans);
    if (!deployment.error().empty()) {
      correct = false;
      return;
    }
    setups.push_back(deployment.setup_s());
    analysis_ms.push_back(deployment.analysis_ms());
    account(deployment.preload());
  };

  auto main_server =
      std::make_unique<Deployment>(workload.mix, args.seed, false, spans);
  if (!main_server->error().empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", main_server->error().c_str());
    return 1;
  }
  Deployment& d = *main_server;
  setups.push_back(d.setup_s());
  analysis_ms.push_back(d.analysis_ms());
  account(d.preload());
  const uint64_t warm_requests =
      static_cast<uint64_t>(workload.rate * kWarmNs / kNsPerSecond);
  account(d.client().OpenLoop(d.traffic(), workload.rate, kWarmNs,
                              warm_requests, Mix64(args.seed)));

  const int rounds = std::max(3, static_cast<int>(args.seconds / kRoundS));
  const uint64_t fixed_requests = static_cast<uint64_t>(
      workload.rate * static_cast<double>(kFixedNs) / kNsPerSecond);
  const double us_per_tick = 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::vector<double> p50_us;
  std::vector<double> cpu_us_per_op;
  std::vector<double> backlog_ms;
  std::vector<double> sat_per_s;
  std::vector<double> sat_busy;
  // Every fixed-rate request's latency and send lag, for the traced run's
  // tails only: kept in an untraced run, they would count in its rss_mb.
  std::vector<int64_t> latencies;
  std::vector<int64_t> send_lags;
  uint64_t latency_samples = 0;
  uint64_t fixed_sent = 0;
  uint64_t fixed_writes = 0;
  std::vector<double> recover_ms;
  std::vector<double> reverted;
  std::vector<double> reexecutions;
  std::vector<double> trace_bytes;
  int recovered = 0;
  for (int round = 0; round < rounds; round++) {
    // Fixed rate: exactly rate x window requests, so the state the server
    // holds after each round is the same on every run.
    const TaskCpu cpu_before = ReadTaskCpu(d.loop_tids());
    PhaseStats fixed = d.client().OpenLoop(
        d.traffic(), workload.rate, kFixedNs, fixed_requests,
        Mix64(args.seed ^ Mix64(static_cast<uint64_t>(round) + 1)));
    const TaskCpu cpu_after = ReadTaskCpu(d.loop_tids());
    account(fixed);
    std::vector<int64_t> round_latencies;
    round_latencies.reserve(fixed.samples.size());
    for (const Sample& sample : fixed.samples) {
      round_latencies.push_back(sample.latency_ns);
    }
    latency_samples += round_latencies.size();
    if (args.trace) {
      latencies.insert(latencies.end(), round_latencies.begin(),
                       round_latencies.end());
      send_lags.insert(send_lags.end(), fixed.send_lag_ns.begin(),
                       fixed.send_lag_ns.end());
    }
    p50_us.push_back(ExactQuantile(round_latencies, 0.5).value / 1e3);
    if (fixed.ok > 0) {
      cpu_us_per_op.push_back(
          static_cast<double>(CpuTicksBetween(cpu_before, cpu_after)) *
          us_per_tick / static_cast<double>(fixed.ok));
    }
    backlog_ms.push_back(static_cast<double>(fixed.backlog_ns) / 1e6);
    fixed_sent += fixed.sent;
    fixed_writes += fixed.writes;

    PhaseStats sat = d.client().Saturate(d.traffic(), kSatDepth,
                                         workload.sat_requests,
                                         workload.sat_requests / 5);
    account(sat);
    sat_per_s.push_back(sat.ok_per_s);
    sat_busy.push_back(sat.busy_frac());

    // One fault on a fresh server: plant, history, trigger, check.
    const uint64_t seed = Mix64(args.seed + 1000003ull * (round + 1));
    Deployment fresh(kFaultMix, seed, true, spans);
    if (!fresh.error().empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", fresh.error().c_str());
      return 1;
    }
    account(fresh.preload());
    account(fresh.client().OpenLoop(fresh.traffic(), kHistoryRate,
                                    60 * kSecond, kHistoryOps, seed));
    const std::optional<double> ms = fresh.InjectFault(&attempted);
    const Mitigation mitigation = fresh.mitigation();
    PhaseStats after = fresh.client().Verify(fresh.traffic());
    account(after);
    lost += after.mismatches;
    if (ms.has_value() && mitigation.ran && mitigation.recovered) {
      recovered++;
      recover_ms.push_back(*ms);
      reverted.push_back(static_cast<double>(mitigation.reverted_updates));
      reexecutions.push_back(static_cast<double>(mitigation.reexecutions));
      trace_bytes.push_back(static_cast<double>(mitigation.trace_bytes));
    } else {
      correct = false;
      std::fprintf(stderr, "injection %d did not recover\n", round + 1);
    }

    // The other set-ups of the workload's server, spread over the run.
    while (setups.size() <
           1 + (kSetups - 1) * static_cast<size_t>(round + 1) /
                   static_cast<size_t>(rounds)) {
      setup(args.seed + 7919ull * setups.size());
    }
  }
  const double rss_mb = PeakRssMb();

  // Every key over the wire, then again after a crash-restart that keeps
  // only flushed bytes.
  PhaseStats check = d.client().Verify(d.traffic());
  account(check);
  lost += check.mismatches;
  if (!d.Restart()) {
    correct = false;
  }
  PhaseStats recheck = d.client().Verify(d.traffic());
  account(recheck);
  lost += recheck.mismatches;
  main_server.reset();
  if (lost != 0) {
    correct = false;
  }

  const double cmds_per_write =
      fixed_writes == 0 ? 0
                        : static_cast<double>(fixed_sent) /
                              static_cast<double>(fixed_writes);
  // Traced replay of the requests sent before the first saturation burst.
  ReplayResult replay;
  if (args.trace) {
    const size_t batch =
        std::max<size_t>(1, static_cast<size_t>(cmds_per_write + 0.5));
    replay = Replay(workload, args.seed,
                    std::min<uint64_t>(warm_requests + fixed_requests,
                                       kReplayOps),
                    batch, spans);
    if (replay.mismatches != 0) {
      correct = false;
    }
  }

  const double gen_busy = Median(sat_busy);
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %d rounds of %.0f req/s for %.2f s "
               "(%" PRIu64 " latency samples) and %" PRIu64
               " saturating requests; %d/%d faults recovered; "
               "lost_acked_writes %" PRIu64 ", failed %" PRIu64 "/%" PRIu64
               "; saturation is %s-bound (client busy %.2f)\n",
               workload.name, args.seed, rounds, workload.rate,
               static_cast<double>(kFixedNs) / kNsPerSecond,
               latency_samples, workload.sat_requests, recovered, rounds,
               lost, failed, attempted,
               gen_busy > 0.9 ? "generator" : "server", gen_busy);

  MetricsJson metrics;
  if (!args.trace) {
    metrics.Add("setup_s", Median(setups), "s");
    metrics.Add("p50_us", Median(p50_us), "us");
    metrics.Add("server_cpu_us_per_op", Median(cpu_us_per_op), "us");
    metrics.Add("sat_ops_per_s", Median(sat_per_s), "1/s");
    metrics.Add("rss_mb", rss_mb, "MB");
    metrics.Add("recover_ms", Median(recover_ms), "ms");
    metrics.Add("recovered_frac", static_cast<double>(recovered) / rounds,
                "fraction");
    metrics.Add("reverted_updates", Median(reverted), "count");
  } else {
    Quantile lag50 = ExactQuantile(send_lags, 0.50);
    Quantile lag99 = ExactQuantile(send_lags, 0.99);
    Quantile p99 = ExactQuantile(latencies, 0.99);
    Quantile p999 = ExactQuantile(latencies, 0.999);
    for (const Quantile* q : {&lag99, &p99, &p999}) {
      if (!q->supported()) {
        std::fprintf(stderr, "  warning: a tail percentile has only %" PRIu64
                     " samples beyond it\n", q->beyond);
      }
    }
    const auto totals = spans.Summary();
    auto mean_ms = [&](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() || it->second.count == 0
                 ? 0.0
                 : static_cast<double>(it->second.total_ns) / 1e6 /
                       static_cast<double>(it->second.count);
    };
    // Per ReactorServer::Execute call: its self time, and the re-execute
    // callbacks it ran (the two add up to reactor.execute_ms).
    const auto execute = totals.find("reactor.execute");
    const double executions =
        execute == totals.end() ? 0
                                : static_cast<double>(execute->second.count);
    const double self_ms =
        executions == 0
            ? 0
            : static_cast<double>(execute->second.self_ns) / 1e6 / executions;
    const double children_ms =
        executions == 0 ? 0
                        : static_cast<double>(execute->second.total_ns -
                                              execute->second.self_ns) /
                              1e6 / executions;
    metrics.Add("net.send_lag_p50_us", lag50.value / 1e3, "us");
    metrics.Add("net.send_lag_p99_us", lag99.value / 1e3, "us");
    metrics.Add("net.gen_busy_frac", gen_busy, "fraction");
    metrics.Add("net.backlog_ms", Median(backlog_ms), "ms");
    metrics.Add("net.cmds_per_write", cmds_per_write, "count");
    metrics.Add("net.p99_us", p99.value / 1e3, "us");
    metrics.Add("net.p999_us", p999.value / 1e3, "us");
    metrics.Add("protocol.parse_ns_per_cmd", replay.parse_ns_per_cmd, "ns");
    metrics.Add("dispatcher.batch_ns_per_cmd", replay.batch_ns_per_cmd, "ns");
    metrics.Add("systems.get_ns", replay.get_ns, "ns");
    metrics.Add("systems.set_ns", replay.set_ns, "ns");
    metrics.Add("systems.append_ns", replay.append_ns, "ns");
    metrics.Add("pmem.persists_per_op", replay.persists_per_op, "count");
    metrics.Add("pmem.lines_per_op", replay.lines_per_op, "count");
    metrics.Add("pmem.drains_per_op", replay.drains_per_op, "count");
    metrics.Add("pmem.bytes_per_user_byte", replay.bytes_per_user_byte,
                "ratio");
    metrics.Add("pmem.restart_ms", mean_ms("pmem.restart"), "ms");
    metrics.Add("checkpoint.versions_per_op", replay.versions_per_op, "count");
    metrics.Add("trace.serialize_ms", mean_ms("trace.serialize"), "ms");
    metrics.Add("trace.bytes", Median(trace_bytes), "bytes");
    metrics.Add("reactor.ingest_ms", mean_ms("reactor.ingest"), "ms");
    metrics.Add("reactor.execute_ms", mean_ms("reactor.execute"), "ms");
    metrics.Add("reactor.self_ms", self_ms, "ms");
    metrics.Add("reactor.reexecute_ms", children_ms, "ms");
    metrics.Add("reactor.reexecutions", Median(reexecutions), "count");
    metrics.Add("detector.confirm_ms", mean_ms("detector.confirm"), "ms");
    metrics.Add("analysis.setup_ms", Median(analysis_ms), "ms");
    metrics.Add("tracing.overhead_pct", replay.overhead_pct, "%");
  }
  if (args.trace && !args.out_dir.empty()) {
    WriteSpans(args.out_dir + "/spans-" + workload.name + "-" +
                   std::to_string(args.seed) + ".json",
               spans);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.body().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  for (const perfbench::Workload& workload : perfbench::kWorkloads) {
    if (args->workload == workload.name) {
      return perfbench::Run(workload, *args);
    }
  }
  std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
  return 2;
}
