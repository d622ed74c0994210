// Request-scoped trace plane: per-request tail attribution for the network
// plane (ISSUE 9; the instrumentation ROADMAP item 1's backpressure work is
// judged with).
//
// BENCH_netplane.json shows p999 exploding past saturation and a ~200 ms
// fault-under-load dip, but nothing in the repo can say *why one specific
// request* was slow — client-side scheduling wait, pipelined batch wait,
// request-lock wait, substrate section, flush/drain, reply write, or being
// queued behind detector+reactor mitigation. This module assigns every wire
// request a 64-bit TraceContext id (optionally propagated from the load
// generator, which shares the server's monotonic clock in-process, so
// client scheduled-arrival wait joins server-side time), threads it
// server -> dispatcher -> SectionScope -> persist/flush/drain, and records a
// fixed-POD stage breakdown into per-thread rings in the flight-recorder
// idiom.
//
// Design constraints, in order:
//   * always-on: under the request lock the record path only appends raw
//     stamps to thread-local vectors; every trace is built, and the one
//     relaxed fetch_add per commit paid, after the lock (reservoir
//     admission is a relaxed threshold check that only takes a lock for
//     genuine top-K candidates),
//   * closed accounting: per trace, the stage nanoseconds sum EXACTLY to
//     end_ns - start_ns (server span) plus client wait (origin -> receipt)
//     when a context was propagated — batch wait is the residual, so clock
//     jitter cannot leak time out of the breakdown (check_tailtrace_schema
//     gates >= 90% closure in CI and this construction makes it ~100%),
//   * bounded memory: fixed-size rings per live thread + one fixed top-K
//     reservoir of slowest requests,
//   * the ARTHAS_REQTRACE_* macros compile out under ARTHAS_OBS_DISABLED;
//     the classes stay linkable either way (obs/obs.h discipline).
//
// Lifecycle, driven by NetDispatcher::ExecuteBatch on the loop thread.
// Everything up to EndBatch runs under the request lock and records only
// raw stamps: per command the id as received, origin, op, begin/end and
// the flush/drain sums; per batch the receipt, lock, exec-done and close
// marks. FlushReplies runs after the socket write, outside the lock: it
// draws server ids for commands that arrived without one, computes the
// nine stages and commits each trace to the ring, the reservoir and the
// net.req.* histograms.
//
//   BeginBatch(received_ns)              read() returned; parse follows
//     BeginCommand(id, origin, op, t0)   per pipelined command, in order
//       AddActiveStage(flush|drain, ns)  device hooks
//       SectionEnter/Exit(t)             outermost substrate section only
//     EndCommand(t1, faulted)            t1 is also the next command's t0
//   EndBatch(lock span, exec/close)      the batch's marks
//   FlushReplies(now)                    build, then commit
//
// Clock reads. A hook reads the clock only once the plane will use the
// value: enabled, a batch open and a command active. A GET served over the
// socket costs one read per command (its end, which is the next command's
// begin), four per batch (lock start and end, first command begin, batch
// close) and two per read() (receipt, reply flush). A plane disabled with
// set_enabled(false) reads no clock.
//
// Rings. A thread holds at most one ring, taken from the plane it commits
// to. When the thread exits (or commits to another plane), the ring goes
// back to its plane, if that plane still exists, and the next thread that
// needs a ring takes it; the old traces stay readable until they are
// overwritten. So a process that starts and stops servers holds as many
// rings as it ever had committing threads alive at once.
//
// Mitigation windows (MarkMitigationBegin / MarkDetectorFired /
// MarkMitigationEnd) reassign the overlap of a request's queueing time with
// the detector/reactor spans into kDetector / kReactor, so a fault-under-
// load tail reads "stuck behind reversion", not "lock wait".

#ifndef ARTHAS_OBS_REQTRACE_H_
#define ARTHAS_OBS_REQTRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/json.h"

namespace arthas {
namespace obs {

// Where a request's wall-clock time went. Every stage is disjoint; their
// sum closes to the traced span (see header comment).
enum class ReqStage : uint8_t {
  kClientWait = 0,  // scheduled arrival (client clock) -> server read()
  kBatchWait,       // parse + queued behind batchmates in the same read
  kLockWait,        // request_mutex acquisition
  kSection,         // command span minus flush/drain; a substrate section
                    // opened inside the command bounds it
  kFlush,           // cache-line flush staging (clwb)
  kDrain,           // drains: in-request + batch-close + substrate commit
  kReplyWrite,      // batch close -> reply bytes handed to the socket
  kDetector,        // queueing overlap with fault confirmation
  kReactor,         // queueing overlap with reversion + re-execution
};
inline constexpr size_t kReqStageCount = 9;

const char* ReqStageName(ReqStage stage);

// Fixed-size POD stage breakdown of one request. 120 bytes; a thread ring
// of 4096 traces costs 480 KiB regardless of run length.
struct RequestTrace {
  uint64_t trace_id = 0;
  uint64_t seq = 0;      // global commit order (1-based)
  int64_t origin_ns = 0; // client scheduled arrival; 0 = not propagated
  int64_t start_ns = 0;  // server receipt (read() return)
  int64_t end_ns = 0;    // replies handed to the socket
  int64_t stage_ns[kReqStageCount] = {};
  uint16_t tid = 0;      // loop thread (obs::ThisThreadNumber)
  uint8_t op = 0;        // net::NetOp of the command
  bool faulted = false;

  // Server-side span.
  int64_t TotalNs() const { return end_ns - start_ns; }
  // End-to-end span the client experienced (falls back to the server span
  // when no context was propagated).
  int64_t EndToEndNs() const {
    return origin_ns > 0 ? end_ns - origin_ns : TotalNs();
  }
  int64_t StageSumNs() const;
};
static_assert(sizeof(RequestTrace) == 120, "traces are fixed-size");

class RequestTracePlane {
 public:
  static constexpr size_t kDefaultRingCapacity = 4096;
  // Sized so a full bench point (~250k requests) keeps its whole >= p999
  // set (~250 traces) with ~8x slack for rank disagreement between the
  // client's and the server's latency measurements (246 KiB of POD).
  static constexpr size_t kReservoirCapacity = 2048;
  // Server-assigned ids live far above load-generator sequence numbers but
  // below 2^53 so every id survives a round trip through JSON doubles.
  static constexpr uint64_t kServerIdBase = 1ULL << 40;

  explicit RequestTracePlane(size_t ring_capacity = kDefaultRingCapacity);
  ~RequestTracePlane();

  RequestTracePlane(const RequestTracePlane&) = delete;
  RequestTracePlane& operator=(const RequestTracePlane&) = delete;

  // The process-wide plane the dispatcher macros report into. Leaked, like
  // the flight recorder: autopsies must survive teardown order.
  static RequestTracePlane& Global();

  // Runtime switch (relaxed load in BeginBatch). The overhead bench
  // measures plane-on vs plane-off in one binary.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // A timestamp for this plane: NowNanos() while enabled, else 0 (no read).
  int64_t Now() const { return enabled() ? NowNanos() : 0; }

  // Fresh id for a request that arrived without a propagated context.
  uint64_t NextServerTraceId() {
    return kServerIdBase + next_server_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- batch lifecycle (loop thread; timestamps passed in so tests are
  // deterministic — the macros capture NowNanos() at the call site) -------

  // Opens a batch on this thread and binds the thread to this plane.
  // Returns false, and opens nothing, when the plane is disabled: the
  // caller then reads no clock for the batch. A batch still open on this
  // thread is abandoned and its commands dropped.
  bool BeginBatch(int64_t received_ns);
  // The rest of the batch lifecycle only appends to this thread's open
  // batch (no-ops without one). trace_id == 0 means "assign one
  // server-side" (drawn when the trace commits).
  static void BeginCommand(uint64_t trace_id, int64_t origin_ns, uint8_t op,
                           int64_t now_ns);
  static void EndCommand(int64_t now_ns, bool faulted);
  static void EndBatch(int64_t lock_start_ns, int64_t lock_end_ns,
                       int64_t exec_done_ns, int64_t close_done_ns);
  // Replies handed to the socket: builds a trace for every command of the
  // batches EndBatch closed on this thread (across several pipelined
  // chunks of one read) and commits them.
  void FlushReplies(int64_t now_ns);
  // FlushReplies(NowNanos()), reading the clock only when a closed batch
  // awaits its reply.
  void FlushRepliesNow();

  // --- deep hooks (thread-local; no-ops without an active command) -------

  // Adds `dur_ns` to `stage` (kFlush or kDrain, the only stages measured
  // inside a command) of the command executing on this thread.
  static void AddActiveStage(ReqStage stage, int64_t dur_ns);
  static bool HasActiveCommand();
  // Substrate section boundaries (depth-collapsed re-entry).
  static void SectionEnter(int64_t now_ns);
  static void SectionExit(int64_t now_ns);

  // --- mitigation window -------------------------------------------------

  void MarkMitigationBegin(int64_t now_ns);
  void MarkDetectorFired(int64_t now_ns);
  void MarkMitigationEnd(int64_t now_ns);

  // --- queries / export (quiesce-time) -----------------------------------

  // Every retained trace, merged across rings, commit order.
  std::vector<RequestTrace> SnapshotRings() const;
  // Reservoir of the slowest requests by end-to-end time, slowest first
  // (limit = 0 means all retained).
  std::vector<RequestTrace> SlowestRequests(size_t limit = 0) const;
  bool FindTrace(uint64_t trace_id, RequestTrace* out) const;

  uint64_t total_traced() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }
  uint64_t dropped() const;
  // Rings, reservoir, counters, and the mitigation window (keeps rings
  // registered; quiesce-time only).
  void Clear();

  size_t ring_capacity() const { return capacity_; }

  // Installs the op-byte -> name renderer (the net layer registers
  // NetOpName; obs stays independent of the wire protocol). nullptr
  // restores the numeric default.
  static void InstallOpNamer(const char* (*namer)(uint8_t));

  // Human autopsy for the TRACE wire command.
  static std::string Autopsy(const RequestTrace& trace);
  // {"trace_id", "origin_ns", "start_ns", "end_ns", "total_ns", "e2e_ns",
  //  "op", "faulted", "stages": {stage: ns}}
  static JsonValue TraceJson(const RequestTrace& trace);
  // Chrome trace-event document: one row (tid) per trace, stages laid out
  // as "X" duration events. Load in chrome://tracing or Perfetto.
  static JsonValue ChromeTraceJson(const std::vector<RequestTrace>& traces);

 private:
  struct Ring {
    Ring(size_t capacity, uint16_t tid) : records(capacity), tid(tid) {}
    std::vector<RequestTrace> records;
    std::atomic<uint64_t> head{0};  // release store pairs with Snapshot
    uint16_t tid;  // the thread committing into it; set when taken
  };
  // Every ring the plane made, and those whose thread gave them back.
  // Shared with the threads' leases so that a thread exiting after the
  // plane is gone finds it expired instead of touching freed memory.
  struct RingPool {
    std::mutex mutex;
    std::vector<std::unique_ptr<Ring>> rings;
    std::vector<Ring*> free;
  };
  // This thread's ring, bound to one plane at a time. Handed back to that
  // plane's pool when the thread exits or commits to another plane.
  struct RingLease {
    RingLease() = default;
    RingLease(const RingLease&) = delete;
    RingLease& operator=(const RingLease&) = delete;
    ~RingLease() { Release(); }
    void Release();

    uint64_t plane_id = 0;
    Ring* ring = nullptr;
    std::weak_ptr<RingPool> pool;
  };

  Ring* LocalRing();
  // Builds the commands of this thread's closed batches into traces and
  // commits them.
  void BuildAndCommit(int64_t now_ns);
  void Commit(RequestTrace& trace);
  void OfferReservoir(const RequestTrace& trace);
  void ApplyMitigationSpans(RequestTrace& trace) const;

  const size_t capacity_;
  const uint64_t plane_id_;  // process-unique, never reused
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> next_server_id_{1};

  // Mitigation window on the monotonic clock (0 = unset).
  std::atomic<int64_t> mitigation_begin_ns_{0};
  std::atomic<int64_t> detector_fired_ns_{0};
  std::atomic<int64_t> mitigation_end_ns_{0};

  const std::shared_ptr<RingPool> pool_;

  // Min-heap on EndToEndNs in reservoir_[0]; threshold_ns_ caches the heap
  // root so the common case (not a top-K candidate) never locks.
  mutable std::mutex reservoir_mutex_;
  std::vector<RequestTrace> reservoir_;
  std::atomic<int64_t> reservoir_threshold_ns_{-1};
};

// RAII stage scope for deep hooks (device flush/drain). The constructor is
// one thread-local read when no command is active; the clock is only read
// while a trace is live on this thread.
class ReqTraceStageScope {
 public:
  explicit ReqTraceStageScope(ReqStage stage)
      : stage_(stage), active_(RequestTracePlane::HasActiveCommand()),
        start_ns_(active_ ? NowNanos() : 0) {}
  ~ReqTraceStageScope() {
    if (active_) {
      RequestTracePlane::AddActiveStage(stage_, NowNanos() - start_ns_);
    }
  }

  ReqTraceStageScope(const ReqTraceStageScope&) = delete;
  ReqTraceStageScope& operator=(const ReqTraceStageScope&) = delete;

 private:
  ReqStage stage_;
  bool active_;
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace arthas

// Instrumentation macros: compile to nothing under ARTHAS_OBS_DISABLED
// (classes stay linkable; only these call sites disappear).
#ifndef ARTHAS_OBS_CONCAT
#define ARTHAS_OBS_CONCAT_INNER(a, b) a##b
#define ARTHAS_OBS_CONCAT(a, b) ARTHAS_OBS_CONCAT_INNER(a, b)
#endif

#ifndef ARTHAS_OBS_DISABLED

// NOW() is 0 while the global plane is disabled. BATCH_BEGIN yields
// whether the batch is traced; NOW_IF(traced) then reads the clock only for
// a traced batch, so a disabled plane reads none on the per-command path.
#define ARTHAS_REQTRACE_NOW() \
  ::arthas::obs::RequestTracePlane::Global().Now()
#define ARTHAS_REQTRACE_NOW_IF(traced) \
  ((traced) ? ::arthas::NowNanos() : static_cast<int64_t>(0))
#define ARTHAS_REQTRACE_BATCH_BEGIN(received_ns) \
  ::arthas::obs::RequestTracePlane::Global().BeginBatch(received_ns)
#define ARTHAS_REQTRACE_COMMAND_BEGIN(id, origin_ns, op, now_ns)       \
  ::arthas::obs::RequestTracePlane::BeginCommand(                      \
      (id), (origin_ns), static_cast<uint8_t>(op), (now_ns))
#define ARTHAS_REQTRACE_COMMAND_END(now_ns, faulted) \
  ::arthas::obs::RequestTracePlane::EndCommand((now_ns), (faulted))
#define ARTHAS_REQTRACE_BATCH_END(lock_start, lock_end, exec_done, \
                                  close_done)                      \
  ::arthas::obs::RequestTracePlane::EndBatch(                      \
      (lock_start), (lock_end), (exec_done), (close_done))
#define ARTHAS_REQTRACE_REPLY_FLUSHED() \
  ::arthas::obs::RequestTracePlane::Global().FlushRepliesNow()
#define ARTHAS_REQTRACE_STAGE(stage)                                   \
  ::arthas::obs::ReqTraceStageScope ARTHAS_OBS_CONCAT(_arthas_reqtr_, \
                                                      __LINE__)(stage)
#define ARTHAS_REQTRACE_SECTION_ENTER()                                   \
  do {                                                                    \
    if (::arthas::obs::RequestTracePlane::HasActiveCommand()) {           \
      ::arthas::obs::RequestTracePlane::SectionEnter(::arthas::NowNanos()); \
    }                                                                     \
  } while (0)
#define ARTHAS_REQTRACE_SECTION_EXIT()                                   \
  do {                                                                   \
    if (::arthas::obs::RequestTracePlane::HasActiveCommand()) {          \
      ::arthas::obs::RequestTracePlane::SectionExit(::arthas::NowNanos()); \
    }                                                                    \
  } while (0)
#define ARTHAS_REQTRACE_MITIGATION_BEGIN()                          \
  ::arthas::obs::RequestTracePlane::Global().MarkMitigationBegin(   \
      ::arthas::NowNanos())
#define ARTHAS_REQTRACE_MITIGATION_END()                          \
  ::arthas::obs::RequestTracePlane::Global().MarkMitigationEnd(   \
      ::arthas::NowNanos())

#else  // ARTHAS_OBS_DISABLED

#define ARTHAS_REQTRACE_NOW() (static_cast<int64_t>(0))
#define ARTHAS_REQTRACE_NOW_IF(traced) \
  (static_cast<void>(traced), static_cast<int64_t>(0))
#define ARTHAS_REQTRACE_BATCH_BEGIN(received_ns) \
  (static_cast<void>(sizeof(received_ns)), false)
#define ARTHAS_REQTRACE_COMMAND_BEGIN(id, origin_ns, op, now_ns) \
  do {                                                           \
    (void)sizeof(id);                                            \
    (void)sizeof(now_ns);                                        \
  } while (0)
#define ARTHAS_REQTRACE_COMMAND_END(now_ns, faulted) \
  do {                                               \
    (void)sizeof(now_ns);                            \
    (void)sizeof(faulted);                           \
  } while (0)
#define ARTHAS_REQTRACE_BATCH_END(lock_start, lock_end, exec_done, \
                                  close_done)                      \
  do {                                                             \
    (void)sizeof(lock_start);                                      \
    (void)sizeof(lock_end);                                        \
    (void)sizeof(exec_done);                                       \
    (void)sizeof(close_done);                                      \
  } while (0)
#define ARTHAS_REQTRACE_REPLY_FLUSHED() \
  do {                                  \
  } while (0)
#define ARTHAS_REQTRACE_STAGE(stage) \
  do {                               \
    (void)sizeof(stage);             \
  } while (0)
#define ARTHAS_REQTRACE_SECTION_ENTER() \
  do {                                  \
  } while (0)
#define ARTHAS_REQTRACE_SECTION_EXIT() \
  do {                                 \
  } while (0)
#define ARTHAS_REQTRACE_MITIGATION_BEGIN() \
  do {                                     \
  } while (0)
#define ARTHAS_REQTRACE_MITIGATION_END() \
  do {                                   \
  } while (0)

#endif  // ARTHAS_OBS_DISABLED

#endif  // ARTHAS_OBS_REQTRACE_H_
