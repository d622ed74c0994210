#include "obs/reqtrace.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace arthas {
namespace obs {

namespace {

uint64_t NextPlaneId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

// One command's raw stamps, appended under the request lock; FlushReplies
// turns them into a RequestTrace.
struct RawCommand {
  uint64_t trace_id = 0;  // as received; 0 = drawn when the trace commits
  int64_t origin_ns = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t section_ns = 0;  // closed outermost-section time; 0 = none
  int64_t flush_ns = 0;
  int64_t drain_ns = 0;
  uint32_t batch = 0;  // index into ThreadState::batches
  uint8_t op = 0;
  bool faulted = false;
};

// One closed batch's marks, as EndBatch received them.
struct BatchMarks {
  int64_t received_ns = 0;
  int64_t lock_start_ns = 0;
  int64_t lock_end_ns = 0;
  int64_t exec_done_ns = 0;
  int64_t close_done_ns = 0;
};

// All per-thread lifecycle state. Bound to one plane at a time (rebinding
// only happens in tests that build local planes).
struct ThreadState {
  uint64_t plane_id = 0;
  bool batch_active = false;
  int64_t received_ns = 0;  // the open batch's receipt
  // Index into `commands` of the executing command; -1 whenever no batch
  // is open, so HasActiveCommand is one load.
  int active = -1;
  // The active command's outermost section (depth-collapsed re-entry).
  int section_depth = 0;
  int64_t section_start_ns = 0;
  // The commands of the closed batches in `batches`, then those of the
  // open batch from `open_first` on (== size() while no batch is open).
  std::vector<RawCommand> commands;
  size_t open_first = 0;
  std::vector<BatchMarks> batches;
};
thread_local ThreadState tls_state;

// Default op rendering; the net layer installs NetOpName at startup.
const char* NumericOpName(uint8_t op) {
  static thread_local char buf[8];
  std::snprintf(buf, sizeof(buf), "op%u", op);
  return buf;
}
std::atomic<const char* (*)(uint8_t)> g_op_namer{&NumericOpName};

const char* OpName(uint8_t op) {
  return g_op_namer.load(std::memory_order_relaxed)(op);
}

void AppendUs(std::ostringstream& out, const char* label, int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%.1fus", label,
                static_cast<double>(ns) / 1000.0);
  out << buf;
}

}  // namespace

const char* ReqStageName(ReqStage stage) {
  switch (stage) {
    case ReqStage::kClientWait: return "client_wait";
    case ReqStage::kBatchWait: return "batch_wait";
    case ReqStage::kLockWait: return "lock_wait";
    case ReqStage::kSection: return "section";
    case ReqStage::kFlush: return "flush";
    case ReqStage::kDrain: return "drain";
    case ReqStage::kReplyWrite: return "reply_write";
    case ReqStage::kDetector: return "detector";
    case ReqStage::kReactor: return "reactor";
  }
  return "unknown";
}

int64_t RequestTrace::StageSumNs() const {
  int64_t sum = 0;
  for (size_t i = 0; i < kReqStageCount; i++) {
    sum += stage_ns[i];
  }
  return sum;
}

void RequestTracePlane::InstallOpNamer(const char* (*namer)(uint8_t)) {
  g_op_namer.store(namer != nullptr ? namer : &NumericOpName,
                   std::memory_order_relaxed);
}

RequestTracePlane::RequestTracePlane(size_t ring_capacity)
    : capacity_(RoundUpPow2(std::max<size_t>(ring_capacity, 2))),
      plane_id_(NextPlaneId()),
      pool_(std::make_shared<RingPool>()) {
  reservoir_.reserve(kReservoirCapacity);
}

RequestTracePlane::~RequestTracePlane() = default;

RequestTracePlane& RequestTracePlane::Global() {
  // Leaked: TRACE autopsies and artifact writers must survive any teardown
  // order, exactly like the flight recorder.
  static RequestTracePlane* plane = new RequestTracePlane();
  return *plane;
}

void RequestTracePlane::RingLease::Release() {
  if (ring == nullptr) {
    return;
  }
  // An expired pool means the plane is gone, and its rings with it.
  if (const std::shared_ptr<RingPool> live = pool.lock()) {
    std::lock_guard<std::mutex> lock(live->mutex);
    live->free.push_back(ring);
  }
  ring = nullptr;
  plane_id = 0;
  pool.reset();
}

RequestTracePlane::Ring* RequestTracePlane::LocalRing() {
  thread_local RingLease lease;
  if (lease.plane_id == plane_id_) {
    return lease.ring;
  }
  lease.Release();
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    if (!pool_->free.empty()) {
      ring = pool_->free.back();
      pool_->free.pop_back();
      ring->tid = ThisThreadNumber();
    } else {
      pool_->rings.push_back(
          std::make_unique<Ring>(capacity_, ThisThreadNumber()));
      ring = pool_->rings.back().get();
    }
  }
  lease.plane_id = plane_id_;
  lease.ring = ring;
  lease.pool = pool_;
  return ring;
}

bool RequestTracePlane::BeginBatch(int64_t received_ns) {
  ThreadState& st = tls_state;
  if (!enabled()) {
    st.commands.resize(st.open_first);  // an abandoned open batch
    st.batch_active = false;
    st.active = -1;
    return false;
  }
  if (st.plane_id != plane_id_) {
    // First batch on this thread for this plane (or a test rebound the
    // thread to a fresh local plane): drop state owed to the old one.
    st.commands.clear();
    st.open_first = 0;
    st.batches.clear();
    st.plane_id = plane_id_;
  }
  st.commands.resize(st.open_first);
  st.open_first = st.commands.size();
  st.batch_active = true;
  st.received_ns = received_ns;
  st.active = -1;
  return true;
}

void RequestTracePlane::BeginCommand(uint64_t trace_id, int64_t origin_ns,
                                     uint8_t op, int64_t now_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active) {
    return;
  }
  RawCommand& cmd = st.commands.emplace_back();
  cmd.trace_id = trace_id;
  cmd.origin_ns = origin_ns;
  cmd.begin_ns = now_ns;
  cmd.batch = static_cast<uint32_t>(st.batches.size());
  cmd.op = op;
  st.active = static_cast<int>(st.commands.size()) - 1;
  st.section_depth = 0;
}

void RequestTracePlane::EndCommand(int64_t now_ns, bool faulted) {
  ThreadState& st = tls_state;
  if (st.active < 0) {
    return;
  }
  RawCommand& cmd = st.commands[static_cast<size_t>(st.active)];
  cmd.end_ns = now_ns;
  cmd.faulted = faulted;
  if (st.section_depth > 0) {
    // A fault unwound past the section exit; close the span here.
    cmd.section_ns += now_ns - st.section_start_ns;
    st.section_depth = 0;
  }
  st.active = -1;
}

void RequestTracePlane::EndBatch(int64_t lock_start_ns, int64_t lock_end_ns,
                                 int64_t exec_done_ns, int64_t close_done_ns) {
  ThreadState& st = tls_state;
  if (!st.batch_active) {
    return;
  }
  st.batches.push_back(BatchMarks{st.received_ns, lock_start_ns, lock_end_ns,
                                  exec_done_ns, close_done_ns});
  st.open_first = st.commands.size();
  st.active = -1;
  st.batch_active = false;
}

void RequestTracePlane::FlushReplies(int64_t now_ns) {
  const ThreadState& st = tls_state;
  if (st.plane_id == plane_id_ && st.open_first > 0) {
    BuildAndCommit(now_ns);
  }
}

void RequestTracePlane::FlushRepliesNow() {
  const ThreadState& st = tls_state;
  if (st.plane_id == plane_id_ && st.open_first > 0) {
    BuildAndCommit(NowNanos());
  }
}

void RequestTracePlane::BuildAndCommit(int64_t now_ns) {
  ThreadState& st = tls_state;
  const size_t count = st.open_first;
  for (size_t i = 0; i < count; i++) {
    const RawCommand& cmd = st.commands[i];
    const BatchMarks& marks = st.batches[cmd.batch];
    RequestTrace t;
    t.trace_id = cmd.trace_id != 0 ? cmd.trace_id : NextServerTraceId();
    t.origin_ns = cmd.origin_ns;
    t.op = cmd.op;
    t.faulted = cmd.faulted;
    t.start_ns = marks.received_ns;
    t.end_ns = now_ns;
    int64_t* stage = t.stage_ns;
    if (t.origin_ns > 0 && t.origin_ns <= t.start_ns) {
      stage[static_cast<size_t>(ReqStage::kClientWait)] =
          t.start_ns - t.origin_ns;
    } else if (t.origin_ns > t.start_ns) {
      // Client clock ahead of receipt: fall back to the server span.
      t.origin_ns = 0;
    }
    // Every command of the batch waited for the one lock acquisition and
    // for the one batch-close drain/commit — both are genuinely part of
    // each request's wall time, so each is charged in full, not amortized.
    stage[static_cast<size_t>(ReqStage::kLockWait)] =
        std::max<int64_t>(0, marks.lock_end_ns - marks.lock_start_ns);
    // The section span is the command span unless a substrate section
    // opened inside the command (on the net path the batch's one section
    // opens before any command, so the command span is the basis).
    // Flush/drain recorded by the device hooks are carved out so the three
    // stages stay disjoint.
    const int64_t handle = std::max<int64_t>(0, cmd.end_ns - cmd.begin_ns);
    const int64_t basis =
        cmd.section_ns > 0 ? std::min(cmd.section_ns, handle) : handle;
    stage[static_cast<size_t>(ReqStage::kFlush)] = cmd.flush_ns;
    stage[static_cast<size_t>(ReqStage::kSection)] =
        std::max<int64_t>(0, basis - cmd.flush_ns - cmd.drain_ns);
    stage[static_cast<size_t>(ReqStage::kDrain)] =
        cmd.drain_ns +
        std::max<int64_t>(0, marks.close_done_ns - marks.exec_done_ns);
    stage[static_cast<size_t>(ReqStage::kReplyWrite)] =
        std::max<int64_t>(0, now_ns - marks.close_done_ns);
    // Batch wait is the residual of the server span over every stage that
    // was measured directly, so the breakdown closes exactly: parse time,
    // time queued behind batchmates in the same read(), and any clock
    // jitter all land here instead of silently leaking.
    int64_t known = 0;
    for (size_t s = 0; s < kReqStageCount; s++) {
      if (s != static_cast<size_t>(ReqStage::kClientWait) &&
          s != static_cast<size_t>(ReqStage::kBatchWait)) {
        known += stage[s];
      }
    }
    stage[static_cast<size_t>(ReqStage::kBatchWait)] =
        std::max<int64_t>(0, t.TotalNs() - known);
    ApplyMitigationSpans(t);
    Commit(t);
  }
  // What is left belongs to a batch still open (FlushReplies between its
  // BeginBatch and EndBatch), which becomes batch 0.
  st.commands.erase(st.commands.begin(),
                    st.commands.begin() + static_cast<ptrdiff_t>(count));
  for (RawCommand& cmd : st.commands) {
    cmd.batch = 0;
  }
  if (st.active >= 0) {
    st.active -= static_cast<int>(count);
  }
  st.open_first = 0;
  st.batches.clear();
}

void RequestTracePlane::AddActiveStage(ReqStage stage, int64_t dur_ns) {
  assert(stage == ReqStage::kFlush || stage == ReqStage::kDrain);
  ThreadState& st = tls_state;
  if (st.active < 0 || dur_ns <= 0) {
    return;
  }
  RawCommand& cmd = st.commands[static_cast<size_t>(st.active)];
  (stage == ReqStage::kDrain ? cmd.drain_ns : cmd.flush_ns) += dur_ns;
}

bool RequestTracePlane::HasActiveCommand() { return tls_state.active >= 0; }

void RequestTracePlane::SectionEnter(int64_t now_ns) {
  ThreadState& st = tls_state;
  if (st.active >= 0 && st.section_depth++ == 0) {
    st.section_start_ns = now_ns;
  }
}

void RequestTracePlane::SectionExit(int64_t now_ns) {
  ThreadState& st = tls_state;
  if (st.active >= 0 && st.section_depth > 0 && --st.section_depth == 0) {
    st.commands[static_cast<size_t>(st.active)].section_ns +=
        now_ns - st.section_start_ns;
  }
}

void RequestTracePlane::MarkMitigationBegin(int64_t now_ns) {
  mitigation_begin_ns_.store(now_ns, std::memory_order_relaxed);
  detector_fired_ns_.store(0, std::memory_order_relaxed);
  mitigation_end_ns_.store(0, std::memory_order_relaxed);
}

void RequestTracePlane::MarkDetectorFired(int64_t now_ns) {
  detector_fired_ns_.store(now_ns, std::memory_order_relaxed);
}

void RequestTracePlane::MarkMitigationEnd(int64_t now_ns) {
  mitigation_end_ns_.store(now_ns, std::memory_order_relaxed);
}

void RequestTracePlane::ApplyMitigationSpans(RequestTrace& t) const {
  const int64_t mb = mitigation_begin_ns_.load(std::memory_order_relaxed);
  const int64_t me = mitigation_end_ns_.load(std::memory_order_relaxed);
  if (mb <= 0 || me < mb) {
    return;  // no completed mitigation window yet
  }
  int64_t md = detector_fired_ns_.load(std::memory_order_relaxed);
  if (md < mb || md > me) {
    md = me;  // detector instant unmarked: the whole window is confirmation
  }
  const auto overlap = [&](int64_t lo, int64_t hi) {
    return std::max<int64_t>(
        0, std::min(hi, t.end_ns) - std::max(lo, t.start_ns));
  };
  const int64_t det_overlap = overlap(mb, md);
  const int64_t rea_overlap = overlap(md, me);
  if (det_overlap == 0 && rea_overlap == 0) {
    return;
  }
  // Reassign queue-ish time (never measured execution) into the mitigation
  // stages, preserving the stage sum. Shave lock wait first (queued batches
  // spend the window there), then batch wait, then reply write (the
  // faulting batch itself waits out mitigation after its close).
  constexpr ReqStage kBudgetStages[] = {ReqStage::kLockWait,
                                        ReqStage::kBatchWait,
                                        ReqStage::kReplyWrite};
  int64_t budget = 0;
  for (const ReqStage s : kBudgetStages) {
    budget += t.stage_ns[static_cast<size_t>(s)];
  }
  int64_t take_det = std::min(det_overlap, budget);
  int64_t take_rea = std::min(rea_overlap, budget - take_det);
  int64_t to_shave = take_det + take_rea;
  if (to_shave == 0) {
    return;
  }
  for (const ReqStage s : kBudgetStages) {
    int64_t& ns = t.stage_ns[static_cast<size_t>(s)];
    const int64_t cut = std::min(ns, to_shave);
    ns -= cut;
    to_shave -= cut;
    if (to_shave == 0) {
      break;
    }
  }
  t.stage_ns[static_cast<size_t>(ReqStage::kDetector)] += take_det;
  t.stage_ns[static_cast<size_t>(ReqStage::kReactor)] += take_rea;
}

void RequestTracePlane::Commit(RequestTrace& t) {
  Ring* ring = LocalRing();
  // The only cross-thread traffic on the commit path: one relaxed
  // fetch_add establishing the total order across rings.
  t.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  t.tid = ring->tid;
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  ring->records[head & (capacity_ - 1)] = t;
  ring->head.store(head + 1, std::memory_order_release);
  OfferReservoir(t);
#ifndef ARTHAS_OBS_DISABLED
  static Histogram& server_hist =
      MetricsRegistry::Global().GetHistogram("net.req.server_ns");
  server_hist.RecordWithExemplar(
      static_cast<uint64_t>(std::max<int64_t>(0, t.TotalNs())), t.trace_id);
  if (t.origin_ns > 0) {
    static Histogram& e2e_hist =
        MetricsRegistry::Global().GetHistogram("net.req.e2e_ns");
    e2e_hist.RecordWithExemplar(
        static_cast<uint64_t>(std::max<int64_t>(0, t.EndToEndNs())),
        t.trace_id);
  }
#endif
}

void RequestTracePlane::OfferReservoir(const RequestTrace& t) {
  const int64_t key = t.EndToEndNs();
  const int64_t threshold =
      reservoir_threshold_ns_.load(std::memory_order_relaxed);
  if (threshold >= 0 && key <= threshold) {
    return;  // reservoir full of slower requests; no lock taken
  }
  const auto slower = [](const RequestTrace& a, const RequestTrace& b) {
    return a.EndToEndNs() > b.EndToEndNs();  // min-heap on e2e
  };
  std::lock_guard<std::mutex> lock(reservoir_mutex_);
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(t);
    std::push_heap(reservoir_.begin(), reservoir_.end(), slower);
    if (reservoir_.size() == kReservoirCapacity) {
      reservoir_threshold_ns_.store(reservoir_.front().EndToEndNs(),
                                    std::memory_order_relaxed);
    }
    return;
  }
  if (key <= reservoir_.front().EndToEndNs()) {
    return;
  }
  std::pop_heap(reservoir_.begin(), reservoir_.end(), slower);
  reservoir_.back() = t;
  std::push_heap(reservoir_.begin(), reservoir_.end(), slower);
  reservoir_threshold_ns_.store(reservoir_.front().EndToEndNs(),
                                std::memory_order_relaxed);
}

std::vector<RequestTrace> RequestTracePlane::SnapshotRings() const {
  std::vector<RequestTrace> out;
  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    for (const auto& ring : pool_->rings) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(head, capacity_);
      out.reserve(out.size() + n);
      for (uint64_t i = head - n; i < head; i++) {
        out.push_back(ring->records[i & (capacity_ - 1)]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<RequestTrace> RequestTracePlane::SlowestRequests(
    size_t limit) const {
  std::vector<RequestTrace> out;
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    out = reservoir_;
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.EndToEndNs() > b.EndToEndNs();
            });
  if (limit != 0 && out.size() > limit) {
    out.resize(limit);
  }
  return out;
}

bool RequestTracePlane::FindTrace(uint64_t trace_id, RequestTrace* out) const {
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    for (const RequestTrace& t : reservoir_) {
      if (t.trace_id == trace_id) {
        *out = t;
        return true;
      }
    }
  }
  std::lock_guard<std::mutex> lock(pool_->mutex);
  for (const auto& ring : pool_->rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(head, capacity_);
    // Newest first: a reused client id should answer with its latest trip.
    for (uint64_t i = head; i > head - n; i--) {
      const RequestTrace& t = ring->records[(i - 1) & (capacity_ - 1)];
      if (t.trace_id == trace_id) {
        *out = t;
        return true;
      }
    }
  }
  return false;
}

uint64_t RequestTracePlane::dropped() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(pool_->mutex);
  for (const auto& ring : pool_->rings) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) {
      dropped += head - capacity_;
    }
  }
  return dropped;
}

void RequestTracePlane::Clear() {
  {
    std::lock_guard<std::mutex> lock(pool_->mutex);
    for (const auto& ring : pool_->rings) {
      ring->head.store(0, std::memory_order_relaxed);
    }
    next_seq_.store(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(reservoir_mutex_);
    reservoir_.clear();
    reservoir_threshold_ns_.store(-1, std::memory_order_relaxed);
  }
  mitigation_begin_ns_.store(0, std::memory_order_relaxed);
  detector_fired_ns_.store(0, std::memory_order_relaxed);
  mitigation_end_ns_.store(0, std::memory_order_relaxed);
}

std::string RequestTracePlane::Autopsy(const RequestTrace& t) {
  std::ostringstream out;
  char head[160];
  std::snprintf(head, sizeof(head),
                "trace %" PRIu64 " op=%s faulted=%s total=%.1fus e2e=%.1fus",
                t.trace_id, OpName(t.op), t.faulted ? "yes" : "no",
                static_cast<double>(t.TotalNs()) / 1000.0,
                static_cast<double>(t.EndToEndNs()) / 1000.0);
  out << head << "\nstages:";
  for (size_t i = 0; i < kReqStageCount; i++) {
    AppendUs(out, ReqStageName(static_cast<ReqStage>(i)), t.stage_ns[i]);
  }
  return out.str();
}

JsonValue RequestTracePlane::TraceJson(const RequestTrace& t) {
  JsonValue v = JsonValue::Object();
  v.Set("trace_id", JsonValue(t.trace_id));
  v.Set("seq", JsonValue(t.seq));
  v.Set("op", JsonValue(OpName(t.op)));
  v.Set("faulted", JsonValue(t.faulted));
  v.Set("origin_ns", JsonValue(t.origin_ns));
  v.Set("start_ns", JsonValue(t.start_ns));
  v.Set("end_ns", JsonValue(t.end_ns));
  v.Set("total_ns", JsonValue(t.TotalNs()));
  v.Set("e2e_ns", JsonValue(t.EndToEndNs()));
  JsonValue stages = JsonValue::Object();
  for (size_t i = 0; i < kReqStageCount; i++) {
    stages.Set(ReqStageName(static_cast<ReqStage>(i)),
               JsonValue(t.stage_ns[i]));
  }
  v.Set("stages", std::move(stages));
  return v;
}

JsonValue RequestTracePlane::ChromeTraceJson(
    const std::vector<RequestTrace>& traces) {
  JsonValue events = JsonValue::Array();
  for (size_t row = 0; row < traces.size(); row++) {
    const RequestTrace& t = traces[row];
    JsonValue meta = JsonValue::Object();
    meta.Set("ph", JsonValue("M"));
    meta.Set("name", JsonValue("thread_name"));
    meta.Set("pid", JsonValue(static_cast<int64_t>(1)));
    meta.Set("tid", JsonValue(static_cast<int64_t>(row)));
    JsonValue margs = JsonValue::Object();
    char label[64];
    std::snprintf(label, sizeof(label), "trace %" PRIu64 " (%s)", t.trace_id,
                  OpName(t.op));
    margs.Set("name", JsonValue(label));
    meta.Set("args", std::move(margs));
    events.Append(std::move(meta));

    // Stages rendered back to back from the request's first instant; the
    // enum order matches their real sequence closely enough to read.
    double cursor_us =
        static_cast<double>(t.origin_ns > 0 ? t.origin_ns : t.start_ns) /
        1000.0;
    for (size_t i = 0; i < kReqStageCount; i++) {
      if (t.stage_ns[i] <= 0) {
        continue;
      }
      JsonValue e = JsonValue::Object();
      e.Set("ph", JsonValue("X"));
      e.Set("cat", JsonValue("reqtrace"));
      e.Set("name", JsonValue(ReqStageName(static_cast<ReqStage>(i))));
      e.Set("pid", JsonValue(static_cast<int64_t>(1)));
      e.Set("tid", JsonValue(static_cast<int64_t>(row)));
      e.Set("ts", JsonValue(cursor_us));
      e.Set("dur", JsonValue(static_cast<double>(t.stage_ns[i]) / 1000.0));
      JsonValue args = JsonValue::Object();
      args.Set("trace_id", JsonValue(t.trace_id));
      e.Set("args", std::move(args));
      events.Append(std::move(e));
      cursor_us += static_cast<double>(t.stage_ns[i]) / 1000.0;
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", JsonValue("ms"));
  return doc;
}

}  // namespace obs
}  // namespace arthas
