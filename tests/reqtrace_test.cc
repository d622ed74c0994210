// Request-trace plane invariants: exact stage-sum closure on synthetic
// timestamps, id assignment, ring wraparound accounting, slowest-request
// reservoir ordering, mitigation-window reassignment, a multi-thread
// commit/snapshot race (the TSan job runs this file), ring reuse across
// exiting threads, one thread number shared with the flight recorder, and
// equivalence with a reference model of the lifecycle
// that built each trace under the request lock.

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/reqtrace.h"

namespace arthas {
namespace obs {
namespace {

constexpr size_t kS = kReqStageCount;

int64_t Stage(const RequestTrace& t, ReqStage s) {
  return t.stage_ns[static_cast<size_t>(s)];
}

// Full single-command lifecycle with no stage scopes: the whole server span
// collapses into section/drain/reply_write/batch_wait residuals.
void CommitTrace(RequestTracePlane& plane, uint64_t id, int64_t origin_ns,
                 int64_t start_ns, int64_t end_ns) {
  plane.BeginBatch(start_ns);
  plane.BeginCommand(id, origin_ns, /*op=*/1, start_ns);
  plane.EndCommand(start_ns, /*faulted=*/false);
  plane.EndBatch(start_ns, start_ns, start_ns, start_ns);
  plane.FlushReplies(end_ns);
}

TEST(ReqTraceTest, ExactClosureOnSyntheticTimestamps) {
  RequestTracePlane plane(16);
  plane.BeginBatch(/*received_ns=*/1000);
  plane.BeginCommand(/*trace_id=*/7, /*origin_ns=*/400, /*op=*/2,
                     /*now_ns=*/1100);
  RequestTracePlane::SectionEnter(1200);
  RequestTracePlane::AddActiveStage(ReqStage::kFlush, 40);
  RequestTracePlane::AddActiveStage(ReqStage::kDrain, 60);
  RequestTracePlane::SectionExit(1500);
  plane.EndCommand(1600, /*faulted=*/false);
  plane.EndBatch(/*lock_start_ns=*/1000, /*lock_end_ns=*/1050,
                 /*exec_done_ns=*/1700, /*close_done_ns=*/1800);
  plane.FlushReplies(/*now_ns=*/2000);

  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(t.trace_id, 7u);
  EXPECT_EQ(t.origin_ns, 400);
  EXPECT_EQ(t.start_ns, 1000);
  EXPECT_EQ(t.end_ns, 2000);
  EXPECT_EQ(t.TotalNs(), 1000);
  EXPECT_EQ(t.EndToEndNs(), 1600);

  EXPECT_EQ(Stage(t, ReqStage::kClientWait), 600);  // start - origin
  EXPECT_EQ(Stage(t, ReqStage::kLockWait), 50);
  // Section span 300, minus the 100 ns the flush/drain device hooks carved
  // out of it — the three stages must stay disjoint.
  EXPECT_EQ(Stage(t, ReqStage::kSection), 200);
  EXPECT_EQ(Stage(t, ReqStage::kFlush), 40);
  // 60 ns measured in-section plus the 100 ns batch-close window.
  EXPECT_EQ(Stage(t, ReqStage::kDrain), 160);
  EXPECT_EQ(Stage(t, ReqStage::kReplyWrite), 200);  // flush - close_done
  // Residual: everything the direct stages did not measure.
  EXPECT_EQ(Stage(t, ReqStage::kBatchWait), 350);
  // Closure is exact by construction: stage sum == end-to-end time.
  EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());
}

TEST(ReqTraceTest, ServerIdsAssignedAboveBase) {
  RequestTracePlane plane(16);
  CommitTrace(plane, /*id=*/0, /*origin=*/0, 100, 200);
  CommitTrace(plane, /*id=*/0, /*origin=*/0, 300, 400);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_GE(traces[0].trace_id, RequestTracePlane::kServerIdBase);
  EXPECT_EQ(traces[1].trace_id, traces[0].trace_id + 1);
}

TEST(ReqTraceTest, FutureOriginFallsBackToServerSpan) {
  // A propagated origin *after* receipt means the client clock ran ahead;
  // the trace keeps the id but drops the origin instead of inventing a
  // negative client wait.
  RequestTracePlane plane(16);
  CommitTrace(plane, /*id=*/9, /*origin=*/5000, /*start=*/1000,
              /*end=*/2000);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].trace_id, 9u);
  EXPECT_EQ(traces[0].origin_ns, 0);
  EXPECT_EQ(Stage(traces[0], ReqStage::kClientWait), 0);
  EXPECT_EQ(traces[0].EndToEndNs(), traces[0].TotalNs());
  EXPECT_EQ(traces[0].StageSumNs(), traces[0].EndToEndNs());
}

TEST(ReqTraceTest, RingWraparoundCountsDropped) {
  RequestTracePlane plane(4);
  ASSERT_EQ(plane.ring_capacity(), 4u);
  for (uint64_t i = 1; i <= 6; i++) {
    CommitTrace(plane, i, /*origin=*/0, 1000 * static_cast<int64_t>(i),
                1000 * static_cast<int64_t>(i) + 100);
  }
  EXPECT_EQ(plane.total_traced(), 6u);
  EXPECT_EQ(plane.dropped(), 2u);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 4u);
  // Only the newest four survive, in commit order.
  EXPECT_EQ(traces.front().trace_id, 3u);
  EXPECT_EQ(traces.back().trace_id, 6u);
}

TEST(ReqTraceTest, ReservoirKeepsSlowestAcrossWraparound) {
  // The slowest request (id 1) wraps out of the ring but must stay
  // findable: the reservoir is what makes a late TRACE autopsy work.
  RequestTracePlane plane(4);
  CommitTrace(plane, 1, /*origin=*/100, /*start=*/1000, /*end=*/90000);
  for (uint64_t i = 2; i <= 8; i++) {
    const int64_t start = 1000 * static_cast<int64_t>(i);
    CommitTrace(plane, i, start - 50, start, start + 100);
  }
  EXPECT_GT(plane.dropped(), 0u);

  const std::vector<RequestTrace> slowest = plane.SlowestRequests();
  ASSERT_GE(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].trace_id, 1u);
  for (size_t i = 1; i < slowest.size(); i++) {
    EXPECT_GE(slowest[i - 1].EndToEndNs(), slowest[i].EndToEndNs());
  }

  RequestTrace found;
  ASSERT_TRUE(plane.FindTrace(1, &found));
  EXPECT_EQ(found.EndToEndNs(), 90000 - 100);
  EXPECT_FALSE(plane.FindTrace(999, &found));
}

TEST(ReqTraceTest, MitigationWindowReassignsQueueTime) {
  RequestTracePlane plane(16);
  plane.MarkMitigationBegin(2000);
  plane.MarkDetectorFired(5000);
  plane.MarkMitigationEnd(9000);
  // One request received at 1000 whose reply only flushes at 11000: the
  // 10000 ns it spent waiting overlaps the whole mitigation window.
  CommitTrace(plane, 42, /*origin=*/0, /*start=*/1000, /*end=*/11000);

  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  // [begin, detector] overlap is 3000, [detector, end] overlap is 4000;
  // both come out of the reply-write wait, sum-preserving.
  EXPECT_EQ(Stage(t, ReqStage::kDetector), 3000);
  EXPECT_EQ(Stage(t, ReqStage::kReactor), 4000);
  EXPECT_EQ(Stage(t, ReqStage::kReplyWrite), 3000);
  EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());

  // A request entirely before the window is untouched.
  plane.Clear();
  plane.MarkMitigationBegin(500000);
  plane.MarkDetectorFired(500100);
  plane.MarkMitigationEnd(500200);
  CommitTrace(plane, 43, /*origin=*/0, /*start=*/1000, /*end=*/2000);
  const std::vector<RequestTrace> before = plane.SnapshotRings();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(Stage(before[0], ReqStage::kDetector), 0);
  EXPECT_EQ(Stage(before[0], ReqStage::kReactor), 0);
}

TEST(ReqTraceTest, DisabledPlaneTracesNothing) {
  RequestTracePlane plane(16);
  plane.set_enabled(false);
  CommitTrace(plane, 5, /*origin=*/0, 1000, 2000);
  EXPECT_EQ(plane.total_traced(), 0u);
  EXPECT_TRUE(plane.SnapshotRings().empty());
  plane.set_enabled(true);
  CommitTrace(plane, 5, /*origin=*/0, 1000, 2000);
  EXPECT_EQ(plane.total_traced(), 1u);
}

TEST(ReqTraceTest, FourThreadCommitSnapshotRace) {
  // Four committer threads race SnapshotRings/SlowestRequests/FindTrace
  // readers; TSan (tests are in the tsan CI job) checks the release/acquire
  // pairing on ring heads, and the seq order must come out total.
  RequestTracePlane plane(1024);
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 200;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    RequestTrace found;
    while (!stop.load(std::memory_order_relaxed)) {
      (void)plane.SnapshotRings();
      (void)plane.SlowestRequests(8);
      (void)plane.FindTrace(1, &found);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; w++) {
    writers.emplace_back([&plane, w] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        const uint64_t id = static_cast<uint64_t>(w) * kPerThread + i + 1;
        const int64_t start = static_cast<int64_t>(id) * 10;
        CommitTrace(plane, id, start - 5, start, start + 7);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(plane.total_traced(), kThreads * kPerThread);
  EXPECT_EQ(plane.dropped(), 0u);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), kThreads * kPerThread);
  for (size_t i = 1; i < traces.size(); i++) {
    EXPECT_LT(traces[i - 1].seq, traces[i].seq);
  }
  for (const RequestTrace& t : traces) {
    EXPECT_EQ(t.StageSumNs(), t.EndToEndNs());
  }
}

TEST(ReqTraceTest, AutopsyAndJsonExports) {
  RequestTracePlane plane(16);
  CommitTrace(plane, 7, /*origin=*/400, /*start=*/1000, /*end=*/2000);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_EQ(traces.size(), 1u);

  const std::string autopsy = RequestTracePlane::Autopsy(traces[0]);
  EXPECT_NE(autopsy.find("trace 7"), std::string::npos);
  for (size_t i = 0; i < kS; i++) {
    EXPECT_NE(autopsy.find(ReqStageName(static_cast<ReqStage>(i))),
              std::string::npos);
  }

  const std::string json = RequestTracePlane::TraceJson(traces[0]).Dump();
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"client_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ns\""), std::string::npos);

  const std::string chrome =
      RequestTracePlane::ChromeTraceJson(traces).Dump();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"reqtrace\""), std::string::npos);
}

TEST(ReqTraceTest, ExitedThreadsHandTheirRingBack) {
  // 50 short-lived threads, one after another: each exiting thread's ring
  // goes back to the plane, so all of them share one ring instead of
  // leaving 50 behind.
  RequestTracePlane plane(16);
  for (uint64_t w = 0; w < 50; w++) {
    std::thread([&plane, w] {
      for (uint64_t i = 1; i <= 10; i++) {
        const uint64_t id = w * 10 + i;
        const int64_t start = static_cast<int64_t>(id) * 1000;
        CommitTrace(plane, id, /*origin=*/0, start, start + 100);
      }
    }).join();
  }
  EXPECT_EQ(plane.total_traced(), 500u);
  const std::vector<RequestTrace> traces = plane.SnapshotRings();
  ASSERT_LE(traces.size(), 16u);
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(plane.dropped(), 500u - traces.size());
  // The newest traces survive, including those the previous owner of the
  // ring committed before it exited.
  EXPECT_EQ(traces.back().trace_id, 500u);
  EXPECT_EQ(traces.front().trace_id, 500u - traces.size() + 1);
  RequestTrace found;
  EXPECT_TRUE(plane.FindTrace(488, &found));
  for (size_t i = 1; i < traces.size(); i++) {
    EXPECT_EQ(traces[i].seq, traces[i - 1].seq + 1);
  }
}

TEST(ReqTraceTest, ThreadOutlivingItsPlaneTouchesNoFreedMemory) {
  // The worker commits into a local plane, which is destroyed before the
  // worker exits: handing its ring back must find the plane gone (the ASan
  // job would report the freed ring pool otherwise).
  auto plane = std::make_unique<RequestTracePlane>(16);
  std::atomic<int> step{0};
  std::thread worker([&plane, &step] {
    CommitTrace(*plane, 1, /*origin=*/0, 1000, 1100);
    step.store(1);
    while (step.load() != 2) {
      std::this_thread::yield();
    }
  });
  while (step.load() != 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(plane->total_traced(), 1u);
  plane.reset();
  step.store(2);
  worker.join();

  // A fresh plane on this thread still works after the worker is gone.
  RequestTracePlane next(16);
  CommitTrace(next, 2, /*origin=*/0, 1000, 1100);
  EXPECT_EQ(next.SnapshotRings().size(), 1u);
}

// A thread carries one number in the trace plane and the flight recorder,
// so a TRACE autopsy joins the forensics report's last_writer_tid. Thread A
// records a flight event only: with a counter per plane it would shift the
// two apart, and B1 or B2 would disagree.
TEST(ReqTraceTest, TraceTidIsTheFlightRecorderThreadNumber) {
  FlightRecorder recorder(16);
  RequestTracePlane plane(16);
  auto record_and_trace = [&recorder, &plane](uint64_t id) {
    recorder.Record(FrType::kPersist, 1, /*addr=*/id, 8, 0);
    CommitTrace(plane, id, /*origin=*/0, 1000, 1100);
  };
  std::thread(record_and_trace, 1).join();  // B1
  std::thread([&recorder] {
    recorder.Record(FrType::kPersist, 1, /*addr=*/99, 8, 0);
  }).join();                                // A
  std::thread(record_and_trace, 2).join();  // B2

  std::vector<uint16_t> recorder_tid(3);
  for (const FlightRecord& r : recorder.Snapshot()) {
    if (r.addr < recorder_tid.size()) {
      recorder_tid[r.addr] = r.tid;
    }
  }
  for (uint64_t id = 1; id <= 2; id++) {
    RequestTrace trace;
    ASSERT_TRUE(plane.FindTrace(id, &trace));
    EXPECT_NE(trace.tid, 0);
    EXPECT_EQ(trace.tid, recorder_tid[id]) << "thread B" << id;
  }
}

// The lifecycle as it was before the plane recorded raw stamps under the
// request lock: each trace is built in EndBatch and finished in
// FlushReplies, with the same hooks and arguments. One deliberate
// difference: server ids are drawn when a trace commits, as the plane now
// does, so a command dropped with an abandoned batch uses up no id.
class ReferenceLifecycle {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void MarkMitigation(int64_t begin_ns, int64_t detector_ns, int64_t end_ns) {
    mitigation_begin_ns_ = begin_ns;
    detector_fired_ns_ = detector_ns;
    mitigation_end_ns_ = end_ns;
  }

  void BeginBatch(int64_t received_ns) {
    if (!enabled_) {
      batch_active_ = false;
      return;
    }
    batch_active_ = true;
    batch_received_ns_ = received_ns;
    batch_.clear();
    active_ = -1;
  }
  void BeginCommand(uint64_t trace_id, int64_t origin_ns, uint8_t op,
                    int64_t now_ns) {
    if (!batch_active_) {
      return;
    }
    Pending cmd;
    cmd.trace.trace_id = trace_id;
    cmd.trace.origin_ns = origin_ns;
    cmd.trace.op = op;
    cmd.begin_ns = now_ns;
    batch_.push_back(cmd);
    active_ = static_cast<int>(batch_.size()) - 1;
  }
  void EndCommand(int64_t now_ns, bool faulted) {
    if (!batch_active_ || active_ < 0) {
      return;
    }
    Pending& cmd = batch_[static_cast<size_t>(active_)];
    cmd.end_ns = now_ns;
    cmd.trace.faulted = faulted;
    if (cmd.section_depth > 0) {
      cmd.section_accum_ns += now_ns - cmd.section_start_ns;
      cmd.section_depth = 0;
    }
    active_ = -1;
  }
  void AddActiveStage(ReqStage stage, int64_t dur_ns) {
    if (!batch_active_ || active_ < 0 || dur_ns <= 0) {
      return;
    }
    batch_[static_cast<size_t>(active_)]
        .trace.stage_ns[static_cast<size_t>(stage)] += dur_ns;
  }
  void SectionEnter(int64_t now_ns) {
    if (!batch_active_ || active_ < 0) {
      return;
    }
    Pending& cmd = batch_[static_cast<size_t>(active_)];
    if (cmd.section_depth++ == 0) {
      cmd.section_start_ns = now_ns;
    }
  }
  void SectionExit(int64_t now_ns) {
    if (!batch_active_ || active_ < 0) {
      return;
    }
    Pending& cmd = batch_[static_cast<size_t>(active_)];
    if (cmd.section_depth > 0 && --cmd.section_depth == 0) {
      cmd.section_accum_ns += now_ns - cmd.section_start_ns;
    }
  }
  void EndBatch(int64_t lock_start_ns, int64_t lock_end_ns,
                int64_t exec_done_ns, int64_t close_done_ns) {
    if (!batch_active_) {
      return;
    }
    const int64_t lock_wait = std::max<int64_t>(0, lock_end_ns - lock_start_ns);
    const int64_t close_window =
        std::max<int64_t>(0, close_done_ns - exec_done_ns);
    for (Pending& cmd : batch_) {
      RequestTrace& t = cmd.trace;
      t.start_ns = batch_received_ns_;
      if (t.origin_ns > 0 && t.origin_ns <= t.start_ns) {
        t.stage_ns[static_cast<size_t>(ReqStage::kClientWait)] =
            t.start_ns - t.origin_ns;
      } else if (t.origin_ns > t.start_ns) {
        t.origin_ns = 0;
      }
      t.stage_ns[static_cast<size_t>(ReqStage::kLockWait)] += lock_wait;
      const int64_t handle = std::max<int64_t>(0, cmd.end_ns - cmd.begin_ns);
      const int64_t basis = cmd.section_accum_ns > 0
                                ? std::min(cmd.section_accum_ns, handle)
                                : handle;
      const int64_t carved =
          t.stage_ns[static_cast<size_t>(ReqStage::kFlush)] +
          t.stage_ns[static_cast<size_t>(ReqStage::kDrain)];
      t.stage_ns[static_cast<size_t>(ReqStage::kSection)] +=
          std::max<int64_t>(0, basis - carved);
      t.stage_ns[static_cast<size_t>(ReqStage::kDrain)] += close_window;
      awaiting_.push_back(Awaiting{t, close_done_ns});
    }
    batch_.clear();
    active_ = -1;
    batch_active_ = false;
  }
  void FlushReplies(int64_t now_ns) {
    for (Awaiting& a : awaiting_) {
      RequestTrace& t = a.trace;
      t.end_ns = now_ns;
      t.stage_ns[static_cast<size_t>(ReqStage::kReplyWrite)] +=
          std::max<int64_t>(0, now_ns - a.close_done_ns);
      int64_t known = 0;
      for (size_t i = 0; i < kS; i++) {
        if (i != static_cast<size_t>(ReqStage::kClientWait) &&
            i != static_cast<size_t>(ReqStage::kBatchWait)) {
          known += t.stage_ns[i];
        }
      }
      t.stage_ns[static_cast<size_t>(ReqStage::kBatchWait)] =
          std::max<int64_t>(0, t.TotalNs() - known);
      ApplyMitigationSpans(t);
      if (t.trace_id == 0) {
        t.trace_id = RequestTracePlane::kServerIdBase + next_server_id_++;
      }
      t.seq = committed.size() + 1;
      committed.push_back(t);
    }
    awaiting_.clear();
  }

  std::vector<RequestTrace> committed;

 private:
  struct Pending {
    RequestTrace trace;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    int64_t section_accum_ns = 0;
    int64_t section_start_ns = 0;
    int section_depth = 0;
  };
  struct Awaiting {
    RequestTrace trace;
    int64_t close_done_ns = 0;
  };

  void ApplyMitigationSpans(RequestTrace& t) const {
    const int64_t mb = mitigation_begin_ns_;
    const int64_t me = mitigation_end_ns_;
    if (mb <= 0 || me < mb) {
      return;
    }
    int64_t md = detector_fired_ns_;
    if (md < mb || md > me) {
      md = me;
    }
    const auto overlap = [&](int64_t lo, int64_t hi) {
      return std::max<int64_t>(
          0, std::min(hi, t.end_ns) - std::max(lo, t.start_ns));
    };
    const int64_t det_overlap = overlap(mb, md);
    const int64_t rea_overlap = overlap(md, me);
    constexpr ReqStage kBudgetStages[] = {ReqStage::kLockWait,
                                          ReqStage::kBatchWait,
                                          ReqStage::kReplyWrite};
    int64_t budget = 0;
    for (const ReqStage s : kBudgetStages) {
      budget += t.stage_ns[static_cast<size_t>(s)];
    }
    const int64_t take_det = std::min(det_overlap, budget);
    const int64_t take_rea = std::min(rea_overlap, budget - take_det);
    int64_t to_shave = take_det + take_rea;
    for (const ReqStage s : kBudgetStages) {
      int64_t& ns = t.stage_ns[static_cast<size_t>(s)];
      const int64_t cut = std::min(ns, to_shave);
      ns -= cut;
      to_shave -= cut;
    }
    t.stage_ns[static_cast<size_t>(ReqStage::kDetector)] += take_det;
    t.stage_ns[static_cast<size_t>(ReqStage::kReactor)] += take_rea;
  }

  bool enabled_ = true;
  bool batch_active_ = false;
  int64_t batch_received_ns_ = 0;
  std::vector<Pending> batch_;
  int active_ = -1;
  std::vector<Awaiting> awaiting_;
  uint64_t next_server_id_ = 1;
  int64_t mitigation_begin_ns_ = 0;
  int64_t detector_fired_ns_ = 0;
  int64_t mitigation_end_ns_ = 0;
};

// Applies every hook to the plane and to the reference model alike.
class BothModels {
 public:
  BothModels(RequestTracePlane& plane, ReferenceLifecycle& ref)
      : plane_(plane), ref_(ref) {}
  void SetEnabled(bool on) {
    plane_.set_enabled(on);
    ref_.set_enabled(on);
  }
  void MarkMitigation(int64_t begin_ns, int64_t detector_ns, int64_t end_ns) {
    plane_.MarkMitigationBegin(begin_ns);
    plane_.MarkDetectorFired(detector_ns);
    plane_.MarkMitigationEnd(end_ns);
    ref_.MarkMitigation(begin_ns, detector_ns, end_ns);
  }
  void BeginBatch(int64_t t) {
    plane_.BeginBatch(t);
    ref_.BeginBatch(t);
  }
  void BeginCommand(uint64_t id, int64_t origin, uint8_t op, int64_t t) {
    RequestTracePlane::BeginCommand(id, origin, op, t);
    ref_.BeginCommand(id, origin, op, t);
  }
  void EndCommand(int64_t t, bool faulted) {
    RequestTracePlane::EndCommand(t, faulted);
    ref_.EndCommand(t, faulted);
  }
  void AddActiveStage(ReqStage stage, int64_t dur) {
    RequestTracePlane::AddActiveStage(stage, dur);
    ref_.AddActiveStage(stage, dur);
  }
  void SectionEnter(int64_t t) {
    RequestTracePlane::SectionEnter(t);
    ref_.SectionEnter(t);
  }
  void SectionExit(int64_t t) {
    RequestTracePlane::SectionExit(t);
    ref_.SectionExit(t);
  }
  void EndBatch(int64_t a, int64_t b, int64_t c, int64_t d) {
    RequestTracePlane::EndBatch(a, b, c, d);
    ref_.EndBatch(a, b, c, d);
  }
  void FlushReplies(int64_t t) {
    plane_.FlushReplies(t);
    ref_.FlushReplies(t);
  }

 private:
  RequestTracePlane& plane_;
  ReferenceLifecycle& ref_;
};

void ExpectSameTrace(const RequestTrace& got, const RequestTrace& want,
                     size_t index) {
  EXPECT_EQ(got.trace_id, want.trace_id) << "trace " << index;
  EXPECT_EQ(got.seq, want.seq) << "trace " << index;
  EXPECT_EQ(got.origin_ns, want.origin_ns) << "trace " << index;
  EXPECT_EQ(got.start_ns, want.start_ns) << "trace " << index;
  EXPECT_EQ(got.end_ns, want.end_ns) << "trace " << index;
  for (size_t s = 0; s < kS; s++) {
    EXPECT_EQ(got.stage_ns[s], want.stage_ns[s])
        << "trace " << index << " stage "
        << ReqStageName(static_cast<ReqStage>(s));
  }
  EXPECT_EQ(got.op, want.op) << "trace " << index;
  EXPECT_EQ(got.faulted, want.faulted) << "trace " << index;
}

TEST(ReqTraceTest, RawStampsBuildTheReferenceTraces) {
  // Randomized hook sequences of the shape the dispatcher and the deep
  // hooks produce: batches of 1-64 commands, flush/drain adds, nested
  // sections (some left open by a fault), client origins before and after
  // receipt, faulted commands, abandoned batches, disabled stretches,
  // several batches per flush, flushes in the middle of a batch and of a
  // command, marks out of order, and a mitigation window.
  for (uint32_t seed = 1; seed <= 20; seed++) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](int64_t lo, int64_t hi) {
      return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
    };
    RequestTracePlane plane(1 << 16);
    ReferenceLifecycle ref;
    BothModels both(plane, ref);
    int64_t now = 1'000'000;
    const auto tick = [&](int64_t lo, int64_t hi) {
      return now += pick(lo, hi);
    };
    uint64_t next_client_id = 1;

    for (int flush = 0; flush < 40; flush++) {
      if (pick(0, 9) == 0) {
        const int64_t begin = now + pick(-5'000, 20'000);
        const int64_t detector = begin + pick(-100, 8'000);
        both.MarkMitigation(begin, detector, detector + pick(0, 8'000));
      }
      const bool disabled = pick(0, 9) == 0;
      both.SetEnabled(!disabled);
      const int64_t batches = pick(1, 4);
      for (int64_t b = 0; b < batches; b++) {
        const int64_t received = tick(100, 2'000);
        both.BeginBatch(received);
        int64_t lock_start = tick(0, 300);
        int64_t lock_end = tick(0, 3'000);
        const bool jitter = pick(0, 9) == 0;  // marks out of order
        if (jitter) {
          std::swap(lock_start, lock_end);
        }
        const int64_t commands = pick(1, 64);
        const bool abandon = pick(0, 7) == 0;
        // Half the batches flush inside the batch; the others leave their
        // commands for a flush that takes several batches at once.
        const bool mid_flushes = pick(0, 1) == 0;
        const int64_t last = abandon ? pick(0, commands - 1) : commands;
        for (int64_t c = 0; c < commands && c <= last; c++) {
          uint64_t id = 0;
          int64_t origin = 0;
          switch (pick(0, 3)) {
            case 0:
              break;  // no context: the server draws an id
            case 1:
              id = next_client_id++;
              break;
            case 2:
              id = next_client_id++;
              origin = received - pick(0, 50'000);  // before receipt
              break;
            default:
              id = next_client_id++;
              origin = received + pick(1, 5'000);  // client clock ahead
              break;
          }
          both.BeginCommand(id, origin, static_cast<uint8_t>(pick(0, 12)),
                            tick(0, 200));
          int depth = 0;
          for (int64_t h = pick(0, 8); h > 0; h--) {
            switch (pick(0, 12)) {
              case 0:
              case 1:
              case 2:
                both.AddActiveStage(ReqStage::kFlush, pick(-5, 400));
                break;
              case 3:
              case 4:
              case 5:
                both.AddActiveStage(ReqStage::kDrain, pick(-5, 900));
                break;
              case 6:
              case 7:
              case 8:
              case 9:
                both.SectionEnter(tick(0, 300));
                depth++;
                break;
              case 10:
              case 11:
                // Sometimes one exit too many: unbalanced exits are no-ops.
                both.SectionExit(tick(0, 300));
                depth = std::max(0, depth - 1);
                break;
              default:
                // Mid-command: commits the earlier batches only, and the
                // hooks that follow still land on this command.
                if (mid_flushes) {
                  both.FlushReplies(tick(0, 1'000));
                }
                break;
            }
          }
          if (abandon && c == last) {
            break;  // the batch dies mid-command, maybe inside a section
          }
          const bool faulted = pick(0, 15) == 0;
          for (; depth > 0 && !faulted; depth--) {
            both.SectionExit(tick(0, 300));
          }
          both.EndCommand(tick(0, 500), faulted);
          if (mid_flushes && pick(0, 19) == 0) {
            both.FlushReplies(tick(0, 1'000));  // earlier batches only
          }
        }
        if (abandon) {
          continue;
        }
        int64_t exec_done = tick(0, 200);
        int64_t close_done = tick(0, 4'000);
        if (jitter) {
          std::swap(exec_done, close_done);
        }
        both.EndBatch(lock_start, lock_end, exec_done, close_done);
        // Hooks between batches touch no command.
        both.AddActiveStage(ReqStage::kDrain, 50);
        both.SectionEnter(now);
        both.SectionExit(now + 10);
      }
      both.FlushReplies(tick(0, 3'000));
    }

    const std::vector<RequestTrace> got = plane.SnapshotRings();
    ASSERT_EQ(got.size(), ref.committed.size()) << "seed " << seed;
    ASSERT_GT(got.size(), 100u) << "seed " << seed;
    for (size_t i = 0; i < got.size(); i++) {
      ExpectSameTrace(got[i], ref.committed[i], i);
      EXPECT_EQ(got[i].tid, got[0].tid);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "first mismatch at seed " << seed;
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace arthas
