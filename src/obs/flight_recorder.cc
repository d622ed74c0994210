#include "obs/flight_recorder.h"

#include <algorithm>
#include <new>
#include <unordered_map>

#include "common/clock.h"

namespace arthas {
namespace obs {

namespace {

uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

uint16_t ThisThreadNumber() {
  // Small sequential numbers (std::thread::id values are neither small nor
  // deterministic) keep artifacts stable and readable across runs.
  static std::atomic<uint16_t> next{1};
  thread_local uint16_t number = next.fetch_add(1);
  return number;
}

const char* FrTypeName(FrType type) {
  switch (type) {
    case FrType::kNone: return "none";
    case FrType::kPersist: return "persist";
    case FrType::kPersistQuiet: return "persist_quiet";
    case FrType::kFlush: return "flush";
    case FrType::kDrain: return "drain";
    case FrType::kLineLost: return "line_lost";
    case FrType::kCrash: return "crash";
    case FrType::kRestore: return "restore";
    case FrType::kTxBegin: return "tx_begin";
    case FrType::kTxAddRange: return "tx_add_range";
    case FrType::kTxCommit: return "tx_commit";
    case FrType::kTxAbort: return "tx_abort";
    case FrType::kAlloc: return "alloc";
    case FrType::kFree: return "free";
    case FrType::kCheckpointTake: return "checkpoint_take";
    case FrType::kCheckpointEvict: return "checkpoint_evict";
    case FrType::kCheckpointRevert: return "checkpoint_revert";
    case FrType::kCheckpointRollback: return "checkpoint_rollback";
    case FrType::kFaultInjected: return "fault_injected";
    case FrType::kFaultRaised: return "fault_raised";
    case FrType::kFaultObserved: return "fault_observed";
    case FrType::kCandidateAccept: return "candidate_accept";
    case FrType::kCandidateReject: return "candidate_reject";
    case FrType::kSectionBegin: return "section_begin";
    case FrType::kSectionCommit: return "section_commit";
    case FrType::kSectionAbort: return "section_abort";
    case FrType::kPhase: return "phase";
  }
  return "unknown";
}

const char* FrPhaseName(FrPhase phase) {
  switch (phase) {
    case FrPhase::kHarnessCell: return "harness.cell";
    case FrPhase::kReactorMitigate: return "reactor.mitigate";
    case FrPhase::kReactorSlice: return "reactor.slice";
    case FrPhase::kReactorSearch: return "reactor.search";
    case FrPhase::kReactorRevert: return "reactor.revert";
    case FrPhase::kReactorReexecute: return "reactor.reexecute";
  }
  return "unknown";
}

const char* FrPhaseArgName(FrPhase phase) {
  switch (phase) {
    case FrPhase::kReactorSlice: return "instructions";
    case FrPhase::kReactorSearch: return "candidates";
    default: return nullptr;
  }
}

const char* FrReasonName(FrReason reason) {
  switch (reason) {
    case FrReason::kNone: return "none";
    case FrReason::kNeverFlushed: return "never_flushed";
    case FrReason::kFlushedNotDrained: return "flushed_not_drained";
    case FrReason::kAtFaultAddress: return "at_fault_address";
    case FrReason::kSliceDependency: return "slice_dependency";
    case FrReason::kVersionRetry: return "version_retry";
    case FrReason::kVersionEvicted: return "version_evicted";
    case FrReason::kRevertFailed: return "revert_failed";
    case FrReason::kNoCure: return "no_cure";
    case FrReason::kRecovered: return "recovered";
    case FrReason::kDivergence: return "divergence";
    case FrReason::kOpenAtCrash: return "open_at_crash";
  }
  return "unknown";
}

namespace {
size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}
}  // namespace

FlightRecorder::FlightRecorder(size_t ring_capacity)
    : capacity_(RoundUpPow2(std::max<size_t>(ring_capacity, 2))),
      recorder_id_(NextRecorderId()) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder& FlightRecorder::Global() {
  // Leaked: post-crash forensics must outlive every device and even main()
  // teardown order (ObsArtifactWriter destructors read it).
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder& FlightRecorder::Phases() {
  // Leaked like Global(). 4096 records per thread, the power of two above
  // the busiest thread of any bench (bench_mitigation_time: 2,886 phases,
  // all on its main thread). A thread past that loses its oldest phases;
  // the trace artifact reports them as dropped_phases.
  static FlightRecorder* recorder = new FlightRecorder(4096);
  return *recorder;
}

FlightRecorder::Ring::Ring(size_t capacity, uint16_t tid)
    : records(static_cast<FlightRecord*>(
          std::calloc(capacity, sizeof(FlightRecord)))),
      tid(tid) {
  if (records == nullptr) {
    throw std::bad_alloc();
  }
}

FlightRecorder::Ring* FlightRecorder::LocalRing() {
  // One-entry cache for the common case, every record of a stretch going
  // to one recorder; the map holds this thread's ring in each recorder it
  // has used (Global() and Phases() alternate on the reactor's thread).
  // Recorder ids are never reused, so a stale entry for a destroyed test
  // recorder can never match a live one.
  thread_local uint64_t cached_id = 0;
  thread_local Ring* cached_ring = nullptr;
  if (cached_id == recorder_id_) {
    return cached_ring;
  }
  thread_local std::unordered_map<uint64_t, Ring*> rings;
  Ring*& ring = rings[recorder_id_];
  if (ring == nullptr) {
    // First event from this thread for this recorder: register a ring.
    // Rings are owned by the recorder and outlive their thread, so a
    // snapshot after a worker joins still sees its events.
    std::lock_guard<std::mutex> lock(registry_mutex_);
    rings_.push_back(std::make_unique<Ring>(capacity_, ThisThreadNumber()));
    ring = rings_.back().get();
  }
  cached_id = recorder_id_;
  cached_ring = ring;
  return ring;
}

void FlightRecorder::Record(FrType type, uint32_t device_id, uint64_t addr,
                            uint64_t size, uint64_t arg, FrReason reason) {
  if (!enabled()) {
    return;
  }
  Ring* ring = LocalRing();
  // The only cross-thread traffic on the hot path: one relaxed fetch_add
  // establishing the total order. No CAS loop, no lock.
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  FlightRecord& r = ring->records[head & (capacity_ - 1)];
  r.seq = seq;
  r.ts_ns = NowNanos();
  r.addr = addr;
  r.size = size;
  r.arg = arg;
  r.device_id = device_id;
  r.tid = ring->tid;
  r.type = type;
  r.reason = reason;
  ring->head.store(head + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& ring : rings_) {
      const uint64_t head = ring->head.load(std::memory_order_acquire);
      const uint64_t n = std::min<uint64_t>(head, capacity_);
      out.reserve(out.size() + n);
      // Oldest retained record first: wraparound overwrote anything before
      // head - capacity.
      for (uint64_t i = head - n; i < head; i++) {
        out.push_back(ring->records[i & (capacity_ - 1)]);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint64_t FlightRecorder::dropped() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    if (head > capacity_) {
      dropped += head - capacity_;
    }
  }
  return dropped;
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_relaxed);
  }
  next_seq_.store(1, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace arthas
