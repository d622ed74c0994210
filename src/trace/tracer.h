// Lightweight runtime PM-address tracing (paper Section 4.1, step 1).
//
// The instrumented target system calls Record(guid, address) just before
// each PM instruction executes. To keep the overhead negligible (Table 8),
// events are buffered in memory and flushed in batches, mirroring the
// paper's inlined tracing with asynchronous file flushing. The reactor
// consumes the trace to learn which dynamic PM addresses each static
// instruction (GUID) touched.
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * Record() is thread-safe and mostly lock-free: each thread appends to
//     its own buffer (registered with the tracer on first use) and takes
//     the archive lock only when its buffer fills. Event indexes come from
//     one atomic counter, so the archive preserves a total event order even
//     across threads (buffers are merged by index at flush time).
//   * The epoch operations — Flush() of *all* thread buffers, Events(),
//     the Serialize/query family, Clear(), set_enabled() — are
//     caller-serialized: run them while no thread is inside Record() (the
//     harness joins or quiesces workers first), exactly as the paper's
//     trace files are read only after the target stops.

#ifndef ARTHAS_TRACE_TRACER_H_
#define ARTHAS_TRACE_TRACER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/ir.h"
#include "pmem/device.h"

namespace arthas {

struct TraceEvent {
  Guid guid = kNoGuid;
  PmOffset address = kNullPmOffset;
  uint64_t index = 0;  // monotonically increasing event number
};

// Fields are atomics: `records` doubles as the global event-index source.
struct TracerStats {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> buffer_flushes{0};
};

class Tracer {
 public:
  // `buffer_capacity` events are held per thread before an automatic flush
  // to the archive (the paper flushes the in-memory buffer to a file when
  // full).
  explicit Tracer(size_t buffer_capacity = 4096);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Fast path, called by instrumented PM call sites. Thread-safe; appends
  // to the calling thread's buffer.
  void Record(Guid guid, PmOffset address);

  // Toggles instrumentation, for the overhead ablation of Table 8 (a
  // vanilla binary simply has no tracing calls). Caller-serialized.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Moves every thread's buffered events to the archive (simulates the
  // async file flush; also called when the system stops). An epoch
  // operation: caller-serialized.
  void Flush();

  // Snapshot of everything recorded so far, in event-index order (flushes
  // first). Returned by value: the archive may be re-sorted by a concurrent
  // Record-triggered flush, so a reference would be invalidated mid-
  // iteration.
  std::vector<TraceEvent> Events();

  // Number of events recorded so far (flushes first). An epoch operation.
  // Use this (or ForEachEvent) instead of Events().size(): Events() copies
  // the whole archive per call.
  uint64_t EventCount();

  // Visits every archived event in event-index order without copying the
  // archive (flushes first). An epoch operation; `fn` must not call back
  // into this tracer.
  void ForEachEvent(const std::function<void(const TraceEvent&)>& fn);

  // Dynamic addresses a static instruction touched (deduplicated, in first-
  // record order). Served from an index rebuilt lazily after new records.
  std::vector<PmOffset> AddressesForGuid(Guid guid);

  // GUIDs that ever touched an address inside [offset, offset + size)
  // (deduplicated).
  std::vector<Guid> GuidsForRange(PmOffset offset, size_t size);

  // Serialize the archive in the "guid<TAB>address" trace-file format.
  std::string Serialize();
  // Records every line of a trace file. A line that is not two unsigned
  // decimal numbers separated by a tab is Corruption; lines before it stay
  // recorded.
  Status ParseAppend(const std::string& text);

  void Clear();

  const TracerStats& stats() const { return stats_; }

 private:
  // One thread's pending events. Owned by the tracer (so events survive
  // thread exit until the next flush); written only by its thread.
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
  };

  // The calling thread's buffer for this tracer, registering it on first
  // use. The thread-local lookup is keyed by a process-unique tracer id
  // that is never reused, so entries for dead tracers can never alias a
  // live one.
  ThreadBuffer& LocalBuffer();
  // Merges `buf` (sorted by index) into the archive. Requires mutex_.
  void FlushBufferLocked(ThreadBuffer& buf);
  void RebuildIndex();

  bool enabled_ = true;
  const size_t buffer_capacity_;
  const uint64_t id_;  // process-unique, never reused
  // Guards the archive, the buffer registry, and the lazy indexes.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<TraceEvent> archive_;  // sorted by event index
  // Lazily rebuilt query indexes over the archive.
  bool index_dirty_ = true;
  std::map<Guid, std::vector<PmOffset>> by_guid_;
  std::vector<std::pair<PmOffset, Guid>> by_address_;  // sorted by address
  TracerStats stats_;
};

}  // namespace arthas

#endif  // ARTHAS_TRACE_TRACER_H_
