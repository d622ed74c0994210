// Lightweight runtime PM-address tracing (paper Section 4.1, step 1).
//
// The instrumented target system calls Record(guid, address) just before
// each PM instruction executes. The reactor consumes the trace only to learn
// which dynamic PM addresses each static instruction (GUID) touched, for the
// <GUID, address> join with the PDG, so the tracer keeps each distinct
// (GUID, address) pair once, at the index of its first record: its memory
// is O(distinct pairs), not O(records), however long the target serves.
// stats().records still counts every call. To keep the overhead negligible
// (Table 8), records are buffered in memory and folded in batches, mirroring
// the paper's inlined tracing with asynchronous file flushing.
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * Record() is thread-safe and mostly lock-free: each thread skips a
//     pair its direct-mapped filter of recent pairs already holds, appends
//     any other to its own buffer (registered with the tracer on first
//     use), and takes the archive lock only when its buffer fills, to fold
//     the buffer into the archive of distinct pairs. Record indexes come
//     from one atomic counter and the fold keeps each pair's smallest, so
//     first-record order is a total order even across threads.
//   * The epoch operations — Flush() of *all* thread buffers, Events(),
//     the Serialize/query family, Clear(), set_enabled() — are
//     caller-serialized: run them while no thread is inside Record() (the
//     harness joins or quiesces workers first), exactly as the paper's
//     trace files are read only after the target stops.

#ifndef ARTHAS_TRACE_TRACER_H_
#define ARTHAS_TRACE_TRACER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/ir.h"
#include "pmem/device.h"

namespace arthas {

// One distinct (GUID, address) pair of the trace.
struct TraceEvent {
  Guid guid = kNoGuid;
  PmOffset address = kNullPmOffset;
  uint64_t index = 0;  // record number of the pair's first record
};

// Fields are atomics: `records` counts every Record() while enabled and
// doubles as the global record-index source.
struct TracerStats {
  std::atomic<uint64_t> records{0};
  std::atomic<uint64_t> buffer_flushes{0};
};

class Tracer {
 public:
  // `buffer_capacity` pairs are held per thread before an automatic flush
  // to the archive (the paper flushes the in-memory buffer to a file when
  // full).
  explicit Tracer(size_t buffer_capacity = 4096);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Fast path, called by instrumented PM call sites. Thread-safe; appends
  // to the calling thread's buffer unless its filter already holds the
  // pair.
  void Record(Guid guid, PmOffset address);

  // Toggles instrumentation, for the overhead ablation of Table 8 (a
  // vanilla binary simply has no tracing calls). Caller-serialized.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Folds every thread's buffered pairs into the archive (simulates the
  // async file flush; also called when the system stops). An epoch
  // operation: caller-serialized.
  void Flush();

  // Snapshot of every distinct pair recorded so far, in first-record order
  // (flushes first). Returned by value: a later Record-triggered flush may
  // grow the archive, so a reference would be invalidated mid-iteration.
  std::vector<TraceEvent> Events();

  // Number of distinct pairs recorded so far (flushes first); every call
  // is counted in stats().records. An epoch operation. Use this (or
  // ForEachEvent) instead of Events().size(): Events() copies the archive.
  uint64_t EventCount();

  // Visits every distinct pair in first-record order without copying the
  // archive (flushes first). An epoch operation; `fn` must not call back
  // into this tracer.
  void ForEachEvent(const std::function<void(const TraceEvent&)>& fn);

  // Dynamic addresses a static instruction touched (deduplicated, in first-
  // record order): one pass over the archive.
  std::vector<PmOffset> AddressesForGuid(Guid guid);

  // The trace side of the trace ⋈ checkpoint join: every address one of
  // `guids` (sorted ascending) touched, sorted and deduplicated, which is
  // the sorted union of AddressesForGuid over the set. One pass over the
  // (address, GUID) index.
  std::vector<PmOffset> AddressesForGuids(std::span<const Guid> guids);

  // GUIDs that ever touched an address inside [offset, offset + size),
  // deduplicated, in the order of their first address in the range: a
  // binary search into the (address, GUID) index.
  std::vector<Guid> GuidsForRange(PmOffset offset, size_t size);

  // Serialize the archive in the "guid<TAB>address" trace-file format: one
  // line per distinct pair, in first-record order.
  std::string Serialize();
  // Records every line of a trace file. A line that is not two unsigned
  // decimal numbers separated by a tab is Corruption; lines before it stay
  // recorded.
  Status ParseAppend(const std::string& text);

  void Clear();

  const TracerStats& stats() const { return stats_; }

 private:
  static constexpr size_t kFilterSlots = 4096;

  // One thread's pending pairs. Owned by the tracer (so they survive
  // thread exit until the next flush); written only by its thread.
  struct ThreadBuffer {
    std::vector<TraceEvent> events;
    // Record() calls since the last flush, the filtered ones included.
    uint64_t records = 0;
    // Direct-mapped filter of pairs this thread recorded since the last
    // Clear(). A pair found here is already buffered or archived at a
    // smaller index, so Record() drops it.
    std::array<std::pair<Guid, PmOffset>, kFilterSlots> recent;
  };

  // The calling thread's buffer for this tracer, registering it on first
  // use. The thread-local lookup is keyed by a process-unique tracer id
  // that is never reused, so entries for dead tracers can never alias a
  // live one.
  ThreadBuffer& LocalBuffer();
  // Empties the filter of `buf`.
  static void ResetFilter(ThreadBuffer& buf);
  // Folds `buf` into the archive. Requires mutex_.
  void FlushBufferLocked(ThreadBuffer& buf);
  // Folds every buffer and puts the archive in first-record order.
  // Requires mutex_.
  void FlushAllLocked();
  // The bucket holding the archive position of (guid, address), or the
  // empty bucket it would take. Requires mutex_.
  uint32_t& BucketFor(Guid guid, PmOffset address);
  // Rebuilds buckets_ from archive_, sized for one more pair. Requires
  // mutex_.
  void RehashLocked();
  // Rebuilds by_address_ if new pairs arrived. Requires mutex_.
  void RebuildIndexLocked();

  bool enabled_ = true;
  const size_t buffer_capacity_;
  const uint64_t id_;  // process-unique, never reused
  // Guards the archive, its buckets, the buffer registry, and the lazy
  // address index.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  // Every distinct pair once, at its first record index. In fold order,
  // which is first-record order unless buffers of different threads folded
  // out of order (archive_sorted_ false); FlushAllLocked re-sorts it then.
  std::vector<TraceEvent> archive_;
  bool archive_sorted_ = true;
  // Open-addressing index over archive_: each bucket holds (archive
  // position + 1), 0 = empty. Power-of-two size, linear probing, load at
  // most 1/2.
  std::vector<uint32_t> buckets_;
  // Every archived pair as (address, GUID), sorted, rebuilt lazily by the
  // first range or join query after new pairs arrive.
  bool index_dirty_ = true;
  std::vector<std::pair<PmOffset, Guid>> by_address_;
  TracerStats stats_;
};

}  // namespace arthas

#endif  // ARTHAS_TRACE_TRACER_H_
