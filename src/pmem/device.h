// Simulated byte-addressable persistent memory device.
//
// The paper's testbed uses Intel Optane DC PMEM DIMMs. What every Arthas
// experiment actually relies on is PM *semantics*, not media latency:
//
//   * stores become visible to the CPU immediately (they sit in the cache),
//   * they become durable only after an explicit flush (clwb) followed by a
//     fence (sfence), or a convenience persist of a range,
//   * on a crash or restart, only flushed-and-fenced bytes survive.
//
// PmemDevice models exactly that boundary with two images: `live` is the
// CPU-visible view that programs read and write through real pointers, and
// `durable` is the media image that persists survive into. Crash() discards
// everything that never reached the durable image, which is how the harness
// implements process restarts and machine crashes.
//
// DurabilityObserver is the hook surface the Arthas checkpoint library
// attaches to: it fires once per persisted range, at the durability point,
// which is what lets checkpointing respect the program's own persistence
// granularity and timing (paper Section 4.2).
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * The live image is ordinary memory: loads/stores through Live() are the
//     application's to synchronize, exactly as with pmem_map_file memory.
//   * Durability operations (Persist/FlushLines/Drain/RawRestore) are
//     thread-safe. The durable image is covered by kNumStripes lock
//     stripes keyed by cache-line index; an operation locks the stripes its
//     line range maps to, in ascending stripe order. Observer callbacks run
//     at the durability point with the range's stripes held, so an observer
//     sees a stable pre-copy durable image for that range. FlushLines is
//     lock-free: staged lines live in an atomic bitmap, not a list.
//   * IsDurable is a lock-free compare; like reads of Live(), it is the
//     caller's job not to race it with persists of the same range.
//   * Crash() takes every stripe (ascending), so it observes a consistent
//     unflushed-line set: no persist can be half-applied when the power
//     "fails".
//   * AddObserver/RemoveObserver and the whole-image save/restore helpers
//     are caller-serialized: attach observers and snapshot images while no
//     concurrent durability traffic runs (the harness quiesces first).

#ifndef ARTHAS_PMEM_DEVICE_H_
#define ARTHAS_PMEM_DEVICE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace arthas {

// Byte offset within a device. Offset 0 is valid; kNullPmOffset marks "no
// object" in persistent pointers.
using PmOffset = uint64_t;
constexpr PmOffset kNullPmOffset = ~0ULL;

constexpr size_t kCacheLineSize = 64;

// Receives durability events from a PmemDevice. All offsets are
// device-relative; `data` points into the live image and is valid only for
// the duration of the call. Callbacks fire with the range's lock stripes
// held: implementations must not call back into durability operations of the
// same device (they may read Live()/Durable() pointers for the range).
class DurabilityObserver {
 public:
  virtual ~DurabilityObserver() = default;

  // A range has just become durable (flush + fence completed).
  virtual void OnPersist(PmOffset offset, size_t size, const void* data) = 0;
};

// Counters exposed for the overhead benchmarks. Fields are atomics so
// concurrent flushers can bump them without a lock; readers load them
// individually (the struct itself is not copyable).
struct PmemDeviceStats {
  std::atomic<uint64_t> persists{0};
  std::atomic<uint64_t> flushed_lines{0};
  std::atomic<uint64_t> drains{0};
  std::atomic<uint64_t> persisted_bytes{0};
  std::atomic<uint64_t> crashes{0};
};

class PmemDevice {
 public:
  // Lock stripes covering the durable image, keyed by cache-line index.
  static constexpr size_t kNumStripes = 64;

  // Creates a device of `size` bytes, both images zero-filled.
  explicit PmemDevice(size_t size);

  PmemDevice(const PmemDevice&) = delete;
  PmemDevice& operator=(const PmemDevice&) = delete;

  size_t size() const { return live_.size(); }

  // Process-unique id (1-based) identifying this device in flight-recorder
  // events and forensics reports.
  uint32_t device_id() const { return device_id_; }

  // Direct pointers into the live (CPU-visible) image. Programs read and
  // write through these exactly as they would through pmem_map_file memory.
  uint8_t* Live(PmOffset offset) { return live_.data() + offset; }
  const uint8_t* Live(PmOffset offset) const { return live_.data() + offset; }

  // Read-only view of the media image, used by pool checkers and snapshots.
  const uint8_t* Durable(PmOffset offset) const {
    return durable_.data() + offset;
  }

  // Translates a pointer into the live image back to its device offset.
  // Returns kNullPmOffset if `p` does not point into this device.
  PmOffset OffsetOf(const void* p) const;

  // clwb/sfence-style durability: rounds the range out to cache lines,
  // copies live -> durable, and notifies observers. Equivalent to
  // pmem_persist(addr, size). Thread-safe (locks the range's stripes).
  void Persist(PmOffset offset, size_t size);

  // Durability without observer notification. Used for pool-internal
  // metadata (allocator headers, undo log) so the checkpoint log sees only
  // application PM updates. Thread-safe.
  void PersistQuiet(PmOffset offset, size_t size);

  // Two-step variant: FlushLines stages lines, Drain makes all staged lines
  // durable (and fires observer callbacks). Models clwb ... sfence code.
  // Thread-safe and, on the FlushLines side, lock-free: staged lines live in
  // an atomic per-cache-line bitmap (one word per 64 lines), so concurrent
  // flushers never serialize on a pending list. A Drain claims each word
  // with an atomic exchange and drains the lines staged by every thread up
  // to that moment, exactly as an sfence fences every prior clwb.
  //
  // Like real clwb, staging is line-granular: Drain coalesces adjacent
  // staged lines into one observer callback per contiguous run, and a line
  // flushed twice before the fence becomes durable (and is observed) once.
  void FlushLines(PmOffset offset, size_t size);
  void Drain();

  // Per-thread persist batching (the network plane's pipelined-batch
  // durability amortization). While the calling thread holds a BatchScope
  // on this device, Persist() only stages the range's lines (a clwb without
  // the sfence); the outermost scope's destructor issues the one Drain that
  // makes everything staged durable and fires the observer callbacks with
  // adjacent lines coalesced. A line written by several requests of the
  // batch is copied (and observed) once — exactly the semantics of issuing
  // one sfence after a pipelined run of clwb'd stores. The final durable
  // image is bit-identical to per-request persists of the same stores; what
  // changes is when durability (and its cost) happens, so a crash *inside*
  // the batch loses up to the whole batch instead of up to one request.
  //
  // The scope is thread-local: only the owning thread's Persist() calls are
  // deferred, and the drain fences every staged line (its own and, like a
  // real sfence, any other thread's lines staged via FlushLines). Callers
  // must keep the batch inside their request critical section: the drain
  // reads live-image bytes, so it must run before another thread may write
  // the batch's lines (NetDispatcher drains before releasing the request
  // lock). PersistQuiet (allocator metadata) is never deferred. Nesting on
  // the same device is collapsed to the outermost scope; a scope on a
  // second device while one is active is independent (each device defers
  // only its own persists).
  class BatchScope {
   public:
    explicit BatchScope(PmemDevice& device);
    ~BatchScope();  // drains if this was the thread's outermost scope
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    friend class PmemDevice;  // InThreadBatch walks the scope chain
    PmemDevice& device_;
    BatchScope* parent_;  // previous scope of this thread (any device)
  };

  // True when the calling thread is inside a BatchScope for this device.
  bool InThreadBatch() const;

  // Discards all non-durable state: afterwards the live image equals the
  // durable image. This is what a process restart or power failure does.
  // It is one pass over the two images, a page at a time: a page that is
  // equal is neither copied nor examined further, and inside a page that
  // differs each line that differs is restored from the durable image,
  // counted, and recorded as a `line_lost` flight record in address order
  // (a partial last line included). Only the records and counters compile
  // out under ARTHAS_OBS_DISABLED; the pass is the same in every build.
  // Takes every stripe, so the discarded (unflushed) line set is consistent:
  // concurrent persists are either fully durable or fully discarded.
  // Not linearizable with an in-flight Drain (quiesce flushers first, as
  // the harness does).
  void Crash();

  // Raw mutation of both images at once, bypassing durability events.
  // Used only by recovery tooling (the reactor's reversion step and the
  // pmCRIU baseline's image restore); never by target systems.
  void RawRestore(PmOffset offset, const void* data, size_t size);

  // Whole-image snapshots for the pmCRIU baseline. A snapshot captures the
  // durable image (what CRIU would dump from the PM pool file).
  std::vector<uint8_t> SnapshotDurable() const;
  Status RestoreDurable(const std::vector<uint8_t>& image);

  // Save/load the durable image to a file, for cross-process style use. A
  // successful load replaces both images like RestoreDurable: lines staged
  // before it are dropped, never drained into the loaded image.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

  // Counts wholesale replacements of the live image: Crash, RestoreDurable
  // and a successful LoadFromFile each bump it once; no other operation
  // does (RawRestore rewrites only the ranges its caller names). A volatile
  // cache derived from image contents records the generation it was built
  // from and rebuilds when the two differ. PmemPool does this for its
  // allocation summary, so a pool whose image was swapped underneath it
  // never hands out a block the new image has in use. Replacements are
  // caller-serialized with the cache's users, so reading the generation
  // under the cache's own lock is enough.
  uint64_t image_generation() const {
    return image_generation_.load(std::memory_order_acquire);
  }

  void AddObserver(DurabilityObserver* observer);
  void RemoveObserver(DurabilityObserver* observer);

  const PmemDeviceStats& stats() const { return stats_; }

  // True if every byte of [offset, offset+size) is identical in the live and
  // durable images, i.e. the range is fully persisted. Lock-free: the
  // comparison takes no stripes, so it must not race with concurrent
  // persists or drains of the same range (readers of Live() already carry
  // that obligation — the live image is plain memory).
  bool IsDurable(PmOffset offset, size_t size) const;

  // Number of cache lines currently flushed but not yet drained. Lock-free
  // (relaxed scan of the staging bitmap between the watermarks), so the
  // count is approximate under concurrent flush/drain traffic — intended
  // for telemetry probes, not invariants.
  uint64_t PendingLineCount() const {
    const uint64_t lo = pending_lo_.load(std::memory_order_relaxed);
    const uint64_t hi = pending_hi_.load(std::memory_order_relaxed);
    if (lo > hi) {
      return 0;
    }
    uint64_t count = 0;
    for (uint64_t w = lo; w <= hi && w < num_pending_words_; w++) {
      count += static_cast<uint64_t>(__builtin_popcountll(
          pending_words_[w].load(std::memory_order_relaxed)));
    }
    return count;
  }

 private:
  // Locks every stripe covering [offset, offset+size) in ascending stripe
  // order (the deadlock-free total order); unlocks in reverse. A default-
  // constructed-with-all guard (offset 0, size = device size) is what
  // Crash() and the image helpers use.
  class StripeGuard {
   public:
    StripeGuard(const PmemDevice& device, PmOffset offset, size_t size);
    ~StripeGuard();
    StripeGuard(const StripeGuard&) = delete;
    StripeGuard& operator=(const StripeGuard&) = delete;

   private:
    const PmemDevice& device_;
    uint64_t mask_ = 0;  // bit i set => stripes_[i] held
  };

  // Crash() compares the images this many bytes at a time before it looks
  // at single lines. A multiple of kCacheLineSize.
  static constexpr size_t kCrashCompareBytes = 4096;

  // Caller must hold the stripes covering the range.
  void MakeDurable(PmOffset offset, size_t size);
  void NotifyAndMakeDurable(PmOffset offset, size_t size);

  // Resets the staged-line bitmap and its scan watermarks. Caller must have
  // quiesced flushers (Crash/RestoreDurable/LoadFromFile hold every stripe).
  void ClearPending();
  // True when cache line `line` is flushed but not yet drained.
  bool LineStaged(uint64_t line) const;

  std::vector<uint8_t> live_;
  std::vector<uint8_t> durable_;
  uint32_t device_id_ = 0;
  mutable std::array<std::mutex, kNumStripes> stripes_;
  // Flushed-but-not-drained cache lines: bit i of word w covers line
  // w * 64 + i. fetch_or on flush, exchange(0) on drain — no lock anywhere
  // on the staging path.
  std::unique_ptr<std::atomic<uint64_t>[]> pending_words_;
  size_t num_pending_words_ = 0;
  // Inclusive word-range watermarks bounding the Drain scan; lo > hi means
  // "nothing staged". Monotone under concurrent flushes (CAS min/max),
  // reset only under full quiesce.
  std::atomic<uint64_t> pending_lo_{~0ULL};
  std::atomic<uint64_t> pending_hi_{0};
  std::vector<DurabilityObserver*> observers_;
  PmemDeviceStats stats_;
  std::atomic<uint64_t> image_generation_{0};
};

}  // namespace arthas

#endif  // ARTHAS_PMEM_DEVICE_H_
