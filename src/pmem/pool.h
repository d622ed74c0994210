// Persistent memory pool: a pmemobj-mini.
//
// PmemPool layers a persistent object API on a PmemDevice, mirroring the
// subset of PMDK's libpmemobj that the paper's target systems use:
//
//   * a named layout and a root object (pmemobj_create / pmemobj_root),
//   * Oid-based allocation: Zalloc / Alloc / Free / Realloc and Direct()
//     translation to a live pointer (pmemobj_zalloc / pmemobj_direct),
//   * explicit persistence of object ranges (pmemobj_persist),
//   * undo-log transactions (see pmem/tx.h).
//
// Allocator metadata (pool header, undo log, buddy state tree) is itself kept
// in PM, in a region below the object heap, and persisted with *internal*
// (non-observed) persists so that the Arthas checkpoint log records
// application PM updates, not heap bookkeeping — matching the paper's
// modified PMDK, which intercepts object updates.
//
// PoolObserver is the second half of the Arthas hook surface (the first is
// DurabilityObserver on the device): allocation, free, and realloc events
// feed the checkpoint log's old_entry/new_entry linkage and the persistent
// memory leak mitigation of paper Section 4.7.
//
// Concurrency model (see DESIGN.md "Concurrency model"):
//   * All allocator operations (Alloc/Zalloc/Free/Realloc/Root/UsableSize/
//     ForEachBlock/CheckIntegrity) and all transaction operations are
//     serialized on one pool mutex; the buddy tree, its volatile free-order
//     summary, the pool header, and the undo slot table are only touched
//     under it.
//   * Transactions are per-thread: each thread opens its own TxContext.
//     Concurrent transactions must cover disjoint PM ranges (the usual
//     libpmemobj contract); the undo region is partitioned into per-slot
//     logs so their snapshots never interleave.
//   * Lock order: pool mutex -> device stripes -> checkpoint shards. Pool
//     code never calls back into itself from device observers.
//   * AddObserver/RemoveObserver are caller-serialized (attach while no
//     concurrent pool traffic runs).

#ifndef ARTHAS_PMEM_POOL_H_
#define ARTHAS_PMEM_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "pmem/device.h"

namespace arthas {

// Persistent object handle: an offset into the pool's device. Stable across
// restarts (unlike live pointers).
struct Oid {
  PmOffset off = kNullPmOffset;

  bool is_null() const { return off == kNullPmOffset; }
  static Oid Null() { return Oid{}; }

  bool operator==(const Oid& other) const { return off == other.off; }
};

// Observes pool-level events (allocation lifecycle and transactions).
// Callbacks run with the pool mutex held; implementations must not call
// back into the pool.
class PoolObserver {
 public:
  virtual ~PoolObserver() = default;
  virtual void OnAlloc(PmOffset offset, size_t size) = 0;
  virtual void OnFree(PmOffset offset, size_t size) = 0;
  virtual void OnRealloc(PmOffset old_offset, size_t old_size,
                         PmOffset new_offset, size_t new_size) = 0;
  virtual void OnTxBegin(uint64_t tx_id) = 0;
  virtual void OnTxCommit(uint64_t tx_id) = 0;
};

// Fields are atomics so the monitor-style readers (detector, harness) can
// poll them while worker threads allocate.
struct PoolStats {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};
  std::atomic<uint64_t> reallocs{0};
  std::atomic<uint64_t> used_bytes{0};  // payload bytes currently allocated
  std::atomic<uint64_t> live_objects{0};
};

// Per-thread undo-log transaction state. Each concurrently running
// transaction owns one TxContext (stack- or thread-local); the pool's
// single-context API (TxBegin()/TxCommit()/... without a context) wraps a
// pool-owned default context, preserving the original single-threaded
// behaviour bit for bit.
struct TxContext {
  bool active = false;
  uint64_t tx_id = 0;
  int slot = -1;              // persistent undo slot; 0 = header-based slot
  PmOffset undo_base = 0;     // start of this tx's undo log region
  uint64_t undo_capacity = 0; // bytes available to this tx's undo log
  uint64_t log_count = 0;
  uint64_t log_bytes = 0;
};

class PmemTx;

class PmemPool {
 public:
  // Slot 0 lives in the pool header (the original single-transaction
  // layout); kExtraTxSlots more concurrent transactions get fixed chunks
  // carved from the top of the undo region, with persistent descriptors so
  // recovery can roll them back too.
  static constexpr int kExtraTxSlots = 7;
  static constexpr int kMaxConcurrentTx = 1 + kExtraTxSlots;

  // Creates a fresh pool of `size` bytes with the given layout name, or
  // opens an existing image (after a crash/restart) validating the layout.
  static Result<std::unique_ptr<PmemPool>> Create(std::string layout,
                                                  size_t size);
  static Result<std::unique_ptr<PmemPool>> Open(std::unique_ptr<PmemDevice> device,
                                                const std::string& layout);

  ~PmemPool();
  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;

  PmemDevice& device() { return *device_; }
  const PmemDevice& device() const { return *device_; }

  // Simulates a process restart / power failure and re-runs pool recovery
  // (which rolls back any in-flight transaction, in every undo slot).
  // Volatile program state is the caller's to discard; this resets the PM
  // view. Caller-serialized: quiesce worker threads first.
  Status CrashAndRecover();

  // --- Object allocation -------------------------------------------------

  // Allocates `size` bytes; Zalloc additionally zeroes (and persists) them.
  Result<Oid> Alloc(size_t size);
  Result<Oid> Zalloc(size_t size);
  Status Free(Oid oid);
  // Grows or shrinks an object, copying min(old,new) payload bytes.
  Result<Oid> Realloc(Oid oid, size_t new_size);

  // Payload size of an allocated object.
  Result<size_t> UsableSize(Oid oid) const;

  // Live-pointer translation (pmemobj_direct). Returns nullptr for null oid.
  template <typename T = void>
  T* Direct(Oid oid) {
    if (oid.is_null()) {
      return nullptr;
    }
    return reinterpret_cast<T*>(device_->Live(oid.off));
  }
  template <typename T = void>
  const T* Direct(Oid oid) const {
    if (oid.is_null()) {
      return nullptr;
    }
    return reinterpret_cast<const T*>(device_->Live(oid.off));
  }

  // Reverse translation: live pointer -> oid (must point into the pool).
  Oid OidOf(const void* p) const;

  // --- Root object --------------------------------------------------------

  // Returns the root object, allocating (zeroed) on first call.
  Result<Oid> Root(size_t size);
  bool HasRoot() const;

  // --- Persistence --------------------------------------------------------

  // Makes [Direct(oid)+offset, +size) durable and notifies durability
  // observers; the application-facing persistence point. Thread-safe (the
  // device takes its own stripe locks).
  void Persist(Oid oid, size_t offset, size_t size);
  void PersistRange(PmOffset offset, size_t size) {
    device_->Persist(offset, size);
  }
  // Persist an entire struct the oid points at.
  template <typename T>
  void PersistObject(Oid oid) {
    Persist(oid, 0, sizeof(T));
  }

  // --- Transactions (see pmem/tx.h for the guard object) ------------------
  //
  // The context-taking forms are the multi-threaded API: each thread passes
  // its own TxContext. The context-free forms operate on the pool's default
  // context and exist for the original single-threaded callers.

  Status TxBegin(TxContext& ctx);
  Status TxAddRange(TxContext& ctx, PmOffset offset, size_t size);
  Status TxAddRange(TxContext& ctx, Oid oid, size_t offset, size_t size);
  Status TxCommit(TxContext& ctx);
  Status TxAbort(TxContext& ctx);

  Status TxBegin() { return TxBegin(default_tx_); }
  Status TxAddRange(PmOffset offset, size_t size) {
    return TxAddRange(default_tx_, offset, size);
  }
  Status TxAddRange(Oid oid, size_t offset, size_t size) {
    return TxAddRange(default_tx_, oid, offset, size);
  }
  Status TxCommit() { return TxCommit(default_tx_); }
  Status TxAbort() { return TxAbort(default_tx_); }
  bool InTx() const { return default_tx_.active; }

  // --- Introspection -------------------------------------------------------

  // Walks every heap block. `used` is true for allocated blocks; offset/size
  // describe the payload.
  void ForEachBlock(
      const std::function<void(PmOffset offset, size_t size, bool used)>& fn)
      const;

  // Verifies pool metadata integrity (header checksum, buddy node states,
  // usage accounting, and that the volatile free-order summary agrees with
  // the tree). The pmempool-check analogue used by the consistency
  // evaluation.
  Status CheckIntegrity() const;

  // Byte ranges within [offset, offset+size) that are allocator metadata.
  // All of it (pool header, undo log, buddy state tree) sits below the
  // object heap, as PMDK keeps its metadata out-of-band, so this is the
  // part of the range below the heap base. External reversion tooling
  // restores payload bytes around these ranges so it never corrupts the
  // heap structure.
  std::vector<std::pair<PmOffset, size_t>> MetadataRangesIn(PmOffset offset,
                                                            size_t size) const;

  const PoolStats& stats() const { return stats_; }
  size_t Capacity() const;
  // Bytes still allocatable (upper bound; ignores fragmentation).
  size_t FreeBytes() const;

  void AddObserver(PoolObserver* observer);
  void RemoveObserver(PoolObserver* observer);

  const std::string& layout() const { return layout_; }

 private:
  friend class PmemTx;

  PmemPool(std::unique_ptr<PmemDevice> device, std::string layout);

  Status Format(size_t size);
  Status Recover();
  struct PoolHeader;
  struct TxSlotDescriptor;
  PoolHeader* header();
  const PoolHeader* header() const;
  void PersistHeader();
  Result<Oid> AllocInternal(size_t size, bool zero);
  Status FreeLocked(Oid oid);
  Result<size_t> UsableSizeLocked(Oid oid) const;

  // Extra-slot undo layout helpers (all require the pool mutex).
  uint64_t ExtraTxChunkBytes() const;
  PmOffset ExtraTxSlotBase(int slot) const;     // slot in [1, kExtraTxSlots]
  PmOffset TxSlotDescriptorOffset(int slot) const;
  void PersistTxSlotDescriptor(int slot);
  // Capacity currently usable by slot 0: the full undo region, shrunk only
  // while extra slots are active (so single-threaded behaviour is
  // unchanged).
  uint64_t Slot0CapacityLocked() const;
  void RollbackUndoLog(PmOffset log_base, uint64_t log_count);

  // Buddy-allocator internals (state array in the out-of-band metadata
  // region; see the design comment in pool.cc).
  uint8_t* TreeState();
  const uint8_t* TreeState() const;
  void PersistNode(uint64_t node);
  uint64_t NodeOffset(uint64_t node, size_t node_order) const;
  uint64_t FindFreeNode(size_t target);
  std::pair<uint64_t, size_t> FindUsedNode(PmOffset offset) const;
  void WalkTree(uint64_t node, size_t node_order,
                const std::function<void(PmOffset, size_t, bool)>& fn) const;

  // Free-order summary maintenance (all require the pool mutex).
  uint8_t LocalFreeOrder(uint64_t node, size_t node_order) const;
  void RebuildFreeOrder(uint64_t node, size_t node_order);
  void RebuildSummaryLocked();
  void SyncSummaryLocked();
  void RefreshAncestors(uint64_t node);

  std::unique_ptr<PmemDevice> device_;
  std::string layout_;
  std::vector<PoolObserver*> observers_;
  PoolStats stats_;
  // Serializes allocator state, the pool header, and tx slot assignment.
  mutable std::mutex mutex_;
  uint64_t next_tx_id_ = 1;
  // Volatile occupancy of the undo slots (persistent side: header fields
  // for slot 0, TxSlotDescriptors for the rest).
  bool slot_busy_[kMaxConcurrentTx] = {};
  TxContext default_tx_;  // backs the context-free single-threaded API
  // Volatile summary of the buddy tree: for every node reachable from the
  // root through split nodes, the largest block order still allocatable in
  // its subtree (0: none). Nodes below a free or used node are unreachable
  // and hold stale values. Valid for device image `summary_generation_`.
  std::vector<uint8_t> free_order_;
  uint64_t summary_generation_ = 0;
};

}  // namespace arthas

#endif  // ARTHAS_PMEM_POOL_H_
