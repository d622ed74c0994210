#include "pmem/pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/resource/resource_accountant.h"

namespace arthas {

// The allocator is a buddy allocator whose state lives in a dedicated
// metadata region, *outside* the object heap — mirroring PMDK, whose chunk
// metadata is out-of-band. Two properties of the evaluation depend on this:
//
//  * restoring checkpointed payload bytes can never corrupt heap metadata
//    (the reactor reverts ranges that may span objects), and
//  * a buffer overrun from one object clobbers its neighbor's *payload*,
//    not an allocator header — which is exactly the failure shape of the
//    studied bugs (f4, f10).
//
// The buddy tree is a per-node state array (free / split / used). Node
// indices are heap-shaped: node 1 is the whole heap, children 2i / 2i+1.
// Allocation takes the leftmost free block of the requested order, which
// also gives the deterministic address reuse after free that the f1/f10
// reproductions rely on.
//
// That search is answered from a volatile free-order summary, one byte per
// node: the largest block order still allocatable in the node's subtree (a
// free node's own order, 0 for a used node, the larger of the children's
// for a split node). Allocation walks a single root-to-leaf path — left
// whenever the left child can serve the order — splitting free nodes on the
// way, and alloc and free refresh the summary back up their path, so both
// cost O(tree depth) where a depth-first search costs O(live blocks). The
// path, the split nodes and the persisted bytes are exactly those of the
// leftmost-first depth-first search. The summary is never persisted: Format
// and Recover build it from the tree, TxAbort rebuilds it after its
// rollback, and the allocator rebuilds it whenever the device reports a new
// image generation (a Crash, RestoreDurable or LoadFromFile the pool did
// not run).
//
// Undo-slot layout: slot 0 is the original single-transaction design — its
// activity flag and log cursor live in the pool header, and its log grows
// up from the start of the undo region, with the *whole* region as its
// capacity while it runs alone. Extra slots (for concurrent transactions)
// carve fixed chunks from the top of the same region, below a descriptor
// table at the very top. The descriptors use a magic activity tag rather
// than a boolean so that an old single-threaded image whose slot-0 log grew
// over the (then-unused) table is never misread as live extra slots.

namespace {
constexpr uint64_t kPoolMagic = 0x41525448'41535032ULL;  // "ARTHASP2"
constexpr uint64_t kTxSlotActiveMagic = 0x41525448'54584c31ULL;  // "ARTHTXL1"
constexpr uint8_t kNodeFree = 0;
constexpr uint8_t kNodeSplit = 1;
constexpr uint8_t kNodeUsed = 2;
constexpr size_t kMinOrder = 5;  // 32-byte minimum block

size_t AlignUp(size_t n, size_t align) { return (n + align - 1) & ~(align - 1); }

int OrderForSize(size_t heap_order, size_t size) {
  size_t order = kMinOrder;
  while ((1ULL << order) < size) {
    order++;
  }
  return order > heap_order ? -1 : static_cast<int>(order);
}
}  // namespace

// Lives at device offset 0. All fields are persisted quietly (metadata).
struct PmemPool::PoolHeader {
  uint64_t magic;
  char layout[40];
  uint64_t pool_size;
  uint64_t root_off;   // payload offset of root object, kNullPmOffset if none
  uint64_t root_size;
  uint64_t undo_off;       // start of undo-log region
  uint64_t undo_capacity;  // bytes in undo-log region
  uint64_t tree_off;       // start of the buddy state array
  uint64_t tree_nodes;     // number of nodes in the array
  uint64_t heap_base;      // start of the object heap (power-of-two sized)
  uint64_t heap_order;     // log2(heap size)
  uint64_t used_bytes;
  uint64_t live_objects;
  uint64_t tx_active;      // slot 0 activity flag
  uint64_t tx_log_count;   // slot 0 log entries
  uint64_t tx_log_bytes;   // slot 0 log cursor
  uint32_t crc;
  uint32_t pad;
};

// Persistent descriptor of one extra undo slot, in the table at the top of
// the undo region. `magic_active` holds kTxSlotActiveMagic while the slot's
// transaction is in flight, 0 (or stale payload bytes) otherwise.
struct PmemPool::TxSlotDescriptor {
  uint64_t magic_active;
  uint64_t log_count;
  uint64_t log_bytes;
};

namespace {
// Undo-log entry layout inside the undo region: header then `size` old bytes.
struct UndoEntryHeader {
  uint64_t offset;
  uint64_t size;
};
}  // namespace

PmemPool::PmemPool(std::unique_ptr<PmemDevice> device, std::string layout)
    : device_(std::move(device)), layout_(std::move(layout)) {}

PmemPool::~PmemPool() = default;

PmemPool::PoolHeader* PmemPool::header() {
  return reinterpret_cast<PoolHeader*>(device_->Live(0));
}
const PmemPool::PoolHeader* PmemPool::header() const {
  return reinterpret_cast<const PoolHeader*>(device_->Live(0));
}

void PmemPool::PersistHeader() {
  PoolHeader* h = header();
  h->crc = 0;
  h->crc = Crc32c(h, sizeof(PoolHeader));
  device_->PersistQuiet(0, sizeof(PoolHeader));
}

// --- Undo-slot layout helpers -------------------------------------------------

uint64_t PmemPool::ExtraTxChunkBytes() const {
  const PoolHeader* h = header();
  const uint64_t table = kExtraTxSlots * sizeof(TxSlotDescriptor);
  return (h->undo_capacity - table) / kMaxConcurrentTx;
}

PmOffset PmemPool::TxSlotDescriptorOffset(int slot) const {
  assert(slot >= 1 && slot <= kExtraTxSlots);
  const PoolHeader* h = header();
  return h->undo_off + h->undo_capacity -
         (kExtraTxSlots - (slot - 1)) * sizeof(TxSlotDescriptor);
}

PmOffset PmemPool::ExtraTxSlotBase(int slot) const {
  assert(slot >= 1 && slot <= kExtraTxSlots);
  const PoolHeader* h = header();
  const PmOffset table_base =
      h->undo_off + h->undo_capacity - kExtraTxSlots * sizeof(TxSlotDescriptor);
  return table_base - slot * ExtraTxChunkBytes();
}

void PmemPool::PersistTxSlotDescriptor(int slot) {
  device_->PersistQuiet(TxSlotDescriptorOffset(slot), sizeof(TxSlotDescriptor));
}

uint64_t PmemPool::Slot0CapacityLocked() const {
  const PoolHeader* h = header();
  uint64_t limit = h->undo_capacity;
  for (int i = 1; i <= kExtraTxSlots; i++) {
    if (slot_busy_[i]) {
      limit = std::min<uint64_t>(limit, ExtraTxSlotBase(i) - h->undo_off);
    }
  }
  return limit;
}

// --- Buddy-tree helpers -------------------------------------------------------

uint8_t* PmemPool::TreeState() { return device_->Live(header()->tree_off); }
const uint8_t* PmemPool::TreeState() const {
  return device_->Live(header()->tree_off);
}

void PmemPool::PersistNode(uint64_t node) {
  device_->PersistQuiet(header()->tree_off + node, 1);
}

uint64_t PmemPool::NodeOffset(uint64_t node, size_t node_order) const {
  const PoolHeader* h = header();
  const uint64_t index_in_level = node - (1ULL << (h->heap_order - node_order));
  return h->heap_base + index_in_level * (1ULL << node_order);
}

// --- Free-order summary -------------------------------------------------------

// The summary value `node` should hold, given its state and its children's
// summaries. A split node at the minimum order (only a corrupt tree has
// one) and any invalid state offer nothing.
uint8_t PmemPool::LocalFreeOrder(uint64_t node, size_t node_order) const {
  const uint8_t state = TreeState()[node];
  if (state == kNodeFree) {
    return static_cast<uint8_t>(node_order);
  }
  if (state == kNodeSplit && node_order > kMinOrder) {
    return std::max(free_order_[2 * node], free_order_[2 * node + 1]);
  }
  return 0;
}

void PmemPool::RebuildFreeOrder(uint64_t node, size_t node_order) {
  if (TreeState()[node] == kNodeSplit && node_order > kMinOrder) {
    RebuildFreeOrder(2 * node, node_order - 1);
    RebuildFreeOrder(2 * node + 1, node_order - 1);
  }
  free_order_[node] = LocalFreeOrder(node, node_order);
}

// Visits only the nodes reachable through split nodes, so its cost is
// proportional to the blocks in the tree, not to the tree's capacity.
void PmemPool::RebuildSummaryLocked() {
  const PoolHeader* h = header();
  free_order_.resize(h->tree_nodes);
  RebuildFreeOrder(1, h->heap_order);
  summary_generation_ = device_->image_generation();
}

void PmemPool::SyncSummaryLocked() {
  if (summary_generation_ != device_->image_generation()) {
    RebuildSummaryLocked();
  }
}

// Recomputes the summaries above `node` after its own changed. Stops at the
// first ancestor whose value comes out unchanged: everything above it was
// computed from that same value.
void PmemPool::RefreshAncestors(uint64_t node) {
  for (; node > 1; node /= 2) {
    const uint8_t best = std::max(free_order_[node], free_order_[node ^ 1]);
    if (free_order_[node / 2] == best) {
      return;
    }
    free_order_[node / 2] = best;
  }
}

Result<std::unique_ptr<PmemPool>> PmemPool::Create(std::string layout,
                                                   size_t size) {
  if (layout.size() >= sizeof(PoolHeader::layout)) {
    return Status(StatusCode::kInvalidArgument, "layout name too long");
  }
  if (size < 64 * 1024) {
    return Status(StatusCode::kInvalidArgument, "pool too small (< 64 KiB)");
  }
  auto pool = std::unique_ptr<PmemPool>(
      new PmemPool(std::make_unique<PmemDevice>(size), std::move(layout)));
  ARTHAS_RETURN_IF_ERROR(pool->Format(size));
  return pool;
}

Result<std::unique_ptr<PmemPool>> PmemPool::Open(
    std::unique_ptr<PmemDevice> device, const std::string& layout) {
  auto pool =
      std::unique_ptr<PmemPool>(new PmemPool(std::move(device), layout));
  const PoolHeader* h = pool->header();
  if (h->magic != kPoolMagic) {
    return Status(StatusCode::kCorruption, "bad pool magic");
  }
  if (layout != h->layout) {
    return Status(StatusCode::kInvalidArgument, "layout mismatch");
  }
  ARTHAS_RETURN_IF_ERROR(pool->Recover());
  return pool;
}

Status PmemPool::Format(size_t size) {
  const size_t undo_capacity =
      std::clamp<size_t>(size / 8, 16 * 1024, 1 * 1024 * 1024);
  const PmOffset undo_off = AlignUp(sizeof(PoolHeader), kCacheLineSize);

  // Pick the largest power-of-two heap such that header + undo + state tree
  // + heap fit in the device.
  size_t heap_order = kMinOrder;
  PmOffset tree_off = 0;
  PmOffset heap_base = 0;
  uint64_t tree_nodes = 0;
  for (size_t order = kMinOrder; order < 48; order++) {
    const uint64_t nodes = 2ULL << (order - kMinOrder);  // 2 * leaves
    const PmOffset t_off = AlignUp(undo_off + undo_capacity, kCacheLineSize);
    const PmOffset h_base = AlignUp(t_off + nodes, kCacheLineSize);
    if (h_base + (1ULL << order) > size) {
      break;
    }
    heap_order = order;
    tree_off = t_off;
    heap_base = h_base;
    tree_nodes = nodes;
  }
  if (heap_base == 0) {
    return InvalidArgument("pool too small for heap");
  }

  PoolHeader* h = header();
  std::memset(h, 0, sizeof(PoolHeader));
  h->magic = kPoolMagic;
  std::strncpy(h->layout, layout_.c_str(), sizeof(h->layout) - 1);
  h->pool_size = size;
  h->root_off = kNullPmOffset;
  h->root_size = 0;
  h->undo_off = undo_off;
  h->undo_capacity = undo_capacity;
  h->tree_off = tree_off;
  h->tree_nodes = tree_nodes;
  h->heap_base = heap_base;
  h->heap_order = heap_order;
  std::memset(device_->Live(tree_off), kNodeFree, tree_nodes);
  device_->PersistQuiet(tree_off, tree_nodes);
  PersistHeader();
  RebuildSummaryLocked();  // no other thread can see the pool yet
  return OkStatus();
}

// Applies one undo log in reverse entry order (newest snapshot first), as
// libpmemobj does on recovery and abort.
void PmemPool::RollbackUndoLog(PmOffset log_base, uint64_t log_count) {
  std::vector<PmOffset> entry_offsets;
  PmOffset cursor = log_base;
  for (uint64_t i = 0; i < log_count; i++) {
    UndoEntryHeader eh;
    std::memcpy(&eh, device_->Live(cursor), sizeof(eh));
    entry_offsets.push_back(cursor);
    cursor += sizeof(UndoEntryHeader) + AlignUp(eh.size, 8);
  }
  for (auto it = entry_offsets.rbegin(); it != entry_offsets.rend(); ++it) {
    UndoEntryHeader eh;
    std::memcpy(&eh, device_->Live(*it), sizeof(eh));
    std::memcpy(device_->Live(eh.offset),
                device_->Live(*it + sizeof(UndoEntryHeader)), eh.size);
    device_->PersistQuiet(eh.offset, eh.size);
  }
}

Status PmemPool::Recover() {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolHeader* h = header();
  stats_.used_bytes = h->used_bytes;
  stats_.live_objects = h->live_objects;
  ARTHAS_RESOURCE_SET("pmem.pool.used.bytes", "bytes", h->used_bytes);
  if (h->tx_active != 0) {
    // Crash happened inside a transaction: apply the undo log.
    ARTHAS_LOG(Info) << "pool recovery: rolling back in-flight transaction ("
                     << h->tx_log_count << " ranges)";
    RollbackUndoLog(h->undo_off, h->tx_log_count);
    h->tx_active = 0;
    h->tx_log_count = 0;
    h->tx_log_bytes = 0;
    PersistHeader();
  }
  // Extra undo slots: roll back any transaction that was in flight on a
  // concurrent thread. Concurrent transactions cover disjoint ranges, so
  // the cross-slot rollback order is immaterial.
  for (int slot = 1; slot <= kExtraTxSlots; slot++) {
    TxSlotDescriptor desc;
    std::memcpy(&desc, device_->Live(TxSlotDescriptorOffset(slot)),
                sizeof(desc));
    if (desc.magic_active != kTxSlotActiveMagic) {
      continue;
    }
    ARTHAS_LOG(Info) << "pool recovery: rolling back in-flight transaction in "
                        "undo slot "
                     << slot << " (" << desc.log_count << " ranges)";
    RollbackUndoLog(ExtraTxSlotBase(slot), desc.log_count);
    desc = TxSlotDescriptor{};
    std::memcpy(device_->Live(TxSlotDescriptorOffset(slot)), &desc,
                sizeof(desc));
    PersistTxSlotDescriptor(slot);
  }
  for (bool& busy : slot_busy_) {
    busy = false;
  }
  default_tx_ = TxContext{};
  RebuildSummaryLocked();
  return OkStatus();
}

Status PmemPool::CrashAndRecover() {
  device_->Crash();
  return Recover();
}

// Finds the leftmost free node of `target` order, splitting the free nodes
// on the way down to it. Returns the node index or 0. Requires a current
// summary.
uint64_t PmemPool::FindFreeNode(size_t target) {
  if (free_order_[1] < target) {
    return 0;
  }
  uint8_t* state = TreeState();
  uint64_t node = 1;
  for (size_t order = header()->heap_order; order > target; order--) {
    if (state[node] == kNodeFree) {
      // Split lazily: children become free halves.
      state[node] = kNodeSplit;
      state[2 * node] = kNodeFree;
      state[2 * node + 1] = kNodeFree;
      PersistNode(node);
      PersistNode(2 * node);
      PersistNode(2 * node + 1);
      free_order_[2 * node] = static_cast<uint8_t>(order - 1);
      free_order_[2 * node + 1] = static_cast<uint8_t>(order - 1);
    }
    node = free_order_[2 * node] >= target ? 2 * node : 2 * node + 1;
  }
  assert(state[node] == kNodeFree);
  return node;
}

// Requires the pool mutex.
Result<Oid> PmemPool::AllocInternal(size_t size, bool zero) {
  ARTHAS_SCOPED_LATENCY("pool.alloc.ns");
  if (size == 0) {
    return Status(StatusCode::kInvalidArgument, "zero-size allocation");
  }
  PoolHeader* h = header();
  const int order = OrderForSize(h->heap_order, size);
  if (order < 0) {
    return Status(StatusCode::kOutOfSpace, "allocation exceeds heap size");
  }
  SyncSummaryLocked();
  const uint64_t node = FindFreeNode(static_cast<size_t>(order));
  if (node == 0) {
    return Status(StatusCode::kOutOfSpace, "persistent pool exhausted");
  }
  uint8_t* state = TreeState();
  state[node] = kNodeUsed;
  PersistNode(node);
  free_order_[node] = 0;
  RefreshAncestors(node);
  const uint64_t block = 1ULL << order;
  h->used_bytes += block;
  h->live_objects++;
  PersistHeader();
  stats_.allocs++;
  stats_.used_bytes = h->used_bytes;
  stats_.live_objects = h->live_objects;
  ARTHAS_COUNTER_ADD("pool.alloc.count", 1);
  ARTHAS_GAUGE_SET("pool.used.bytes", h->used_bytes);
  ARTHAS_GAUGE_SET("pool.live.objects", h->live_objects);
  // Capacity plane: mirror cell (one live pool per system in every bench).
  ARTHAS_RESOURCE_SET("pmem.pool.used.bytes", "bytes", h->used_bytes);

  const PmOffset payload = NodeOffset(node, static_cast<size_t>(order));
  if (zero) {
    std::memset(device_->Live(payload), 0, block);
    device_->PersistQuiet(payload, block);
  }
  ARTHAS_FLIGHT_RECORD(obs::FrType::kAlloc, device_->device_id(), payload,
                       block, 0);
  for (PoolObserver* obs : observers_) {
    obs->OnAlloc(payload, block);
  }
  return Oid{payload};
}

Result<Oid> PmemPool::Alloc(size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  return AllocInternal(size, false);
}
Result<Oid> PmemPool::Zalloc(size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  return AllocInternal(size, true);
}

// Locates the used node whose block starts exactly at `offset`.
// Returns {node, order} or {0, 0}.
std::pair<uint64_t, size_t> PmemPool::FindUsedNode(PmOffset offset) const {
  const PoolHeader* h = header();
  if (offset < h->heap_base ||
      offset >= h->heap_base + (1ULL << h->heap_order)) {
    return {0, 0};
  }
  const uint8_t* state = TreeState();
  uint64_t node = 1;
  size_t order = h->heap_order;
  while (state[node] == kNodeSplit) {
    order--;
    const uint64_t mid = NodeOffset(2 * node + 1, order);
    node = offset < mid ? 2 * node : 2 * node + 1;
  }
  if (state[node] != kNodeUsed || NodeOffset(node, order) != offset) {
    return {0, 0};
  }
  return {node, order};
}

// Requires the pool mutex.
Status PmemPool::FreeLocked(Oid oid) {
  ARTHAS_SCOPED_LATENCY("pool.free.ns");
  if (oid.is_null()) {
    return InvalidArgument("free of null oid");
  }
  auto [node, order] = FindUsedNode(oid.off);
  if (node == 0) {
    return FailedPrecondition("free of a non-allocated address");
  }
  SyncSummaryLocked();
  PoolHeader* h = header();
  uint8_t* state = TreeState();
  state[node] = kNodeFree;
  PersistNode(node);
  // Merge with the buddy while possible.
  uint64_t cur = node;
  size_t cur_order = order;
  while (cur > 1) {
    const uint64_t buddy = cur ^ 1ULL;
    if (state[buddy] != kNodeFree) {
      break;
    }
    const uint64_t parent = cur / 2;
    state[parent] = kNodeFree;
    PersistNode(parent);
    cur = parent;
    cur_order++;
  }
  free_order_[cur] = static_cast<uint8_t>(cur_order);
  RefreshAncestors(cur);
  const uint64_t block = 1ULL << order;
  h->used_bytes -= block;
  h->live_objects--;
  PersistHeader();
  stats_.frees++;
  stats_.used_bytes = h->used_bytes;
  stats_.live_objects = h->live_objects;
  ARTHAS_COUNTER_ADD("pool.free.count", 1);
  ARTHAS_GAUGE_SET("pool.used.bytes", h->used_bytes);
  ARTHAS_GAUGE_SET("pool.live.objects", h->live_objects);
  ARTHAS_RESOURCE_SET("pmem.pool.used.bytes", "bytes", h->used_bytes);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kFree, device_->device_id(), oid.off,
                       block, 0);
  for (PoolObserver* obs : observers_) {
    obs->OnFree(oid.off, block);
  }
  return OkStatus();
}

Status PmemPool::Free(Oid oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  return FreeLocked(oid);
}

Result<Oid> PmemPool::Realloc(Oid oid, size_t new_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (oid.is_null()) {
    return AllocInternal(new_size, false);
  }
  ARTHAS_ASSIGN_OR_RETURN(const size_t old_size, UsableSizeLocked(oid));
  if (new_size <= old_size) {
    return oid;  // fits in place
  }
  // Suppress the alloc/free observer events; realloc is reported as one
  // OnRealloc so the checkpoint log can link old and new entries.
  std::vector<PoolObserver*> saved;
  saved.swap(observers_);
  auto new_oid = AllocInternal(new_size, false);
  if (!new_oid.ok()) {
    observers_.swap(saved);
    return new_oid.status();
  }
  std::memcpy(device_->Live(new_oid->off), device_->Live(oid.off),
              std::min(old_size, new_size));
  device_->PersistQuiet(new_oid->off, std::min(old_size, new_size));
  Status freed = FreeLocked(oid);
  observers_.swap(saved);
  if (!freed.ok()) {
    return freed;
  }
  stats_.reallocs++;
  for (PoolObserver* obs : observers_) {
    obs->OnRealloc(oid.off, old_size, new_oid->off, new_size);
  }
  return *new_oid;
}

// Requires the pool mutex.
Result<size_t> PmemPool::UsableSizeLocked(Oid oid) const {
  if (oid.is_null()) {
    return Status(StatusCode::kInvalidArgument, "null oid");
  }
  auto [node, order] = FindUsedNode(oid.off);
  if (node == 0) {
    return Status(StatusCode::kCorruption, "usable_size: not an allocation");
  }
  return static_cast<size_t>(1ULL << order);
}

Result<size_t> PmemPool::UsableSize(Oid oid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return UsableSizeLocked(oid);
}

Oid PmemPool::OidOf(const void* p) const {
  const PmOffset off = device_->OffsetOf(p);
  return off == kNullPmOffset ? Oid::Null() : Oid{off};
}

Result<Oid> PmemPool::Root(size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  PoolHeader* h = header();
  if (h->root_off != kNullPmOffset) {
    if (h->root_size < size) {
      return Status(StatusCode::kInvalidArgument,
                    "root exists with smaller size");
    }
    return Oid{h->root_off};
  }
  ARTHAS_ASSIGN_OR_RETURN(Oid root, AllocInternal(size, /*zero=*/true));
  h->root_off = root.off;
  h->root_size = size;
  PersistHeader();
  return root;
}

bool PmemPool::HasRoot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return header()->root_off != kNullPmOffset;
}

void PmemPool::Persist(Oid oid, size_t offset, size_t size) {
  assert(!oid.is_null());
  device_->Persist(oid.off + offset, size);
}

Status PmemPool::TxBegin(TxContext& ctx) {
  if (ctx.active) {
    return FailedPrecondition("nested transactions are not supported");
  }
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  {
    ARTHAS_PROFILE(kLockWait);
    lock.lock();
  }
  ARTHAS_PROFILE(kBookkeeping);
  PoolHeader* h = header();
  int slot = -1;
  if (!slot_busy_[0]) {
    slot = 0;
  } else {
    for (int i = 1; i <= kExtraTxSlots; i++) {
      if (slot_busy_[i]) {
        continue;
      }
      // The chunk must sit above slot 0's already-written log bytes.
      if (ExtraTxSlotBase(i) < h->undo_off + h->tx_log_bytes) {
        break;  // lower-numbered slots have higher bases; none can fit
      }
      slot = i;
      break;
    }
  }
  if (slot < 0) {
    // Transient exhaustion, not a protocol violation: every undo slot is
    // held by a live transaction. Nothing was latched — the caller can
    // retry after any one of them commits or aborts.
    return Busy("all " + std::to_string(kMaxConcurrentTx) +
                " concurrent transaction slots are busy");
  }
  slot_busy_[slot] = true;
  const uint64_t tx_id = next_tx_id_++;
  if (slot == 0) {
    h->tx_active = 1;
    h->tx_log_count = 0;
    h->tx_log_bytes = 0;
    PersistHeader();
    ctx.undo_base = h->undo_off;
    ctx.undo_capacity = h->undo_capacity;  // re-bounded per TxAddRange
  } else {
    TxSlotDescriptor desc{kTxSlotActiveMagic, 0, 0};
    std::memcpy(device_->Live(TxSlotDescriptorOffset(slot)), &desc,
                sizeof(desc));
    PersistTxSlotDescriptor(slot);
    ctx.undo_base = ExtraTxSlotBase(slot);
    ctx.undo_capacity = ExtraTxChunkBytes();
  }
  ctx.active = true;
  ctx.tx_id = tx_id;
  ctx.slot = slot;
  ctx.log_count = 0;
  ctx.log_bytes = 0;
  {
    ARTHAS_PROFILE(kObsHook);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kTxBegin, device_->device_id(),
                         static_cast<uint64_t>(slot), 0, tx_id);
  }
  for (PoolObserver* obs : observers_) {
    obs->OnTxBegin(tx_id);
  }
  return OkStatus();
}

Status PmemPool::TxAddRange(TxContext& ctx, PmOffset offset, size_t size) {
  if (!ctx.active) {
    return FailedPrecondition("tx_add_range outside transaction");
  }
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  {
    ARTHAS_PROFILE(kLockWait);
    lock.lock();
  }
  ARTHAS_PROFILE(kBookkeeping);
  PoolHeader* h = header();
  const uint64_t capacity =
      ctx.slot == 0 ? Slot0CapacityLocked() : ctx.undo_capacity;
  const size_t need = sizeof(UndoEntryHeader) + AlignUp(size, 8);
  if (ctx.log_bytes + need > capacity) {
    return OutOfSpace("undo log full");
  }
  const PmOffset entry_off = ctx.undo_base + ctx.log_bytes;
  UndoEntryHeader eh{offset, size};
  std::memcpy(device_->Live(entry_off), &eh, sizeof(eh));
  std::memcpy(device_->Live(entry_off + sizeof(eh)), device_->Live(offset),
              size);
  device_->PersistQuiet(entry_off, sizeof(eh) + size);
  ctx.log_bytes += need;
  ctx.log_count++;
  if (ctx.slot == 0) {
    h->tx_log_bytes = ctx.log_bytes;
    h->tx_log_count = ctx.log_count;
    PersistHeader();
  } else {
    TxSlotDescriptor desc{kTxSlotActiveMagic, ctx.log_count, ctx.log_bytes};
    std::memcpy(device_->Live(TxSlotDescriptorOffset(ctx.slot)), &desc,
                sizeof(desc));
    PersistTxSlotDescriptor(ctx.slot);
  }
  {
    ARTHAS_PROFILE(kObsHook);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kTxAddRange, device_->device_id(),
                         offset, size, ctx.tx_id);
  }
  return OkStatus();
}

Status PmemPool::TxAddRange(TxContext& ctx, Oid oid, size_t offset,
                            size_t size) {
  if (oid.is_null()) {
    return InvalidArgument("tx_add_range on null oid");
  }
  return TxAddRange(ctx, oid.off + offset, size);
}

Status PmemPool::TxCommit(TxContext& ctx) {
  ARTHAS_SCOPED_LATENCY("pool.tx_commit.ns");
  if (!ctx.active) {
    return FailedPrecondition("commit outside transaction");
  }
  ARTHAS_COUNTER_ADD("pool.tx_commit.count", 1);
  std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
  {
    ARTHAS_PROFILE(kLockWait);
    lock.lock();
  }
  ARTHAS_PROFILE(kBookkeeping);
  PoolHeader* h = header();
  // Make every range registered in this transaction durable, firing the
  // durability observers (which is where the Arthas checkpoint library
  // copies the committed data, per paper Section 4.2).
  PmOffset cursor = ctx.undo_base;
  for (uint64_t i = 0; i < ctx.log_count; i++) {
    UndoEntryHeader eh;
    std::memcpy(&eh, device_->Live(cursor), sizeof(eh));
    device_->Persist(eh.offset, eh.size);
    cursor += sizeof(UndoEntryHeader) + AlignUp(eh.size, 8);
  }
  if (ctx.slot == 0) {
    h->tx_active = 0;
    h->tx_log_count = 0;
    h->tx_log_bytes = 0;
    PersistHeader();
  } else {
    TxSlotDescriptor desc{};
    std::memcpy(device_->Live(TxSlotDescriptorOffset(ctx.slot)), &desc,
                sizeof(desc));
    PersistTxSlotDescriptor(ctx.slot);
  }
  slot_busy_[ctx.slot] = false;
  const uint64_t tx_id = ctx.tx_id;
  ctx = TxContext{};
  {
    ARTHAS_PROFILE(kObsHook);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kTxCommit, device_->device_id(), 0, 0,
                         tx_id);
  }
  for (PoolObserver* obs : observers_) {
    obs->OnTxCommit(tx_id);
  }
  return OkStatus();
}

Status PmemPool::TxAbort(TxContext& ctx) {
  ARTHAS_SCOPED_LATENCY("pool.tx_abort.ns");
  if (!ctx.active) {
    return FailedPrecondition("abort outside transaction");
  }
  ARTHAS_COUNTER_ADD("pool.tx_abort.count", 1);
  std::lock_guard<std::mutex> lock(mutex_);
  PoolHeader* h = header();
  RollbackUndoLog(ctx.undo_base, ctx.log_count);
  // The logged ranges are the caller's choice and may include tree state.
  RebuildSummaryLocked();
  if (ctx.slot == 0) {
    h->tx_active = 0;
    h->tx_log_count = 0;
    h->tx_log_bytes = 0;
    PersistHeader();
  } else {
    TxSlotDescriptor desc{};
    std::memcpy(device_->Live(TxSlotDescriptorOffset(ctx.slot)), &desc,
                sizeof(desc));
    PersistTxSlotDescriptor(ctx.slot);
  }
  slot_busy_[ctx.slot] = false;
  ARTHAS_FLIGHT_RECORD(obs::FrType::kTxAbort, device_->device_id(), 0, 0,
                       ctx.tx_id);
  ctx = TxContext{};
  return OkStatus();
}

void PmemPool::WalkTree(
    uint64_t node, size_t node_order,
    const std::function<void(PmOffset, size_t, bool)>& fn) const {
  const uint8_t* state = TreeState();
  if (state[node] == kNodeSplit) {
    WalkTree(2 * node, node_order - 1, fn);
    WalkTree(2 * node + 1, node_order - 1, fn);
    return;
  }
  fn(NodeOffset(node, node_order), 1ULL << node_order,
     state[node] == kNodeUsed);
}

void PmemPool::ForEachBlock(
    const std::function<void(PmOffset, size_t, bool)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WalkTree(1, header()->heap_order, fn);
}

Status PmemPool::CheckIntegrity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const PoolHeader* h = header();
  if (h->magic != kPoolMagic) {
    return Corruption("pool header magic mismatch");
  }
  PoolHeader copy;
  std::memcpy(&copy, h, sizeof(copy));
  const uint32_t stored = copy.crc;
  copy.crc = 0;
  if (Crc32c(&copy, sizeof(copy)) != stored) {
    return Corruption("pool header checksum mismatch");
  }
  // Validate the buddy state array and the usage accounting, and the
  // summary unless an image swap has already scheduled its rebuild.
  const uint8_t* state = TreeState();
  const bool summary_current =
      summary_generation_ == device_->image_generation();
  uint64_t used = 0;
  uint64_t live = 0;
  // Iterative DFS over split nodes.
  std::vector<std::pair<uint64_t, size_t>> stack = {{1, h->heap_order}};
  while (!stack.empty()) {
    auto [node, order] = stack.back();
    stack.pop_back();
    if (state[node] > kNodeUsed) {
      return Corruption("invalid buddy node state");
    }
    if (summary_current && free_order_[node] != LocalFreeOrder(node, order)) {
      return Corruption("buddy free-order summary out of date");
    }
    if (state[node] == kNodeSplit) {
      if (order == kMinOrder) {
        return Corruption("split below minimum order");
      }
      stack.push_back({2 * node, order - 1});
      stack.push_back({2 * node + 1, order - 1});
      continue;
    }
    if (state[node] == kNodeUsed) {
      used += 1ULL << order;
      live++;
    }
  }
  if (used != h->used_bytes || live != h->live_objects) {
    return Corruption("heap accounting mismatch");
  }
  return OkStatus();
}

std::vector<std::pair<PmOffset, size_t>> PmemPool::MetadataRangesIn(
    PmOffset offset, size_t size) const {
  // All allocator metadata lives below heap_base (pool header, undo log,
  // buddy state array); the object heap contains only payloads. heap_base
  // is immutable after Format, so this is deliberately lock-free: the
  // checkpoint log calls it from reversion paths that may hold its shard
  // locks, and taking the pool mutex there would invert the lock order.
  std::vector<std::pair<PmOffset, size_t>> ranges;
  const PoolHeader* h = header();
  if (offset < h->heap_base) {
    const PmOffset end = std::min<PmOffset>(offset + size, h->heap_base);
    ranges.push_back({offset, end - offset});
  }
  return ranges;
}

size_t PmemPool::Capacity() const { return 1ULL << header()->heap_order; }

size_t PmemPool::FreeBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const PoolHeader* h = header();
  const uint64_t heap = 1ULL << h->heap_order;
  return h->used_bytes >= heap ? 0 : heap - h->used_bytes;
}

void PmemPool::AddObserver(PoolObserver* observer) {
  observers_.push_back(observer);
}

void PmemPool::RemoveObserver(PoolObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

}  // namespace arthas
