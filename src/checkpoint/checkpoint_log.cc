#include "checkpoint/checkpoint_log.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <unordered_map>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/resource/resource_accountant.h"

namespace arthas {

namespace {
// Transaction attribution is per-thread: OnTxBegin, the persists inside the
// transaction, and OnTxCommit all run on the thread executing it, so a
// thread-local tag (scoped to the log instance) attributes them correctly
// even while other threads run their own transactions. A log-global field
// would cross-tag concurrent transactions.
struct OpenTxTag {
  const void* log = nullptr;
  uint64_t tx_id = 0;
};
thread_local OpenTxTag tls_open_tx;

// Never reused, so a stale thread-local buffer entry from a destroyed log
// can never alias a new one.
std::atomic<uint64_t> next_log_id{1};

// Bucket hash for the per-shard flat index. The shard choice already
// consumed the cache-line bits (ShardOf), so mix the raw address and fold
// the high bits down — the bucket mask keeps only low bits.
uint64_t HashAddress(PmOffset address) {
  const uint64_t h = address * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

// The bytes an entry covers under the join's overlap rule. Requires the
// entry's shard mutex.
size_t ExtentLocked(const CheckpointEntry& entry) {
  return std::max(entry.original.size(),
                  entry.versions.empty() ? size_t{0}
                                         : entry.versions.back().data.size());
}
}  // namespace

// --- PayloadArena ------------------------------------------------------------
//
// Bodies live here (not inline in the header) so the capacity-plane
// instrumentation follows the same per-TU ARTHAS_OBS_DISABLED discipline
// as the rest of this file. Cells are delta-maintained: every path that
// acquires bytes adds, every path that releases them (including Clear and
// the destructor) subtracts, so a Store/Release round-trip provably
// returns the accountant to its starting values.

PayloadArena::~PayloadArena() { Clear(); }

PayloadRef PayloadArena::Store(const uint8_t* src, size_t size) {
  if (size == 0) {
    return PayloadRef();
  }
  uint8_t* span = Alloc(size);
  std::memcpy(span, src, size);
  const size_t footprint = SpanBytes(size);
  live_bytes_ += footprint;
  ARTHAS_RESOURCE_ADD("checkpoint.arena.live.bytes", "bytes", footprint);
  return PayloadRef(span, size);
}

void PayloadArena::Release(PayloadRef ref) {
  if (ref.size() == 0 || ref.size() > kMaxSmall) {
    return;  // large spans live until Clear
  }
  const size_t footprint = SpanBytes(ref.size());
  free_[ClassOf(ref.size())].push_back(const_cast<uint8_t*>(ref.data()));
  live_bytes_ -= footprint;
  freelist_bytes_ += footprint;
  ARTHAS_RESOURCE_ADD("checkpoint.arena.live.bytes", "bytes",
                      -static_cast<int64_t>(footprint));
  ARTHAS_RESOURCE_ADD("checkpoint.arena.freelist.bytes", "bytes", footprint);
}

void PayloadArena::Clear() {
  chunks_.clear();
  cursor_ = nullptr;
  remaining_ = 0;
  for (auto& list : free_) {
    list.clear();
  }
  if (chunk_counter_ != nullptr) {
    chunk_counter_->fetch_sub(allocated_bytes_, std::memory_order_relaxed);
  }
  ARTHAS_RESOURCE_ADD("checkpoint.arena.bytes", "bytes",
                      -static_cast<int64_t>(allocated_bytes_));
  ARTHAS_RESOURCE_ADD("checkpoint.arena.live.bytes", "bytes",
                      -static_cast<int64_t>(live_bytes_));
  ARTHAS_RESOURCE_ADD("checkpoint.arena.freelist.bytes", "bytes",
                      -static_cast<int64_t>(freelist_bytes_));
  allocated_bytes_ = 0;
  live_bytes_ = 0;
  freelist_bytes_ = 0;
}

void PayloadArena::AddChunkBytes(size_t bytes) {
  allocated_bytes_ += bytes;
  if (chunk_counter_ != nullptr) {
    chunk_counter_->fetch_add(bytes, std::memory_order_relaxed);
  }
  ARTHAS_RESOURCE_ADD("checkpoint.arena.bytes", "bytes", bytes);
}

uint8_t* PayloadArena::Alloc(size_t size) {
  if (size > kMaxSmall) {
    chunks_.emplace_back(new uint8_t[size]);
    AddChunkBytes(size);
    return chunks_.back().get();
  }
  const size_t cls = ClassOf(size);
  if (!free_[cls].empty()) {
    uint8_t* span = free_[cls].back();
    free_[cls].pop_back();
    const size_t cap = kMinClass << cls;
    freelist_bytes_ -= cap;
    ARTHAS_RESOURCE_ADD("checkpoint.arena.freelist.bytes", "bytes",
                        -static_cast<int64_t>(cap));
    return span;
  }
  const size_t cap = kMinClass << cls;
  if (remaining_ < cap) {
    chunks_.emplace_back(new uint8_t[kChunkBytes]);
    AddChunkBytes(kChunkBytes);
    cursor_ = chunks_.back().get();
    remaining_ = kChunkBytes;
  }
  uint8_t* span = cursor_;
  cursor_ += cap;
  remaining_ -= cap;
  return span;
}

// --- CheckpointLog -----------------------------------------------------------

CheckpointLog::CheckpointLog(PmemPool& pool, CheckpointConfig config)
    : pool_(&pool),
      device_(&pool.device()),
      config_(config),
      log_id_(next_log_id.fetch_add(1)) {
  for (Shard& shard : shards_) {
    shard.arena.BindChunkCounter(&arena_bytes_);
  }
  device_->AddObserver(this);
  pool_->AddObserver(this);
}

CheckpointLog::~CheckpointLog() {
  Detach();
  // The shard arenas unwind their own cells; the index bytes are ours.
  ARTHAS_RESOURCE_ADD("checkpoint.index.bytes", "bytes",
                      -static_cast<int64_t>(index_bytes_.load()));
}

void CheckpointLog::Detach() {
  if (pool_ != nullptr) {
    device_->RemoveObserver(this);
    pool_->RemoveObserver(this);
    pool_ = nullptr;
  }
}

// Offset hash -> shard index. Offsets are persisted-range starts; mixing the
// cache-line index spreads neighboring objects across shards while keeping
// all persists of one address on one shard.
size_t CheckpointLog::ShardOf(PmOffset address) {
  const uint64_t line = address / kCacheLineSize;
  return (line * 0x9E3779B97F4A7C15ULL >> 32) % kNumShards;
}

void CheckpointLog::RaiseMaxExtent(size_t extent) {
  size_t cur = max_extent_.load(std::memory_order_relaxed);
  while (cur < extent &&
         !max_extent_.compare_exchange_weak(cur, extent,
                                            std::memory_order_relaxed)) {
  }
}

const CheckpointEntry* CheckpointLog::FindSlot(const Shard& shard,
                                               PmOffset address) {
  if (shard.buckets.empty()) {
    return nullptr;
  }
  const size_t mask = shard.buckets.size() - 1;
  for (size_t i = HashAddress(address) & mask;; i = (i + 1) & mask) {
    const uint32_t slot = shard.buckets[i];
    if (slot == 0) {
      return nullptr;
    }
    const CheckpointEntry& entry = shard.slots[slot - 1];
    if (entry.address == address) {
      return &entry;
    }
  }
}

CheckpointEntry* CheckpointLog::FindSlot(Shard& shard, PmOffset address) {
  return const_cast<CheckpointEntry*>(
      FindSlot(static_cast<const Shard&>(shard), address));
}

void CheckpointLog::InsertBucket(Shard& shard, PmOffset address,
                                 uint32_t slot) {
  const size_t mask = shard.buckets.size() - 1;
  size_t i = HashAddress(address) & mask;
  while (shard.buckets[i] != 0) {
    i = (i + 1) & mask;
  }
  shard.buckets[i] = slot;
}

void CheckpointLog::AddIndexBytes(size_t bytes) {
  index_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  ARTHAS_RESOURCE_ADD("checkpoint.index.bytes", "bytes", bytes);
}

void CheckpointLog::PublishCounts() const {
  ARTHAS_GAUGE_SET("checkpoint.versions.retained", retained_versions_.load());
  ARTHAS_GAUGE_SET("checkpoint.entries.count", entry_count_.load());
  ARTHAS_GAUGE_SET("checkpoint.arena_bytes", arena_bytes_.load());
  ARTHAS_RESOURCE_SET("checkpoint.retained.versions", "count",
                      retained_versions_.load());
}

void CheckpointLog::AddSeqIndexCapacityLocked(Shard& shard,
                                              size_t old_capacity) {
  if (shard.seq_index.capacity() != old_capacity) {
    AddIndexBytes((shard.seq_index.capacity() - old_capacity) *
                  sizeof(std::pair<SeqNum, PmOffset>));
  }
}

// Evicting a version costs no index work on the persist path: the pairs of
// departed versions are dropped here, in one pass over the shard, instead
// of each being searched for when its version leaves.
void CheckpointLog::RebuildSeqIndexLocked(Shard& shard) {
  const size_t capacity = shard.seq_index.capacity();
  shard.seq_index.clear();
  for (const CheckpointEntry& entry : shard.slots) {
    for (const CheckpointVersion& version : entry.versions) {
      shard.seq_index.emplace_back(version.seq_num, entry.address);
    }
  }
  std::sort(shard.seq_index.begin(), shard.seq_index.end());
  shard.seq_rebuild_size =
      2 * (shard.seq_index.size() + shard.slots.size()) + 64;
  AddSeqIndexCapacityLocked(shard, capacity);
}

// (Re)builds the bucket array sized so the next insert keeps load <= 3/4.
void CheckpointLog::RehashLocked(Shard& shard) {
  size_t cap = 64;
  while ((shard.slots.size() + 1) * 4 > cap * 3) {
    cap <<= 1;
  }
  if (cap > shard.buckets.size()) {
    AddIndexBytes((cap - shard.buckets.size()) * sizeof(uint32_t));
  }
  shard.buckets.assign(cap, 0);
  for (size_t i = 0; i < shard.slots.size(); i++) {
    InsertBucket(shard, shard.slots[i].address, static_cast<uint32_t>(i + 1));
  }
}

CheckpointEntry& CheckpointLog::GetOrCreateLocked(Shard& shard,
                                                  PmOffset address,
                                                  size_t size) {
  ARTHAS_PROFILE(kIndexLookup);
  if (CheckpointEntry* found = FindSlot(shard, address)) {
    return *found;
  }
  if (shard.buckets.empty() ||
      (shard.slots.size() + 1) * 4 > shard.buckets.size() * 3) {
    RehashLocked(shard);
  }
  shard.slots.emplace_back();
  CheckpointEntry& entry = shard.slots.back();
  entry.address = address;
  {
    // Seed the pre-history with what is durable right now (the observer
    // fires before the media copy, so this is the pre-update durable data).
    ARTHAS_PROFILE(kArenaCopy);
    entry.original.assign(device_->Durable(address),
                          device_->Durable(address) + size);
  }
  InsertBucket(shard, address, static_cast<uint32_t>(shard.slots.size()));
  entry_count_++;
  AddIndexBytes(sizeof(CheckpointEntry) + entry.original.size());
  // A realloc target starts with the new block's extent and no persist, so
  // the bound must cover it here, not only after the next OnPersist.
  RaiseMaxExtent(size);
  return entry;
}

CheckpointLog::TxBuffer& CheckpointLog::LocalTxBuffer() const {
  thread_local std::unordered_map<uint64_t, TxBuffer*> tls_buffers;
  auto it = tls_buffers.find(log_id_);
  if (it == tls_buffers.end()) {
    auto owned = std::make_unique<TxBuffer>();
    TxBuffer* raw = owned.get();
    {
      std::lock_guard<std::mutex> aux(aux_mutex_);
      tx_buffers_.push_back(std::move(owned));
    }
    it = tls_buffers.emplace(log_id_, raw).first;
  }
  return *it->second;
}

void CheckpointLog::PublishTxBuffersLocked() const {
  for (const auto& buffer : tx_buffers_) {
    for (const auto& [seq, tx] : buffer->pairs) {
      seq_to_tx_[seq] = tx;
      tx_to_seqs_[tx].push_back(seq);
    }
    buffer->pairs.clear();
  }
}

void CheckpointLog::OnPersist(PmOffset offset, size_t size, const void* data) {
  Shard& shard = ShardFor(offset);
  const uint64_t tx_id = tls_open_tx.log == this ? tls_open_tx.tx_id : 0;
  SeqNum seq = kNoSeq;
  {
    std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
    {
      ARTHAS_PROFILE(kLockWait);
      lock.lock();
    }
    // Everything under the shard lock not claimed by a nested phase below
    // (index probe, arena copies) is ring/seq bookkeeping.
    ARTHAS_PROFILE(kBookkeeping);
    CheckpointEntry& entry = GetOrCreateLocked(shard, offset, size);
    // A larger persist at a known address (e.g. an object growing, or an
    // overrunning copy) extends the entry's extent: capture the still-durable
    // bytes beyond the previous extent so reversion can restore them.
    if (size > entry.original.size()) {
      ARTHAS_PROFILE(kArenaCopy);
      const size_t old_extent = entry.original.size();
      entry.original.insert(entry.original.end(),
                            device_->Durable(offset + old_extent),
                            device_->Durable(offset) + size);
      AddIndexBytes(size - old_extent);
    }
    CheckpointVersion version;
    // Allocated under the shard lock, so this shard's seq_index appends stay
    // sorted (the invariant LocateSeq's binary search relies on).
    seq = next_seq_.fetch_add(1);
    version.seq_num = seq;
    version.tx_id = tx_id;
    {
      ARTHAS_PROFILE(kArenaCopy);
      version.data =
          shard.arena.Store(static_cast<const uint8_t*>(data), size);
      // The observer fires before the media copy: the durable image still
      // holds this version's undo bytes.
      version.pre = shard.arena.Store(device_->Durable(offset), size);
    }
    if (static_cast<int>(entry.versions.size()) >= config_.max_versions) {
      // Ring is full: fold the evicted oldest version into the pre-history
      // (overlay, so a smaller version does not shrink the extent), then
      // recycle its arena spans.
      const CheckpointVersion evicted = entry.versions.front();
      if (evicted.data.size() > entry.original.size()) {
        AddIndexBytes(evicted.data.size() - entry.original.size());
        entry.original.resize(evicted.data.size());
      }
      std::copy(evicted.data.begin(), evicted.data.end(),
                entry.original.begin());
      entry.versions.erase(entry.versions.begin());
      shard.arena.Release(evicted.data);
      shard.arena.Release(evicted.pre);
      retained_versions_--;
      ARTHAS_PROFILE(kObsHook);
      ARTHAS_COUNTER_ADD("checkpoint.evict.count", 1);
      ARTHAS_FLIGHT_RECORD(obs::FrType::kCheckpointEvict,
                           device_->device_id(), offset, 0, evicted.seq_num);
    }
    const size_t seq_capacity = shard.seq_index.capacity();
    shard.seq_index.emplace_back(seq, offset);
    AddSeqIndexCapacityLocked(shard, seq_capacity);
    entry.versions.push_back(version);
    retained_versions_++;
    if (shard.seq_index.size() >= shard.seq_rebuild_size) {
      RebuildSeqIndexLocked(shard);
    }
    RaiseMaxExtent(entry.original.size());
  }
  if (tx_id != 0) {
    // Lock-free on the persist path: staged locally, published at commit.
    ARTHAS_PROFILE(kBookkeeping);
    LocalTxBuffer().pairs.emplace_back(seq, tx_id);
  }
  ARTHAS_PROFILE(kObsHook);
  stats_.records++;
  stats_.bytes_copied += size;
  ARTHAS_FLIGHT_RECORD(obs::FrType::kCheckpointTake, device_->device_id(),
                       offset, size, seq);
  // Write-amplification accounting (Section 6.4): `copy.bytes` counts both
  // the new-version and undo copies the log makes per persisted range.
  ARTHAS_COUNTER_ADD("checkpoint.record.count", 1);
  ARTHAS_COUNTER_ADD("checkpoint.copy.bytes", 2 * size);
  PublishCounts();
}

void CheckpointLog::OnAlloc(PmOffset offset, size_t size) {
  std::lock_guard<std::mutex> aux(aux_mutex_);
  allocations_[offset] = AllocationRecord{offset, size, next_seq_.load(), false};
}

void CheckpointLog::OnFree(PmOffset offset, size_t /*size*/) {
  std::lock_guard<std::mutex> aux(aux_mutex_);
  auto it = allocations_.find(offset);
  if (it != allocations_.end()) {
    it->second.freed = true;
  }
}

void CheckpointLog::OnRealloc(PmOffset old_offset, size_t /*old_size*/,
                              PmOffset new_offset, size_t new_size) {
  {
    std::lock_guard<std::mutex> aux(aux_mutex_);
    // Lifetime tracking: the old object is gone, the new one is live.
    auto it = allocations_.find(old_offset);
    if (it != allocations_.end()) {
      it->second.freed = true;
    }
    allocations_[new_offset] =
        AllocationRecord{new_offset, new_size, next_seq_.load(), false};
  }
  // Entry linkage (paper Section 4.2 / Figure 5 old_entry field): connect
  // the checkpoint histories across the move. The two addresses may live in
  // different shards; lock both in ascending shard order.
  const size_t si_new = ShardOf(new_offset);
  const size_t si_old = ShardOf(old_offset);
  std::unique_lock<std::mutex> first(shards_[std::min(si_new, si_old)].mutex);
  std::unique_lock<std::mutex> second;
  if (si_new != si_old) {
    second = std::unique_lock<std::mutex>(
        shards_[std::max(si_new, si_old)].mutex);
  }
  CheckpointEntry& fresh =
      GetOrCreateLocked(shards_[si_new], new_offset, new_size);
  fresh.old_entry = old_offset;
  if (CheckpointEntry* old_entry = FindSlot(shards_[si_old], old_offset)) {
    old_entry->new_entry = new_offset;
  }
  PublishCounts();
}

void CheckpointLog::OnTxBegin(uint64_t tx_id) {
  tls_open_tx = OpenTxTag{this, tx_id};
}

void CheckpointLog::OnTxCommit(uint64_t /*tx_id*/) {
  if (tls_open_tx.log != this) {
    return;
  }
  tls_open_tx = OpenTxTag{};
  // Publish this thread's staged attribution pairs. Only the owning thread
  // appends to its buffer, so taking aux here races with nothing but other
  // publishers.
  TxBuffer& buffer = LocalTxBuffer();
  if (buffer.pairs.empty()) {
    return;
  }
  std::lock_guard<std::mutex> aux(aux_mutex_);
  for (const auto& [seq, tx] : buffer.pairs) {
    seq_to_tx_[seq] = tx;
    tx_to_seqs_[tx].push_back(seq);
  }
  buffer.pairs.clear();
}

void CheckpointLog::ForEachEntry(
    const std::function<void(const CheckpointEntry&)>& fn) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const CheckpointEntry& entry : shard.slots) {
      fn(entry);
    }
  }
}

std::map<PmOffset, CheckpointEntry> CheckpointLog::entries() const {
  std::map<PmOffset, CheckpointEntry> merged;
  ForEachEntry([&merged](const CheckpointEntry& entry) {
    merged.emplace(entry.address, entry);
  });
  return merged;
}

const CheckpointEntry* CheckpointLog::Find(PmOffset address) const {
  const Shard& shard = ShardFor(address);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return FindSlot(shard, address);
}

void CheckpointLog::RefreshAddressViewLocked() const {
  if (address_view_.size() == entry_count_.load()) {
    return;
  }
  // Each entry is counted under its shard's lock when it is created, so a
  // rebuild racing a new entry ends up short of entry_count_ and the next
  // query rebuilds again; it can never end up complete but stale.
  address_view_.clear();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const CheckpointEntry& entry : shard.slots) {
      address_view_.emplace_back(entry.address, &entry);
    }
  }
  // Addresses are unique, so this is the order of a sort of the pairs.
  RadixSort(address_view_,
            [](const std::pair<PmOffset, const CheckpointEntry*>& e) {
              return e.first;
            });
}

std::vector<const CheckpointEntry*> CheckpointLog::JoinAddressView(
    std::span<const PmOffset> starts, size_t size) const {
  assert(std::is_sorted(starts.begin(), starts.end()));
  std::vector<const CheckpointEntry*> out;
  std::lock_guard<std::mutex> view_lock(view_mutex_);
  RefreshAddressViewLocked();
  // Only entries starting less than max_extent below a range can reach it.
  const size_t max_extent = max_extent_.load();
  auto entry = address_view_.cbegin();
  const auto view_end = address_view_.cend();
  auto start = starts.begin();
  while (start != starts.end() && entry != view_end) {
    // Every range before `start` ends at or before the entry (the cursor
    // only moves forward), so `start` is the first range it can overlap:
    // if the entry does not reach it, it reaches no later one either.
    if (entry->first >= *start + size) {
      ++start;
      continue;
    }
    const PmOffset window = *start >= max_extent ? *start - max_extent + 1 : 0;
    if (entry->first < window) {
      entry = std::lower_bound(
          entry, view_end, window,
          [](const std::pair<PmOffset, const CheckpointEntry*>& e,
             PmOffset a) { return e.first < a; });
      continue;
    }
    const CheckpointEntry& candidate = *entry->second;
    size_t extent;
    {
      std::lock_guard<std::mutex> lock(ShardFor(candidate.address).mutex);
      extent = ExtentLocked(candidate);
    }
    if (*start < candidate.address + extent) {
      out.push_back(&candidate);
    }
    ++entry;
  }
  return out;
}

std::vector<const CheckpointEntry*> CheckpointLog::OverlappingAny(
    std::span<const PmOffset> addresses) const {
  return JoinAddressView(addresses, 1);
}

std::vector<const CheckpointEntry*> CheckpointLog::Overlapping(
    PmOffset offset, size_t size) const {
  return JoinAddressView({&offset, 1}, size);
}

size_t CheckpointLog::ExtentAt(PmOffset address) const {
  const Shard& shard = ShardFor(address);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const CheckpointEntry* entry = FindSlot(shard, address);
  return entry == nullptr ? 0 : ExtentLocked(*entry);
}

std::optional<std::pair<PmOffset, int>> CheckpointLog::LocateSeq(
    SeqNum seq) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto idx = std::lower_bound(
        shard.seq_index.begin(), shard.seq_index.end(), seq,
        [](const std::pair<SeqNum, PmOffset>& p, SeqNum s) {
          return p.first < s;
        });
    if (idx == shard.seq_index.end() || idx->first != seq) {
      continue;
    }
    const CheckpointEntry* entry = FindSlot(shard, idx->second);
    if (entry == nullptr) {
      return std::nullopt;
    }
    for (size_t i = 0; i < entry->versions.size(); i++) {
      if (entry->versions[i].seq_num == seq) {
        return std::make_pair(entry->address, static_cast<int>(i));
      }
    }
    return std::nullopt;  // version left its ring: evicted or reverted
  }
  return std::nullopt;
}

std::vector<SeqNum> CheckpointLog::SeqsInSameTx(SeqNum seq) const {
  std::lock_guard<std::mutex> aux(aux_mutex_);
  PublishTxBuffersLocked();
  auto it = seq_to_tx_.find(seq);
  if (it == seq_to_tx_.end()) {
    return {seq};
  }
  return tx_to_seqs_.at(it->second);
}

// Restores payload bytes, stepping around the allocator metadata the
// current heap layout places inside the range (see
// PmemPool::MetadataRangesIn).
void CheckpointLog::RestoreBytes(PmOffset address, const uint8_t* data,
                                 size_t size) {
  if (pool_ == nullptr) {
    device_->RawRestore(address, data, size);
    return;
  }
  size_t cursor = 0;
  for (const auto& [moff, msize] : pool_->MetadataRangesIn(address, size)) {
    const size_t rel = moff - address;
    if (rel > cursor) {
      device_->RawRestore(address + cursor, data + cursor, rel - cursor);
    }
    cursor = std::min(size, rel + msize);
  }
  if (cursor < size) {
    device_->RawRestore(address + cursor, data + cursor, size - cursor);
  }
}

SeqNum CheckpointLog::AllocationEpoch(PmOffset address) const {
  std::lock_guard<std::mutex> aux(aux_mutex_);
  auto it = allocations_.upper_bound(address);
  if (it == allocations_.begin()) {
    return kNoSeq;
  }
  --it;
  const AllocationRecord& record = it->second;
  if (record.freed || address >= record.offset + record.size) {
    return kNoSeq;
  }
  return record.alloc_seq;
}

// Reconstructs the bytes of the entry's full extent as they were after the
// first `upto` versions were applied (upto == 0 means the pre-history).
// Versions may have different sizes, so later/larger ones overlay the base.
// The base respects allocation epochs: if any retained version predates the
// current allocation at this address, the bytes before the object's first
// in-epoch update are its Zalloc birth state (zeros), not the previous
// occupant's remains.
std::vector<uint8_t> CheckpointLog::ReconstructState(
    const CheckpointEntry& entry, size_t upto) const {
  const SeqNum epoch = AllocationEpoch(entry.address);
  size_t first_valid = 0;
  if (epoch != kNoSeq) {
    while (first_valid < entry.versions.size() &&
           entry.versions[first_valid].seq_num < epoch) {
      first_valid++;
    }
  }
  std::vector<uint8_t> state = entry.original;
  if (first_valid > 0) {
    // Zero the birth state of the *current* object only; bytes of the
    // extent beyond its allocation (e.g. a neighbor clobbered by an
    // overrun, captured when the extent grew) keep their pre-history.
    size_t zero_end = state.size();
    std::lock_guard<std::mutex> aux(aux_mutex_);
    auto it = allocations_.upper_bound(entry.address);
    if (it != allocations_.begin()) {
      --it;
      const AllocationRecord& record = it->second;
      if (!record.freed && entry.address < record.offset + record.size) {
        zero_end = std::min<size_t>(
            zero_end, record.offset + record.size - entry.address);
      }
    }
    std::fill(state.begin(),
              state.begin() + static_cast<ptrdiff_t>(zero_end), 0);
  }
  for (size_t v = first_valid; v < upto && v < entry.versions.size(); v++) {
    const PayloadRef data = entry.versions[v].data;
    if (data.size() > state.size()) {
      state.resize(data.size());
    }
    std::copy(data.begin(), data.end(), state.begin());
  }
  return state;
}

Result<bool> CheckpointLog::RevertSeq(SeqNum seq) {
  auto loc = LocateSeq(seq);
  if (!loc.has_value()) {
    return NotFound("sequence number " + std::to_string(seq) +
                    " not in checkpoint log (version evicted or never "
                    "recorded)");
  }
  // Caller-serialized (see header): no shard lock is held while the device's
  // raw-restore path runs.
  Shard& shard = ShardFor(loc->first);
  CheckpointEntry& entry = *FindSlot(shard, loc->first);
  const int idx = loc->second;
  // Divergence rule: if the bytes currently at the address no longer match
  // what this version checkpointed, the state was corrupted *after* the
  // persist (e.g. a hardware bit flip written back by an unrelated flush).
  // Reverting then means restoring this checkpointed good version, not
  // stepping behind it (paper: "revert problematic PM states to good
  // versions").
  const CheckpointVersion& checked = entry.versions[idx];
  const bool is_newest = idx == static_cast<int>(entry.versions.size()) - 1;
  // Divergence comparison masks out allocator metadata under the current
  // heap layout: blocks carved inside the range after the persist are
  // legitimate churn, not corruption.
  auto diverged_from = [&](PayloadRef data) {
    size_t cursor = 0;
    auto differs = [&](size_t lo, size_t hi) {
      return std::memcmp(device_->Live(entry.address + lo), data.data() + lo,
                         hi - lo) != 0;
    };
    if (pool_ != nullptr) {
      for (const auto& [moff, msize] :
           pool_->MetadataRangesIn(entry.address, data.size())) {
        const size_t rel = moff - entry.address;
        if (rel > cursor && differs(cursor, rel)) {
          return true;
        }
        cursor = std::min(data.size(), rel + msize);
      }
    }
    return cursor < data.size() && differs(cursor, data.size());
  };
  // Erases versions [from, end) and recycles their arena spans. Valid only
  // after every use of the spans (including `checked`'s) is done.
  auto discard_from = [&](size_t from) {
    for (size_t i = from; i < entry.versions.size(); i++) {
      shard.arena.Release(entry.versions[i].data);
      shard.arena.Release(entry.versions[i].pre);
    }
    entry.versions.erase(entry.versions.begin() + static_cast<ptrdiff_t>(from),
                         entry.versions.end());
  };
  if (is_newest && diverged_from(checked.data)) {
    RestoreBytes(entry.address, checked.data.data(), checked.data.size());
    const auto discarded =
        entry.versions.size() - static_cast<size_t>(idx) - 1;
    stats_.reverted_updates += discarded + 1;
    discard_from(static_cast<size_t>(idx) + 1);
    retained_versions_ -= discarded;
    ARTHAS_COUNTER_ADD("checkpoint.revert.count", discarded + 1);
    PublishCounts();
    ARTHAS_FLIGHT_RECORD(obs::FrType::kCheckpointRevert,
                         device_->device_id(), entry.address, discarded + 1,
                         seq, obs::FrReason::kDivergence);
    return true;  // divergence restore
  }
  // Restore the pre-state of exactly the byte range this version persisted
  // (the entry's per-version sizes — paper Figure 5). Writing the entry's
  // whole extent would undo co-located updates the program persisted
  // separately, which purge mode must not do. The version's captured undo
  // bytes are authoritative within its range; the reconstructed chain
  // covers any extent beyond it.
  std::vector<uint8_t> state =
      ReconstructState(entry, static_cast<size_t>(idx));
  if (checked.pre.size() > state.size()) {
    state.resize(checked.pre.size());
  }
  std::copy(checked.pre.begin(), checked.pre.end(), state.begin());
  const size_t span = std::max(checked.data.size(), checked.pre.size());
  RestoreBytes(entry.address, state.data(), std::min(span, state.size()));
  const auto discarded = entry.versions.size() - static_cast<size_t>(idx);
  stats_.reverted_updates += discarded;
  discard_from(static_cast<size_t>(idx));
  retained_versions_ -= discarded;
  ARTHAS_COUNTER_ADD("checkpoint.revert.count", discarded);
  PublishCounts();
  ARTHAS_FLIGHT_RECORD(obs::FrType::kCheckpointRevert, device_->device_id(),
                       entry.address, discarded, seq);
  return false;
}

Result<uint64_t> CheckpointLog::RollbackToSeq(SeqNum seq) {
  uint64_t discarded = 0;
  for (Shard& shard : shards_) {
    for (CheckpointEntry& entry : shard.slots) {
      int first_newer = -1;
      for (size_t i = 0; i < entry.versions.size(); i++) {
        if (entry.versions[i].seq_num >= seq) {
          first_newer = static_cast<int>(i);
          break;
        }
      }
      if (first_newer < 0) {
        continue;
      }
      std::vector<uint8_t> restore =
          ReconstructState(entry, static_cast<size_t>(first_newer));
      const PayloadRef pre = entry.versions[first_newer].pre;
      if (pre.size() > restore.size()) {
        restore.resize(pre.size());
      }
      std::copy(pre.begin(), pre.end(), restore.begin());
      RestoreBytes(entry.address, restore.data(), restore.size());
      discarded += entry.versions.size() - static_cast<size_t>(first_newer);
      for (size_t i = static_cast<size_t>(first_newer);
           i < entry.versions.size(); i++) {
        shard.arena.Release(entry.versions[i].data);
        shard.arena.Release(entry.versions[i].pre);
      }
      entry.versions.erase(entry.versions.begin() + first_newer,
                           entry.versions.end());
    }
  }
  stats_.reverted_updates += discarded;
  retained_versions_ -= discarded;
  ARTHAS_COUNTER_ADD("checkpoint.revert.count", discarded);
  PublishCounts();
  ARTHAS_FLIGHT_RECORD(obs::FrType::kCheckpointRollback,
                       device_->device_id(), 0, discarded, seq);
  return discarded;
}

SeqNum CheckpointLog::NewestSeqAt(PmOffset address) const {
  const Shard& shard = ShardFor(address);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const CheckpointEntry* entry = FindSlot(shard, address);
  if (entry == nullptr || entry->versions.empty()) {
    return kNoSeq;
  }
  return entry->versions.back().seq_num;
}

SeqNum CheckpointLog::NewestRetainedSeq() const {
  SeqNum newest = kNoSeq;
  ForEachEntry([&newest](const CheckpointEntry& entry) {
    if (!entry.versions.empty()) {
      newest = std::max(newest, entry.versions.back().seq_num);
    }
  });
  return newest;
}

Status CheckpointLog::RevertLatestAt(PmOffset address) {
  const SeqNum seq = NewestSeqAt(address);
  if (seq == kNoSeq) {
    return NotFound("no retained versions at address " +
                    std::to_string(address));
  }
  return RevertSeq(seq).status();
}

std::vector<AllocationRecord> CheckpointLog::UnfreedAllocations() const {
  std::lock_guard<std::mutex> aux(aux_mutex_);
  std::vector<AllocationRecord> out;
  for (const auto& [offset, record] : allocations_) {
    if (!record.freed) {
      out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const AllocationRecord& a, const AllocationRecord& b) {
              return a.alloc_seq < b.alloc_seq;
            });
  return out;
}

}  // namespace arthas
