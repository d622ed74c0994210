// Serialization of the checkpoint log (see checkpoint_log.h). A simple
// length-prefixed binary format with a magic/version header; everything the
// reactor needs to plan reversions after a reactor-process restart is
// included: entries with their version rings (data + undo bytes + sequence
// and transaction ids), the realloc links, transaction groups, allocation
// records, and the sequence counter.
//
// Serialize streams the shards through ForEachEntry in shard/slot order —
// no merged address-ordered map is materialized (Restore redistributes by
// ShardOf, a pure function of the address, so the on-wire entry order is
// irrelevant). The per-version sequence numbers come from one atomic
// counter and need no renumbering.

#include <algorithm>
#include <array>
#include <cstring>

#include "checkpoint/checkpoint_log.h"
#include "common/clock.h"
#include "obs/obs.h"
#include "obs/resource/resource_accountant.h"

namespace arthas {

namespace {
constexpr uint64_t kLogMagic = 0x41525448'434b5031ULL;  // "ARTHCKP1"

class Writer {
 public:
  void U64(uint64_t v) {
    const size_t at = bytes.size();
    bytes.resize(at + 8);
    std::memcpy(bytes.data() + at, &v, 8);
  }
  void Blob(const uint8_t* data, size_t size) {
    U64(size);
    bytes.insert(bytes.end(), data, data + size);
  }
  void Blob(const std::vector<uint8_t>& data) {
    Blob(data.data(), data.size());
  }
  void Blob(PayloadRef data) { Blob(data.data(), data.size()); }
  std::vector<uint8_t> bytes;
};

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool U64(uint64_t* v) {
    if (at_ + 8 > bytes_.size()) {
      return false;
    }
    std::memcpy(v, bytes_.data() + at_, 8);
    at_ += 8;
    return true;
  }
  bool Blob(std::vector<uint8_t>* data) {
    uint64_t size = 0;
    if (!U64(&size) || at_ + size > bytes_.size()) {
      return false;
    }
    data->assign(bytes_.begin() + static_cast<ptrdiff_t>(at_),
                 bytes_.begin() + static_cast<ptrdiff_t>(at_ + size));
    at_ += size;
    return true;
  }
  bool Done() const { return at_ == bytes_.size(); }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t at_ = 0;
};

// Parsed-but-not-committed entry: payloads still own their bytes (they move
// into the target shard's arena only once the whole image parses cleanly).
struct StagedVersion {
  SeqNum seq_num = kNoSeq;
  uint64_t tx_id = 0;
  std::vector<uint8_t> data;
  std::vector<uint8_t> pre;
};
struct StagedEntry {
  PmOffset address = kNullPmOffset;
  std::vector<uint8_t> original;
  PmOffset old_entry = kNullPmOffset;
  PmOffset new_entry = kNullPmOffset;
  std::vector<StagedVersion> versions;
};
}  // namespace

std::vector<uint8_t> CheckpointLog::Serialize() const {
  ScopedTimer timer;
  Writer w;
  w.U64(kLogMagic);
  w.U64(next_seq_.load());
  w.U64(static_cast<uint64_t>(config_.max_versions));

  w.U64(entry_count_.load());
  ForEachEntry([&w](const CheckpointEntry& entry) {
    w.U64(entry.address);
    w.Blob(entry.original);
    w.U64(entry.old_entry);
    w.U64(entry.new_entry);
    w.U64(entry.versions.size());
    for (const CheckpointVersion& v : entry.versions) {
      w.U64(v.seq_num);
      w.U64(v.tx_id);
      w.Blob(v.data);
      w.Blob(v.pre);
    }
  });

  std::lock_guard<std::mutex> aux(aux_mutex_);
  // Fold any still-staged per-thread seq->tx pairs (e.g. from a transaction
  // whose commit hook ran on a thread that never published) into the maps
  // before writing them out. Caller-serialized, so no thread is appending.
  PublishTxBuffersLocked();
  w.U64(allocations_.size());
  for (const auto& [offset, record] : allocations_) {
    w.U64(record.offset);
    w.U64(record.size);
    w.U64(record.alloc_seq);
    w.U64(record.freed ? 1 : 0);
  }

  w.U64(seq_to_tx_.size());
  for (const auto& [seq, tx] : seq_to_tx_) {
    w.U64(seq);
    w.U64(tx);
  }
  ARTHAS_HISTOGRAM_RECORD("checkpoint.serialize.ns", timer.ElapsedNanos());
  ARTHAS_GAUGE_SET("checkpoint.image.bytes", w.bytes.size());
  ARTHAS_COUNTER_ADD("checkpoint.serialize.count", 1);
  return std::move(w.bytes);
}

Status CheckpointLog::Restore(const std::vector<uint8_t>& image) {
  Reader r(image);
  uint64_t magic = 0;
  uint64_t next_seq = 0;
  uint64_t max_versions = 0;
  if (!r.U64(&magic) || magic != kLogMagic) {
    return Corruption("bad checkpoint-log image magic");
  }
  if (!r.U64(&next_seq) || !r.U64(&max_versions)) {
    return Corruption("truncated checkpoint-log header");
  }

  // Parse everything into staging storage first, so a truncated image never
  // leaves the log half-replaced; entries are distributed to their shards
  // at commit time (the shard assignment is a pure function of the
  // address).
  std::array<std::vector<StagedEntry>, kNumShards> staged;
  uint64_t entry_count = 0;
  if (!r.U64(&entry_count)) {
    return Corruption("truncated entry count");
  }
  size_t max_extent = 0;
  for (uint64_t i = 0; i < entry_count; i++) {
    StagedEntry entry;
    uint64_t version_count = 0;
    if (!r.U64(&entry.address) || !r.Blob(&entry.original) ||
        !r.U64(&entry.old_entry) || !r.U64(&entry.new_entry) ||
        !r.U64(&version_count)) {
      return Corruption("truncated entry");
    }
    for (uint64_t v = 0; v < version_count; v++) {
      StagedVersion version;
      if (!r.U64(&version.seq_num) || !r.U64(&version.tx_id) ||
          !r.Blob(&version.data) || !r.Blob(&version.pre)) {
        return Corruption("truncated version");
      }
      entry.versions.push_back(std::move(version));
    }
    max_extent = std::max(max_extent, entry.original.size());
    staged[ShardOf(entry.address)].push_back(std::move(entry));
  }

  std::map<PmOffset, AllocationRecord> allocations;
  uint64_t alloc_count = 0;
  if (!r.U64(&alloc_count)) {
    return Corruption("truncated allocation count");
  }
  for (uint64_t i = 0; i < alloc_count; i++) {
    AllocationRecord record;
    uint64_t size = 0;
    uint64_t freed = 0;
    if (!r.U64(&record.offset) || !r.U64(&size) || !r.U64(&record.alloc_seq) ||
        !r.U64(&freed)) {
      return Corruption("truncated allocation record");
    }
    record.size = size;
    record.freed = freed != 0;
    allocations.emplace(record.offset, record);
  }

  std::map<SeqNum, uint64_t> seq_to_tx;
  std::map<uint64_t, std::vector<SeqNum>> tx_to_seqs;
  uint64_t tx_count = 0;
  if (!r.U64(&tx_count)) {
    return Corruption("truncated tx map");
  }
  for (uint64_t i = 0; i < tx_count; i++) {
    uint64_t seq = 0;
    uint64_t tx = 0;
    if (!r.U64(&seq) || !r.U64(&tx)) {
      return Corruption("truncated tx entry");
    }
    seq_to_tx[seq] = tx;
    tx_to_seqs[tx].push_back(seq);
  }
  if (!r.Done()) {
    return Corruption("trailing bytes in checkpoint-log image");
  }

  // The address view points into the slots about to be replaced: drop it,
  // and hold its mutex until entry_count_ describes the new slots.
  std::lock_guard<std::mutex> view_lock(view_mutex_);
  address_view_.clear();
  uint64_t total_entries = 0;
  uint64_t total_versions = 0;
  // The rebuild replaces the whole index: restart its byte accounting and
  // let the per-entry adds and RehashLocked re-accumulate it.
  ARTHAS_RESOURCE_ADD("checkpoint.index.bytes", "bytes",
                      -static_cast<int64_t>(index_bytes_.load()));
  index_bytes_.store(0);
  for (size_t si = 0; si < kNumShards; si++) {
    std::lock_guard<std::mutex> lock(shards_[si].mutex);
    Shard& shard = shards_[si];
    shard.slots.clear();
    shard.buckets.clear();
    // Freed, not cleared: the rebuild below accounts its capacity afresh.
    std::vector<std::pair<SeqNum, PmOffset>>().swap(shard.seq_index);
    shard.arena.Clear();
    for (StagedEntry& src : staged[si]) {
      shard.slots.emplace_back();
      CheckpointEntry& dst = shard.slots.back();
      dst.address = src.address;
      dst.original = std::move(src.original);
      dst.old_entry = src.old_entry;
      dst.new_entry = src.new_entry;
      AddIndexBytes(sizeof(CheckpointEntry) + dst.original.size());
      for (const StagedVersion& sv : src.versions) {
        CheckpointVersion version;
        version.seq_num = sv.seq_num;
        version.tx_id = sv.tx_id;
        version.data = shard.arena.Store(sv.data.data(), sv.data.size());
        version.pre = shard.arena.Store(sv.pre.data(), sv.pre.size());
        dst.versions.push_back(version);
        total_versions++;
      }
    }
    RebuildSeqIndexLocked(shard);
    RehashLocked(shard);
    total_entries += shard.slots.size();
  }
  {
    std::lock_guard<std::mutex> aux(aux_mutex_);
    // Staged pairs from the pre-restore history must not leak into the
    // restored maps.
    for (const auto& buffer : tx_buffers_) {
      buffer->pairs.clear();
    }
    allocations_ = std::move(allocations);
    seq_to_tx_ = std::move(seq_to_tx);
    tx_to_seqs_ = std::move(tx_to_seqs);
  }
  next_seq_ = next_seq;
  entry_count_ = total_entries;
  retained_versions_ = total_versions;
  config_.max_versions = static_cast<int>(max_versions);
  max_extent_ = max_extent;
  PublishCounts();
  return OkStatus();
}

}  // namespace arthas
