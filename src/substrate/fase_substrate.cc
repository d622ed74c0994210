#include "substrate/fase_substrate.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/resource/resource_accountant.h"

namespace arthas {

namespace {

// This thread's stack of open sections, one entry per FASE substrate whose
// SectionBegin ran here without its matching End/Abort yet. A plain vector:
// depth is the number of distinct FASE systems a thread interleaves, which
// is 1 in every driver and a handful in tests.
struct TlsSection {
  uint64_t instance;
  uint64_t section;
};
thread_local std::vector<TlsSection> tls_sections;

std::atomic<uint64_t> next_instance_id{1};

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~7ULL; }

}  // namespace

FaseSubstrate::FaseSubstrate(FaseConfig config)
    : config_(config),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
}

FaseSubstrate::~FaseSubstrate() { Detach(); }

Status FaseSubstrate::Attach(PmemPool& pool) {
  if (pool_ != nullptr) {
    return FailedPrecondition("substrate already attached");
  }
  if (config_.log_bytes < kLogStart + sizeof(RecordHeader)) {
    return InvalidArgument("FASE section log region too small");
  }
  if (log_device_ == nullptr) {
    log_device_ = std::make_unique<PmemDevice>(config_.log_bytes);
    LogHeader header{kLogMagic, kLogStart};
    std::memcpy(log_device_->Live(0), &header, sizeof(header));
    log_device_->PersistQuiet(0, sizeof(header));
  }
  pool_ = &pool;
  device_ = &pool.device();
  device_->AddObserver(this);
  pool.AddObserver(this);
  return OkStatus();
}

void FaseSubstrate::Detach() {
  if (pool_ == nullptr) {
    return;
  }
  device_->RemoveObserver(this);
  pool_->RemoveObserver(this);
  pool_ = nullptr;
  device_ = nullptr;
}

void FaseSubstrate::SectionBegin(uint64_t section_id) {
  if (pool_ == nullptr) {
    return;
  }
  tls_sections.push_back(TlsSection{instance_id_, section_id});
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    open_sections_.insert(section_id);
    AppendLocked(kBegin, section_id, 0, nullptr, 0);
  }
  sections_begun_.fetch_add(1, std::memory_order_relaxed);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kSectionBegin, device_->device_id(),
                       /*addr=*/0, /*size=*/0, /*arg=*/section_id);
}

void FaseSubstrate::SectionEnd(uint64_t section_id) {
  if (pool_ == nullptr) {
    return;
  }
  // Atlas retires a section only after its data is flushed: drain the
  // staged lines first, which also routes their undo capture through
  // OnPersist while this thread's TLS entry is still current.
  device_->Drain();
  while (!tls_sections.empty() &&
         tls_sections.back().instance == instance_id_ &&
         tls_sections.back().section == section_id) {
    tls_sections.pop_back();
  }
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    AppendLocked(kCommit, section_id, 0, nullptr, 0);
    open_sections_.erase(section_id);
    if (open_sections_.empty() && aborted_sections_.empty()) {
      // Every section in the log is committed: nothing recovery could roll
      // back, so the log truncates to empty (Atlas's log pruning).
      ResetLogLocked();
    }
  }
  sections_committed_.fetch_add(1, std::memory_order_relaxed);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kSectionCommit, device_->device_id(),
                       /*addr=*/0, /*size=*/0, /*arg=*/section_id);
}

void FaseSubstrate::SectionAbort(uint64_t section_id) {
  if (pool_ == nullptr) {
    return;
  }
  // The aborted section models the process dying mid-section: no drain (its
  // unflushed lines die with the process), no commit record. The begin/undo
  // records stay in the log so the next Recover() rolls the section back.
  while (!tls_sections.empty() &&
         tls_sections.back().instance == instance_id_ &&
         tls_sections.back().section == section_id) {
    tls_sections.pop_back();
  }
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    open_sections_.erase(section_id);
    aborted_sections_.insert(section_id);
  }
  sections_aborted_.fetch_add(1, std::memory_order_relaxed);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kSectionAbort, device_->device_id(),
                       /*addr=*/0, /*size=*/0, /*arg=*/section_id);
}

void FaseSubstrate::OnPersist(PmOffset offset, size_t size, const void* data) {
  (void)data;
  uint64_t section = 0;
  for (auto it = tls_sections.rbegin(); it != tls_sections.rend(); ++it) {
    if (it->instance == instance_id_) {
      section = it->section;
      break;
    }
  }
  if (section == 0) {
    return;  // outside any section: not failure-atomic, nothing to log
  }
  // Observer callbacks fire at the durability point before the live image
  // is copied onto the media image, with the range's stripes held — so the
  // durable view still holds the pre-image this record must capture.
  const uint8_t* pre = device_->Durable(offset);
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (AppendLocked(kUndo, section, offset, pre, static_cast<uint32_t>(size))) {
    undo_records_.fetch_add(1, std::memory_order_relaxed);
    undo_bytes_.fetch_add(size, std::memory_order_relaxed);
  }
}

void FaseSubstrate::OnAlloc(PmOffset offset, size_t size) {
  (void)offset;
  (void)size;
}

void FaseSubstrate::OnFree(PmOffset offset, size_t size) {
  (void)offset;
  (void)size;
}

void FaseSubstrate::OnRealloc(PmOffset old_offset, size_t old_size,
                              PmOffset new_offset, size_t new_size) {
  (void)old_offset;
  (void)old_size;
  (void)new_offset;
  (void)new_size;
}

void FaseSubstrate::OnTxBegin(uint64_t tx_id) {
  (void)tx_id;
  tx_begins_.fetch_add(1, std::memory_order_relaxed);
}

void FaseSubstrate::OnTxCommit(uint64_t tx_id) {
  (void)tx_id;
  tx_commits_.fetch_add(1, std::memory_order_relaxed);
}

bool FaseSubstrate::AppendLocked(RecordKind kind, uint64_t section_id,
                                 uint64_t target_off, const uint8_t* payload,
                                 uint32_t payload_size) {
  LogHeader header;
  std::memcpy(&header, log_device_->Live(0), sizeof(header));
  const uint64_t need =
      AlignUp8(sizeof(RecordHeader) + static_cast<uint64_t>(payload_size));
  if (header.tail + need > log_device_->size()) {
    log_overflows_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  RecordHeader record{static_cast<uint32_t>(kind), payload_size, section_id,
                      target_off};
  std::memcpy(log_device_->Live(header.tail), &record, sizeof(record));
  if (payload_size > 0) {
    std::memcpy(log_device_->Live(header.tail + sizeof(record)), payload,
                payload_size);
  }
  // Record bytes first, then the tail bump: the tail is the append's
  // durable commit point, so a torn append is never parsed.
  log_device_->PersistQuiet(header.tail, need);
  header.tail += need;
  std::memcpy(log_device_->Live(0), &header, sizeof(header));
  log_device_->PersistQuiet(0, sizeof(header));
  // Capacity plane: the section log's durable footprint (mirror cells —
  // last writer wins; one substrate owns the log in every driver).
  ARTHAS_GAUGE_SET("substrate.section_log_bytes", header.tail);
  ARTHAS_RESOURCE_SET("substrate.section.log.bytes", "bytes", header.tail);
  return true;
}

void FaseSubstrate::ResetLogLocked() {
  LogHeader header{kLogMagic, kLogStart};
  std::memcpy(log_device_->Live(0), &header, sizeof(header));
  log_device_->PersistQuiet(0, sizeof(header));
  log_resets_.fetch_add(1, std::memory_order_relaxed);
  ARTHAS_GAUGE_SET("substrate.section_log_bytes", header.tail);
  ARTHAS_RESOURCE_SET("substrate.section.log.bytes", "bytes", header.tail);
}

void FaseSubstrate::RestoreAroundMetadata(PmOffset target_off,
                                          const uint8_t* data, size_t size) {
  // Undo ranges arrive cache-line rounded from Drain, so they can reach
  // into the allocator metadata below the heap; restoring that would
  // corrupt the heap the pool just recovered. Skip the metadata, restore
  // the payload around it (the checkpoint log's restore uses the same
  // discipline).
  size_t cursor = 0;
  for (const auto& [moff, msize] : pool_->MetadataRangesIn(target_off, size)) {
    const size_t rel = moff - target_off;
    if (rel > cursor) {
      device_->RawRestore(target_off + cursor, data + cursor, rel - cursor);
    }
    cursor = std::min(size, rel + msize);
  }
  if (cursor < size) {
    device_->RawRestore(target_off + cursor, data + cursor, size - cursor);
  }
}

Status FaseSubstrate::Recover() {
  if (pool_ == nullptr) {
    return FailedPrecondition("FASE substrate is not attached");
  }
  std::lock_guard<std::mutex> lock(log_mutex_);
  // The log region is PM too: only its durable bytes survive the crash.
  // Appends persist eagerly, so this discards nothing in practice.
  log_device_->Crash();

  LogHeader header;
  std::memcpy(&header, log_device_->Live(0), sizeof(header));
  if (header.magic != kLogMagic || header.tail < kLogStart ||
      header.tail > log_device_->size()) {
    ResetLogLocked();
    open_sections_.clear();
    aborted_sections_.clear();
    return Corruption("FASE section log header invalid");
  }

  struct ParsedRecord {
    RecordHeader header;
    uint64_t payload_off;
  };
  std::vector<ParsedRecord> records;
  std::unordered_set<uint64_t> begun;
  std::unordered_set<uint64_t> committed;
  uint64_t cursor = kLogStart;
  while (cursor + sizeof(RecordHeader) <= header.tail) {
    ParsedRecord parsed;
    std::memcpy(&parsed.header, log_device_->Live(cursor),
                sizeof(RecordHeader));
    parsed.payload_off = cursor + sizeof(RecordHeader);
    const uint64_t need = AlignUp8(sizeof(RecordHeader) +
                                   static_cast<uint64_t>(
                                       parsed.header.payload_size));
    if (cursor + need > header.tail) {
      break;  // torn tail record: the tail bump never committed it
    }
    records.push_back(parsed);
    if (parsed.header.kind == kBegin) {
      begun.insert(parsed.header.section_id);
    } else if (parsed.header.kind == kCommit) {
      committed.insert(parsed.header.section_id);
    }
    cursor += need;
  }

  std::unordered_set<uint64_t> incomplete;
  for (uint64_t id : begun) {
    if (committed.count(id) == 0) {
      incomplete.insert(id);
    }
  }

  // Roll incomplete sections back newest-first so overlapping undo ranges
  // within a section unwind to the pre-section durable state.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->header.kind != kUndo ||
        incomplete.count(it->header.section_id) == 0) {
      continue;
    }
    RestoreAroundMetadata(it->header.target_off,
                          log_device_->Live(it->payload_off),
                          it->header.payload_size);
  }
  // `id` only feeds the flight record, which an obs-disabled build drops.
  for ([[maybe_unused]] uint64_t id : incomplete) {
    sections_rolled_back_.fetch_add(1, std::memory_order_relaxed);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kSectionAbort, device_->device_id(),
                         /*addr=*/0, /*size=*/0, /*arg=*/id,
                         obs::FrReason::kOpenAtCrash);
  }

  open_sections_.clear();
  aborted_sections_.clear();
  ResetLogLocked();
  return OkStatus();
}

SubstrateStats FaseSubstrate::Stats() const {
  SubstrateStats stats;
  stats.sections_begun = sections_begun_.load(std::memory_order_relaxed);
  stats.sections_committed =
      sections_committed_.load(std::memory_order_relaxed);
  stats.sections_aborted = sections_aborted_.load(std::memory_order_relaxed);
  stats.sections_rolled_back =
      sections_rolled_back_.load(std::memory_order_relaxed);
  stats.undo_records = undo_records_.load(std::memory_order_relaxed);
  stats.undo_bytes = undo_bytes_.load(std::memory_order_relaxed);
  stats.log_resets = log_resets_.load(std::memory_order_relaxed);
  stats.log_overflows = log_overflows_.load(std::memory_order_relaxed);
  return stats;
}

size_t FaseSubstrate::open_section_count() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return open_sections_.size();
}

size_t FaseSubstrate::log_tail() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  if (log_device_ == nullptr) {
    return 0;
  }
  LogHeader header;
  std::memcpy(&header, log_device_->Live(0), sizeof(header));
  return header.tail;
}

}  // namespace arthas
