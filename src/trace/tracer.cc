#include "trace/tracer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <limits>
#include <unordered_map>

#include "common/radix_sort.h"
#include "obs/obs.h"

namespace arthas {

namespace {
std::atomic<uint64_t> g_next_tracer_id{1};

// Digits of the longest uint64_t in decimal.
constexpr size_t kMaxDecimalDigits =
    std::numeric_limits<uint64_t>::digits10 + 1;

// Mixes a (guid, address) pair and folds the high bits down: the filter
// and the archive buckets keep only low bits, and addresses are aligned.
constexpr uint64_t PairHash(Guid guid, PmOffset address) {
  const uint64_t h =
      (address ^ guid * 0x9E3779B97F4A7C15ULL) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 31);
}

constexpr size_t FilterSlot(Guid guid, PmOffset address, size_t slots) {
  return PairHash(guid, address) & (slots - 1);
}

// Parses [first, last) as one whole unsigned decimal number, rejecting an
// empty field, any other character, and values that overflow.
bool ParseDecimal(const char* first, const char* last, uint64_t* value) {
  const auto [ptr, ec] = std::from_chars(first, last, *value);
  return ec == std::errc() && ptr == last;
}

// Per-thread map: tracer id -> that tracer's buffer for this thread. Ids
// are never reused, so an entry left behind by a destroyed tracer can never
// be returned for a new one (its value is only dangling storage that is
// never dereferenced again).
thread_local std::unordered_map<uint64_t, void*> tls_buffers;
}  // namespace

Tracer::Tracer(size_t buffer_capacity)
    : buffer_capacity_(buffer_capacity), id_(g_next_tracer_id.fetch_add(1)) {}

Tracer::~Tracer() = default;

// An empty filter slot holds a pair that hashes to another slot, so no
// lookup can match it: (0, 0) hashes to slot 0, and (0, 1) does not.
void Tracer::ResetFilter(ThreadBuffer& buf) {
  static_assert(FilterSlot(kNoGuid, 0, kFilterSlots) == 0 &&
                FilterSlot(kNoGuid, 1, kFilterSlots) != 0);
  buf.recent.fill({kNoGuid, 0});
  buf.recent[0] = {kNoGuid, 1};
}

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  auto it = tls_buffers.find(id_);
  if (it == tls_buffers.end()) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->events.reserve(buffer_capacity_);
    ResetFilter(*owned);
    ThreadBuffer* raw = owned.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::move(owned));
    }
    it = tls_buffers.emplace(id_, raw).first;
  }
  return *static_cast<ThreadBuffer*>(it->second);
}

void Tracer::Record(Guid guid, PmOffset address) {
  if (!enabled_) {
    return;
  }
  const uint64_t index = stats_.records.fetch_add(1);
  ThreadBuffer& buf = LocalBuffer();
  buf.records++;
  std::pair<Guid, PmOffset>& recent =
      buf.recent[FilterSlot(guid, address, kFilterSlots)];
  if (recent.first == guid && recent.second == address) {
    return;
  }
  recent = {guid, address};
  buf.events.push_back({guid, address, index});
  if (buf.events.size() >= buffer_capacity_) {
    std::lock_guard<std::mutex> lock(mutex_);
    FlushBufferLocked(buf);
  }
}

uint32_t& Tracer::BucketFor(Guid guid, PmOffset address) {
  const size_t mask = buckets_.size() - 1;
  for (size_t i = PairHash(guid, address) & mask;; i = (i + 1) & mask) {
    uint32_t& bucket = buckets_[i];
    if (bucket == 0 || (archive_[bucket - 1].guid == guid &&
                        archive_[bucket - 1].address == address)) {
      return bucket;
    }
  }
}

void Tracer::RehashLocked() {
  size_t cap = 64;
  while (cap < 2 * (archive_.size() + 1)) {
    cap <<= 1;
  }
  buckets_.assign(cap, 0);
  for (size_t i = 0; i < archive_.size(); i++) {
    BucketFor(archive_[i].guid, archive_[i].address) =
        static_cast<uint32_t>(i + 1);
  }
}

void Tracer::FlushBufferLocked(ThreadBuffer& buf) {
  if (buf.records == 0) {
    return;
  }
  // Registry mirror happens at flush granularity so the Record() hot path
  // (Table 8's instrumentation overhead) stays a filter probe and a
  // buffered push_back.
  ARTHAS_COUNTER_ADD("trace.record.count", buf.records);
  ARTHAS_COUNTER_ADD("trace.flush.count", 1);
  buf.records = 0;
  for (const TraceEvent& e : buf.events) {
    if (2 * (archive_.size() + 1) > buckets_.size()) {
      RehashLocked();
    }
    uint32_t& bucket = BucketFor(e.guid, e.address);
    if (bucket == 0) {
      archive_sorted_ = archive_sorted_ &&
                        (archive_.empty() || archive_.back().index < e.index);
      archive_.push_back(e);
      bucket = static_cast<uint32_t>(archive_.size());
      index_dirty_ = true;
    } else if (e.index < archive_[bucket - 1].index) {
      // Another thread's buffer folded this pair first, from a later record.
      archive_[bucket - 1].index = e.index;
      archive_sorted_ = false;
      index_dirty_ = true;
    }
  }
  buf.events.clear();
  stats_.buffer_flushes++;
}

void Tracer::FlushAllLocked() {
  for (const auto& buf : buffers_) {
    FlushBufferLocked(*buf);
  }
  if (!archive_sorted_) {
    std::sort(archive_.begin(), archive_.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.index < b.index;
              });
    RehashLocked();
    archive_sorted_ = true;
  }
}

void Tracer::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
}

void Tracer::RebuildIndexLocked() {
  FlushAllLocked();
  if (!index_dirty_) {
    return;
  }
  by_address_.clear();
  by_address_.reserve(archive_.size());
  for (const TraceEvent& e : archive_) {
    by_address_.push_back({e.address, e.guid});
  }
  // (address, GUID) order: the GUID pass first, then a stable address pass.
  RadixSort(by_address_,
            [](const std::pair<PmOffset, Guid>& p) { return p.second; });
  RadixSort(by_address_,
            [](const std::pair<PmOffset, Guid>& p) { return p.first; });
  index_dirty_ = false;
}

std::vector<TraceEvent> Tracer::Events() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
  return archive_;
}

uint64_t Tracer::EventCount() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
  return archive_.size();
}

void Tracer::ForEachEvent(const std::function<void(const TraceEvent&)>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
  for (const TraceEvent& e : archive_) {
    fn(e);
  }
}

std::vector<PmOffset> Tracer::AddressesForGuid(Guid guid) {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
  std::vector<PmOffset> out;
  for (const TraceEvent& e : archive_) {
    if (e.guid == guid) {
      out.push_back(e.address);
    }
  }
  return out;
}

std::vector<PmOffset> Tracer::AddressesForGuids(std::span<const Guid> guids) {
  assert(std::is_sorted(guids.begin(), guids.end()));
  std::lock_guard<std::mutex> lock(mutex_);
  RebuildIndexLocked();
  std::vector<PmOffset> out;
  for (const auto& [address, guid] : by_address_) {
    if ((out.empty() || out.back() != address) &&
        std::binary_search(guids.begin(), guids.end(), guid)) {
      out.push_back(address);
    }
  }
  return out;
}

std::vector<Guid> Tracer::GuidsForRange(PmOffset offset, size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  RebuildIndexLocked();
  std::vector<Guid> out;
  auto it = std::lower_bound(by_address_.begin(), by_address_.end(),
                             std::make_pair(offset, Guid{0}));
  for (; it != by_address_.end() && it->first < offset + size; ++it) {
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
  }
  return out;
}

std::string Tracer::Serialize() {
  std::lock_guard<std::mutex> lock(mutex_);
  FlushAllLocked();
  // Room for the longest possible line per pair, cut to what was written.
  constexpr size_t kMaxLine = 2 * kMaxDecimalDigits + 2;
  std::string out(archive_.size() * kMaxLine, '\0');
  char* cursor = out.data();
  char* const end = out.data() + out.size();
  for (const TraceEvent& e : archive_) {
    cursor = std::to_chars(cursor, end, e.guid).ptr;
    *cursor++ = '\t';
    cursor = std::to_chars(cursor, end, e.address).ptr;
    *cursor++ = '\n';
  }
  out.resize(static_cast<size_t>(cursor - out.data()));
  return out;
}

Status Tracer::ParseAppend(const std::string& text) {
  const char* cursor = text.data();
  const char* const end = text.data() + text.size();
  while (cursor != end) {
    const char* eol = std::find(cursor, end, '\n');
    if (eol != cursor) {
      const char* tab = std::find(cursor, eol, '\t');
      Guid guid = kNoGuid;
      PmOffset address = kNullPmOffset;
      if (tab == eol || !ParseDecimal(cursor, tab, &guid) ||
          !ParseDecimal(tab + 1, eol, &address)) {
        return Corruption("malformed trace line: " +
                          std::string(cursor, eol));
      }
      Record(guid, address);
    }
    cursor = eol == end ? end : eol + 1;
  }
  return OkStatus();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    buf->events.clear();
    buf->records = 0;
    ResetFilter(*buf);
  }
  archive_.clear();
  buckets_.clear();
  archive_sorted_ = true;
  // Derived state must reset with the archive: the lazy index would
  // otherwise keep serving pre-Clear results until the next Record, the
  // filters would drop the next record of a pair recorded before Clear,
  // and the stats (which also seed record indexes) would keep counting.
  by_address_.clear();
  index_dirty_ = true;
  stats_.records = 0;
  stats_.buffer_flushes = 0;
}

}  // namespace arthas
