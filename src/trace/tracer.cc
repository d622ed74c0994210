#include "trace/tracer.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"

namespace arthas {

namespace {
std::atomic<uint64_t> g_next_tracer_id{1};

// Digits of the longest uint64_t in decimal.
constexpr size_t kMaxDecimalDigits =
    std::numeric_limits<uint64_t>::digits10 + 1;

struct GuidAddressHash {
  size_t operator()(const std::pair<Guid, PmOffset>& p) const {
    return std::hash<uint64_t>()(p.first * 0x9E3779B97F4A7C15ULL ^ p.second);
  }
};

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

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  auto it = tls_buffers.find(id_);
  if (it == tls_buffers.end()) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->events.reserve(buffer_capacity_);
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
  ThreadBuffer& buf = LocalBuffer();
  buf.events.push_back({guid, address, stats_.records.fetch_add(1)});
  if (buf.events.size() >= buffer_capacity_) {
    std::lock_guard<std::mutex> lock(mutex_);
    FlushBufferLocked(buf);
  }
}

void Tracer::FlushBufferLocked(ThreadBuffer& buf) {
  if (buf.events.empty()) {
    return;
  }
  // Registry mirror happens at flush granularity so the Record() hot path
  // (Table 8's instrumentation overhead) stays a buffered push_back.
  ARTHAS_COUNTER_ADD("trace.record.count", buf.events.size());
  ARTHAS_COUNTER_ADD("trace.flush.count", 1);
  // A thread's buffer is index-sorted (the atomic counter is monotonic and
  // the thread appends sequentially); merging keeps the whole archive in
  // total event order. Single-threaded, the merge is a no-op append.
  const auto middle_at = archive_.size();
  archive_.insert(archive_.end(), buf.events.begin(), buf.events.end());
  std::inplace_merge(archive_.begin(),
                     archive_.begin() + static_cast<ptrdiff_t>(middle_at),
                     archive_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.index < b.index;
                     });
  buf.events.clear();
  stats_.buffer_flushes++;
  index_dirty_ = true;
}

void Tracer::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    FlushBufferLocked(*buf);
  }
}

void Tracer::RebuildIndex() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  if (!index_dirty_) {
    return;
  }
  by_guid_.clear();
  by_address_.clear();
  std::unordered_set<std::pair<Guid, PmOffset>, GuidAddressHash> seen;
  seen.reserve(archive_.size());
  by_address_.reserve(archive_.size());
  for (const TraceEvent& e : archive_) {
    if (seen.insert({e.guid, e.address}).second) {
      by_guid_[e.guid].push_back(e.address);
      by_address_.push_back({e.address, e.guid});
    }
  }
  std::sort(by_address_.begin(), by_address_.end());
  index_dirty_ = false;
}

std::vector<TraceEvent> Tracer::Events() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  return archive_;
}

uint64_t Tracer::EventCount() {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  return archive_.size();
}

void Tracer::ForEachEvent(const std::function<void(const TraceEvent&)>& fn) {
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const TraceEvent& e : archive_) {
    fn(e);
  }
}

std::vector<PmOffset> Tracer::AddressesForGuid(Guid guid) {
  RebuildIndex();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_guid_.find(guid);
  return it == by_guid_.end() ? std::vector<PmOffset>{} : it->second;
}

std::vector<Guid> Tracer::GuidsForRange(PmOffset offset, size_t size) {
  RebuildIndex();
  std::lock_guard<std::mutex> lock(mutex_);
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
  Flush();
  std::lock_guard<std::mutex> lock(mutex_);
  // Room for the longest possible line per event, cut to what was written.
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
  }
  archive_.clear();
  // Derived state must reset with the archive: the lazy indexes would
  // otherwise keep serving pre-Clear results until the next Record, and the
  // stats (which also seed event indexes) would keep counting.
  by_guid_.clear();
  by_address_.clear();
  index_dirty_ = true;
  stats_.records = 0;
  stats_.buffer_flushes = 0;
}

}  // namespace arthas
