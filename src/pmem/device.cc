#include "pmem/device.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"

namespace arthas {

PmemDevice::PmemDevice(size_t size) : live_(size, 0), durable_(size, 0) {
  static std::atomic<uint32_t> next_device_id{1};
  device_id_ = next_device_id.fetch_add(1, std::memory_order_relaxed);
  const size_t lines = (size + kCacheLineSize - 1) / kCacheLineSize;
  num_pending_words_ = (lines + 63) / 64;
  // Value-initialization zeroes every word (std::atomic's default
  // constructor does not, pre-C++20).
  pending_words_.reset(new std::atomic<uint64_t>[num_pending_words_]());
}

// Stripe selection: cache-line index modulo kNumStripes. A range of L lines
// therefore touches min(L, kNumStripes) stripes; kNumStripes is 64 so the
// held set fits a uint64_t bitmask.
PmemDevice::StripeGuard::StripeGuard(const PmemDevice& device, PmOffset offset,
                                     size_t size)
    : device_(device) {
  static_assert(PmemDevice::kNumStripes <= 64, "stripe mask is a uint64_t");
  if (size == 0) {
    return;
  }
  ARTHAS_PROFILE(kLockWait);
  const uint64_t first_line = offset / kCacheLineSize;
  const uint64_t last_line = (offset + size - 1) / kCacheLineSize;
  if (last_line - first_line + 1 >= kNumStripes) {
    mask_ = ~0ULL;
  } else {
    for (uint64_t line = first_line; line <= last_line; line++) {
      mask_ |= 1ULL << (line % kNumStripes);
    }
  }
  for (size_t i = 0; i < kNumStripes; i++) {
    if (mask_ & (1ULL << i)) {
      device_.stripes_[i].lock();
    }
  }
}

PmemDevice::StripeGuard::~StripeGuard() {
  for (size_t i = kNumStripes; i-- > 0;) {
    if (mask_ & (1ULL << i)) {
      device_.stripes_[i].unlock();
    }
  }
}

PmOffset PmemDevice::OffsetOf(const void* p) const {
  const auto* byte = static_cast<const uint8_t*>(p);
  if (byte < live_.data() || byte >= live_.data() + live_.size()) {
    return kNullPmOffset;
  }
  return static_cast<PmOffset>(byte - live_.data());
}

void PmemDevice::MakeDurable(PmOffset offset, size_t size) {
  assert(offset + size <= live_.size());
  // Round out to cache-line granularity, as clwb does.
  const PmOffset line_start = offset & ~(kCacheLineSize - 1);
  PmOffset line_end = (offset + size + kCacheLineSize - 1) &
                      ~(static_cast<PmOffset>(kCacheLineSize) - 1);
  line_end = std::min<PmOffset>(line_end, live_.size());
  {
    ARTHAS_PROFILE(kFlush);
    std::memcpy(durable_.data() + line_start, live_.data() + line_start,
                line_end - line_start);
    stats_.flushed_lines += (line_end - line_start) / kCacheLineSize;
    stats_.persisted_bytes += size;
  }
  ARTHAS_PROFILE(kObsHook);
  // `media.bytes` counts whole flushed lines (what actually hits media),
  // while `persist.bytes` counts what the program asked for — the gap is
  // the write amplification of cache-line rounding.
  ARTHAS_COUNTER_ADD("pmem.flush.count", (line_end - line_start) / kCacheLineSize);
  ARTHAS_COUNTER_ADD("pmem.media.bytes", line_end - line_start);
  ARTHAS_COUNTER_ADD("pmem.persist.bytes", size);
}

void PmemDevice::NotifyAndMakeDurable(PmOffset offset, size_t size) {
  // Observers run at the durability point but before the media copy, so a
  // checkpointing observer can still read the previous durable contents
  // (needed to seed the oldest version of a fresh checkpoint entry). The
  // range's stripes are held, keeping that pre-copy view stable.
  for (DurabilityObserver* obs : observers_) {
    obs->OnPersist(offset, size, live_.data() + offset);
  }
  MakeDurable(offset, size);
  stats_.persists++;
}

namespace {
// Innermost BatchScope of the calling thread; scopes chain through their
// parent_ pointer, so one thread can hold scopes on several devices.
thread_local PmemDevice::BatchScope* tls_batch_top = nullptr;
}  // namespace

PmemDevice::BatchScope::BatchScope(PmemDevice& device)
    : device_(device), parent_(tls_batch_top) {
  tls_batch_top = this;
}

PmemDevice::BatchScope::~BatchScope() {
  tls_batch_top = parent_;
  // Drain only when this was the thread's outermost scope for the device:
  // nested scopes collapse into one fence at the true batch boundary.
  if (!device_.InThreadBatch()) {
    device_.Drain();
  }
}

bool PmemDevice::InThreadBatch() const {
  for (const BatchScope* scope = tls_batch_top; scope != nullptr;
       scope = scope->parent_) {
    if (&scope->device_ == this) {
      return true;
    }
  }
  return false;
}

void PmemDevice::Persist(PmOffset offset, size_t size) {
  if (size == 0) {
    return;
  }
  if (InThreadBatch()) {
    // Deferred-drain batch: stage the lines (clwb) and let the enclosing
    // BatchScope issue the one sfence. Flush accounting happens here; the
    // drain accounts the coalesced runs as persists when they actually
    // become durable.
    FlushLines(offset, size);
    return;
  }
  StripeGuard guard(*this, offset, size);
  NotifyAndMakeDurable(offset, size);
  ARTHAS_PROFILE(kObsHook);
  ARTHAS_COUNTER_ADD("pmem.persist.count", 1);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kPersist, device_id_, offset, size, 0);
}

void PmemDevice::PersistQuiet(PmOffset offset, size_t size) {
  if (size == 0) {
    return;
  }
  StripeGuard guard(*this, offset, size);
  MakeDurable(offset, size);
  stats_.persists++;
  ARTHAS_PROFILE(kObsHook);
  ARTHAS_COUNTER_ADD("pmem.persist.count", 1);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kPersistQuiet, device_id_, offset, size,
                       0);
}

void PmemDevice::FlushLines(PmOffset offset, size_t size) {
  if (size == 0) {
    return;
  }
  ARTHAS_PROFILE(kFlush);
  ARTHAS_REQTRACE_STAGE(obs::ReqStage::kFlush);
  const uint64_t first_line = offset / kCacheLineSize;
  const uint64_t last_line = (offset + size - 1) / kCacheLineSize;
  // The release order pairs with Drain's acquire exchange: a drainer that
  // observes a staged bit also observes the live-image stores the flusher
  // made before staging it.
  for (uint64_t line = first_line; line <= last_line;) {
    const uint64_t word = line / 64;
    uint64_t mask = 0;
    const uint64_t word_end = std::min<uint64_t>((word + 1) * 64,
                                                 last_line + 1);
    for (; line < word_end; line++) {
      mask |= 1ULL << (line % 64);
    }
    pending_words_[word].fetch_or(mask, std::memory_order_release);
  }
  // Widen the scan window. Both watermarks only ever move outward between
  // quiesce points, so a concurrent Drain that misses this update by a hair
  // leaves the staged bits for the next drain — the same fate a clwb issued
  // concurrently with another thread's sfence has.
  const uint64_t lo_word = first_line / 64;
  const uint64_t hi_word = last_line / 64;
  uint64_t lo = pending_lo_.load(std::memory_order_relaxed);
  while (lo_word < lo && !pending_lo_.compare_exchange_weak(
                             lo, lo_word, std::memory_order_release)) {
  }
  uint64_t hi = pending_hi_.load(std::memory_order_relaxed);
  while (hi_word > hi && !pending_hi_.compare_exchange_weak(
                             hi, hi_word, std::memory_order_release)) {
  }
  {
    ARTHAS_PROFILE(kObsHook);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kFlush, device_id_, offset, size, 0);
  }
}

void PmemDevice::Drain() {
  ARTHAS_PROFILE(kDrain);
  ARTHAS_REQTRACE_STAGE(obs::ReqStage::kDrain);
  stats_.drains++;
  ARTHAS_COUNTER_ADD("pmem.drain.count", 1);
  // Claim each staged word with an atomic exchange (never holding a lock),
  // then make each contiguous run of claimed lines durable under its
  // stripes. A concurrent FlushLines after the exchange lands in the next
  // drain, exactly as a clwb issued after this thread's sfence would.
  const uint64_t lo = pending_lo_.load(std::memory_order_acquire);
  const uint64_t hi = pending_hi_.load(std::memory_order_acquire);
  if (lo > hi) {
    return;  // nothing staged since the last quiesce
  }
  for (uint64_t w = lo; w <= hi && w < num_pending_words_; w++) {
    if (pending_words_[w].load(std::memory_order_relaxed) == 0) {
      continue;
    }
    uint64_t bits = pending_words_[w].exchange(0, std::memory_order_acquire);
    while (bits != 0) {
      const int first = __builtin_ctzll(bits);
      int last = first;
      while (last + 1 < 64 && (bits & (1ULL << (last + 1)))) {
        last++;
      }
      const uint64_t run_mask =
          (last == 63 ? ~0ULL : ((1ULL << (last + 1)) - 1)) &
          ~((1ULL << first) - 1);
      bits &= ~run_mask;
      const PmOffset run_offset =
          (w * 64 + static_cast<uint64_t>(first)) * kCacheLineSize;
      if (run_offset >= live_.size()) {
        break;
      }
      const size_t run_size =
          std::min<size_t>(static_cast<size_t>(last - first + 1) *
                               kCacheLineSize,
                           live_.size() - run_offset);
      StripeGuard guard(*this, run_offset, run_size);
      NotifyAndMakeDurable(run_offset, run_size);
    }
  }
  {
    ARTHAS_PROFILE(kObsHook);
    ARTHAS_FLIGHT_RECORD(obs::FrType::kDrain, device_id_, 0, 0,
                         hi >= lo ? hi - lo + 1 : 0);
  }
}

void PmemDevice::ClearPending() {
  for (size_t w = 0; w < num_pending_words_; w++) {
    pending_words_[w].store(0, std::memory_order_relaxed);
  }
  pending_lo_.store(~0ULL, std::memory_order_relaxed);
  pending_hi_.store(0, std::memory_order_relaxed);
}

bool PmemDevice::LineStaged(uint64_t line) const {
  return (pending_words_[line / 64].load(std::memory_order_relaxed) &
          (1ULL << (line % 64))) != 0;
}

void PmemDevice::Crash() {
  // Take every stripe so the unflushed-line set is consistent: concurrent
  // persists are either fully durable or fully discarded.
  StripeGuard guard(*this, 0, live_.size());
  // One pass restores exactly the cache lines whose writes never reached
  // the durable image — the data a real power failure would discard. The
  // images are compared a page at a time, and only inside a page that
  // differs is each line compared, counted, recorded and restored, so a
  // restart costs one compare of the two images plus a copy of the lost
  // lines. Each lost line leaves one flight record, in address order, so
  // post-crash forensics can name it; the pending bitmap (cleared only
  // after the pass) distinguishes a line that was staged by a clwb but
  // never fenced (missing drain) from one no flush ever covered.
  static_assert(kCrashCompareBytes % kCacheLineSize == 0,
                "a line never straddles two compare pages");
  uint8_t* const live = live_.data();
  const uint8_t* const durable = durable_.data();
  const size_t size = live_.size();
  [[maybe_unused]] uint64_t discarded_lines = 0;
  for (size_t page = 0; page < size; page += kCrashCompareBytes) {
    const size_t page_end = std::min(page + kCrashCompareBytes, size);
    if (std::memcmp(live + page, durable + page, page_end - page) == 0) {
      continue;
    }
    for (size_t off = page; off < page_end; off += kCacheLineSize) {
      const size_t n = std::min(kCacheLineSize, page_end - off);
      if (std::memcmp(live + off, durable + off, n) == 0) {
        continue;
      }
      std::memcpy(live + off, durable + off, n);
      discarded_lines++;
      ARTHAS_FLIGHT_RECORD(obs::FrType::kLineLost, device_id_, off,
                           kCacheLineSize, 0,
                           LineStaged(off / kCacheLineSize)
                               ? obs::FrReason::kFlushedNotDrained
                               : obs::FrReason::kNeverFlushed);
    }
  }
  ARTHAS_COUNTER_ADD("pmem.crash.count", 1);
  ARTHAS_COUNTER_ADD("pmem.crash_discarded.lines", discarded_lines);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kCrash, device_id_, 0, 0,
                       discarded_lines);
  ClearPending();
  image_generation_.fetch_add(1, std::memory_order_release);
  stats_.crashes++;
}

void PmemDevice::RawRestore(PmOffset offset, const void* data, size_t size) {
  assert(offset + size <= live_.size());
  StripeGuard guard(*this, offset, size);
  std::memcpy(live_.data() + offset, data, size);
  std::memcpy(durable_.data() + offset, data, size);
}

std::vector<uint8_t> PmemDevice::SnapshotDurable() const {
  StripeGuard guard(*this, 0, durable_.size());
  return durable_;
}

Status PmemDevice::RestoreDurable(const std::vector<uint8_t>& image) {
  if (image.size() != durable_.size()) {
    return InvalidArgument("snapshot image size mismatch");
  }
  StripeGuard guard(*this, 0, durable_.size());
  durable_ = image;
  std::memcpy(live_.data(), durable_.data(), live_.size());
  ClearPending();
  image_generation_.fetch_add(1, std::memory_order_release);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kRestore, device_id_, 0, image.size(), 0);
  return OkStatus();
}

Status PmemDevice::SaveToFile(const std::string& path) const {
  StripeGuard guard(*this, 0, durable_.size());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Internal("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(durable_.data(), 1, durable_.size(), f);
  std::fclose(f);
  if (written != durable_.size()) {
    return Internal("short write to " + path);
  }
  return OkStatus();
}

Status PmemDevice::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("cannot open " + path);
  }
  StripeGuard guard(*this, 0, durable_.size());
  const size_t read = std::fread(durable_.data(), 1, durable_.size(), f);
  std::fclose(f);
  if (read != durable_.size()) {
    return Corruption("short read from " + path);
  }
  std::memcpy(live_.data(), durable_.data(), live_.size());
  // Lines staged before the load belong to the replaced image; a later
  // Drain would report them to observers as a persist of loaded bytes the
  // program never wrote.
  ClearPending();
  image_generation_.fetch_add(1, std::memory_order_release);
  ARTHAS_FLIGHT_RECORD(obs::FrType::kRestore, device_id_, 0, durable_.size(),
                       0);
  return OkStatus();
}

void PmemDevice::AddObserver(DurabilityObserver* observer) {
  observers_.push_back(observer);
}

void PmemDevice::RemoveObserver(DurabilityObserver* observer) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), observer),
                   observers_.end());
}

bool PmemDevice::IsDurable(PmOffset offset, size_t size) const {
  assert(offset + size <= live_.size());
  // Lock-free by design (see header): the caller guarantees no concurrent
  // persist/drain of this range, so both images are stable for the compare.
  return std::memcmp(live_.data() + offset, durable_.data() + offset, size) ==
         0;
}

}  // namespace arthas
