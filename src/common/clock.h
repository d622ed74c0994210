// Virtual clock used by the experiment harness.
//
// The paper's experiments run target systems for 5 wall-clock minutes, take
// pmCRIU snapshots once a minute, trigger bugs half-way through the run, and
// charge 3-5 seconds for each re-execution attempt. Only the *ratios* between
// these durations matter to the results, so the harness drives everything off
// a virtual clock that advances when work items complete. This keeps a full
// evaluation run under a second of real time while preserving where bug
// triggers and snapshots land relative to each other.

#ifndef ARTHAS_COMMON_CLOCK_H_
#define ARTHAS_COMMON_CLOCK_H_

#include <cstdint>

namespace arthas {

// Virtual time in microseconds since the clock's epoch.
using VirtualTime = int64_t;

constexpr VirtualTime kMicrosecond = 1;
constexpr VirtualTime kMillisecond = 1000 * kMicrosecond;
constexpr VirtualTime kSecond = 1000 * kMillisecond;
constexpr VirtualTime kMinute = 60 * kSecond;

// A manually advanced clock. Not thread-safe; each experiment owns one.
class VirtualClock {
 public:
  VirtualClock() = default;

  VirtualTime Now() const { return now_; }
  void Advance(VirtualTime delta) { now_ += delta; }
  void Reset() { now_ = 0; }

 private:
  VirtualTime now_ = 0;
};

// Real (wall-clock) time helpers, used by the overhead benchmarks and the
// observability layer. Returns monotonic nanoseconds.
int64_t MonotonicNanos();

// Raw CPU timestamp counter, for the benches' cycles/op reporting. On
// x86-64 this is rdtsc (constant-rate on the paper's testbed class of
// hardware); elsewhere it falls back to the monotonic nanosecond clock, so
// "cycles" degrade to nanoseconds but stay monotonic and cheap.
#if defined(__x86_64__) || defined(_M_X64)
uint64_t CycleCount();
#else
inline uint64_t CycleCount() {
  return static_cast<uint64_t>(MonotonicNanos());
}
#endif

// Alias used by the obs layer; same monotonic clock.
inline int64_t NowNanos() { return MonotonicNanos(); }

// rdtsc↔ns calibration: how many CycleCount() ticks elapse per monotonic
// nanosecond. Measured once (a ~2 ms spin) on first call, then cached; the
// benches and the profiler exporters use it to report both cycles/op and
// ns/op from one TSC measurement. On targets where CycleCount() falls back
// to MonotonicNanos() this is exactly 1.
double CyclesPerNanosecond();

// Measures real elapsed time on the monotonic clock, e.g. each reactor phase
// that ARTHAS_PHASE_RECORD (obs/obs.h) records.
class ScopedTimer {
 public:
  ScopedTimer() : start_ns_(MonotonicNanos()) {}

  int64_t ElapsedNanos() const { return MonotonicNanos() - start_ns_; }
  int64_t start_ns() const { return start_ns_; }
  void Reset() { start_ns_ = MonotonicNanos(); }

 private:
  int64_t start_ns_;
};

}  // namespace arthas

#endif  // ARTHAS_COMMON_CLOCK_H_
