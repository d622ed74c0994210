// Umbrella header for the observability layer: zero-boilerplate
// instrumentation macros over obs/metrics.h, plus the phase macros that
// time a mitigation phase into both its histogram and a kPhase record in
// FlightRecorder::Phases() (the --trace-json source).
//
// Every macro compiles to nothing when ARTHAS_OBS_DISABLED is defined
// (CMake option of the same name), so the Table-8 overhead ablation can
// measure the instrumented hot paths against a build with genuinely no
// bookkeeping. Metric handles are cached in function-local statics: after
// the first call a counter update is one relaxed atomic add.
//
// The macros that declare variables (ARTHAS_SCOPED_LATENCY,
// ARTHAS_SCOPED_PHASE) must be used as statements inside a braced scope.

#ifndef ARTHAS_OBS_OBS_H_
#define ARTHAS_OBS_OBS_H_

#include "common/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace arthas {
namespace obs {

// RAII: records elapsed monotonic nanoseconds into a histogram and, given
// a phase, as that phase's record in FlightRecorder::Phases(). The phase is
// a template argument, not a member, so the plain timers on the persist
// path test no phase at run time.
template <FrPhase... kPhase>
class ScopedLatency {
  static_assert(sizeof...(kPhase) <= 1, "at most one phase");

 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(histogram), start_ns_(NowNanos()) {}
  ~ScopedLatency() {
    const int64_t ns = NowNanos() - start_ns_;
    histogram_.Record(static_cast<uint64_t>(ns));
    if constexpr (sizeof...(kPhase) == 1) {
      RecordPhase(kPhase..., ns, 0);
    }
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram& histogram_;
  int64_t start_ns_;
};

}  // namespace obs
}  // namespace arthas

#define ARTHAS_OBS_CONCAT_INNER(a, b) a##b
#define ARTHAS_OBS_CONCAT(a, b) ARTHAS_OBS_CONCAT_INNER(a, b)

#ifndef ARTHAS_OBS_DISABLED

// Adds `delta` to the named process-wide counter.
#define ARTHAS_COUNTER_ADD(name, delta)                              \
  do {                                                               \
    static ::arthas::obs::Counter& _arthas_obs_c =                   \
        ::arthas::obs::MetricsRegistry::Global().GetCounter(name);   \
    _arthas_obs_c.Add(static_cast<uint64_t>(delta));                 \
  } while (0)

// Sets the named gauge to `value`.
#define ARTHAS_GAUGE_SET(name, value)                                \
  do {                                                               \
    static ::arthas::obs::Gauge& _arthas_obs_g =                     \
        ::arthas::obs::MetricsRegistry::Global().GetGauge(name);     \
    _arthas_obs_g.Set(static_cast<int64_t>(value));                  \
  } while (0)

// Records one sample in the named histogram.
#define ARTHAS_HISTOGRAM_RECORD(name, value)                         \
  do {                                                               \
    static ::arthas::obs::Histogram& _arthas_obs_h =                 \
        ::arthas::obs::MetricsRegistry::Global().GetHistogram(name); \
    _arthas_obs_h.Record(static_cast<uint64_t>(value));              \
  } while (0)

// Times the rest of the enclosing scope into the named histogram.
#define ARTHAS_SCOPED_LATENCY(name) ARTHAS_OBS_SCOPED_TIMER(name, )

// Times the rest of the enclosing scope into the named histogram and as
// one record of `phase` (an obs::FrPhase enumerator, e.g. kHarnessCell).
#define ARTHAS_SCOPED_PHASE(name, phase) \
  ARTHAS_OBS_SCOPED_TIMER(name, ::arthas::obs::FrPhase::phase)

#define ARTHAS_OBS_SCOPED_TIMER(name, phase)                              \
  static ::arthas::obs::Histogram& ARTHAS_OBS_CONCAT(_arthas_obs_hist_,   \
                                                     __LINE__) =          \
      ::arthas::obs::MetricsRegistry::Global().GetHistogram(name);        \
  ::arthas::obs::ScopedLatency<phase> ARTHAS_OBS_CONCAT(_arthas_obs_lat_, \
                                                        __LINE__)(        \
      ARTHAS_OBS_CONCAT(_arthas_obs_hist_, __LINE__))

// Records a phase that took `ns` nanoseconds into the named histogram and
// as one record of `phase` carrying the phase's count `arg`.
#define ARTHAS_PHASE_RECORD(name, phase, ns, arg)                        \
  do {                                                                   \
    const int64_t _arthas_obs_ns = (ns);                                 \
    ARTHAS_HISTOGRAM_RECORD(name, _arthas_obs_ns);                       \
    ::arthas::obs::RecordPhase(::arthas::obs::FrPhase::phase,            \
                               _arthas_obs_ns, (arg));                   \
  } while (0)

#else  // ARTHAS_OBS_DISABLED

#define ARTHAS_COUNTER_ADD(name, delta) \
  do {                                  \
  } while (0)
#define ARTHAS_GAUGE_SET(name, value) \
  do {                                \
  } while (0)
#define ARTHAS_HISTOGRAM_RECORD(name, value) \
  do {                                       \
  } while (0)
#define ARTHAS_SCOPED_LATENCY(name) \
  do {                              \
  } while (0)
#define ARTHAS_SCOPED_PHASE(name, phase) \
  do {                                   \
  } while (0)
#define ARTHAS_PHASE_RECORD(name, phase, ns, arg) \
  do {                                            \
  } while (0)

#endif  // ARTHAS_OBS_DISABLED

#endif  // ARTHAS_OBS_OBS_H_
