// Compiled with ARTHAS_OBS_DISABLED (see tests/CMakeLists.txt): proves the
// instrumentation macros compile out to no-ops in a translation unit that
// links against a library built *with* observability — the compile-out is a
// per-TU decision, not an ABI switch.

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "obs/timeseries.h"

#ifndef ARTHAS_OBS_DISABLED
#error "this test must be compiled with ARTHAS_OBS_DISABLED"
#endif

namespace arthas {
namespace {

TEST(ObsDisabledTest, MacrosAreNoOps) {
  ARTHAS_COUNTER_ADD("disabled.count", 5);
  ARTHAS_GAUGE_SET("disabled.gauge", 5);
  ARTHAS_HISTOGRAM_RECORD("disabled.ns", 5);
  { ARTHAS_SCOPED_LATENCY("disabled.scoped.ns"); }
  // The phase macros compile out too: no histogram and no phase record.
  const uint64_t phases_before =
      obs::FlightRecorder::Phases().total_recorded();
  { ARTHAS_SCOPED_PHASE("disabled.phase.ns", kHarnessCell); }
  ARTHAS_PHASE_RECORD("disabled.record.ns", kReactorSlice, 5, 1);
  EXPECT_EQ(obs::FlightRecorder::Phases().total_recorded(), phases_before);
  // The flight-record macro compiles out too: the marker address below
  // must not appear in the global recorder's timeline.
  constexpr uint64_t kMarkerAddr = 0xD15AB1EDULL;
  ARTHAS_FLIGHT_RECORD(obs::FrType::kPersist, 0, kMarkerAddr, 64, 0);
  for (const obs::FlightRecord& r : obs::FlightRecorder::Global().Snapshot()) {
    EXPECT_NE(r.addr, kMarkerAddr);
  }
  // Nothing reached the global registry.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_FALSE(registry.Has("disabled.count"));
  EXPECT_FALSE(registry.Has("disabled.gauge"));
  EXPECT_FALSE(registry.Has("disabled.ns"));
  EXPECT_FALSE(registry.Has("disabled.scoped.ns"));
  EXPECT_FALSE(registry.Has("disabled.phase.ns"));
  EXPECT_FALSE(registry.Has("disabled.record.ns"));
}

TEST(ObsDisabledTest, ProfileMacroIsNoOp) {
  // ARTHAS_PROFILE expands to nothing in this TU: even with the global
  // profiler runtime-enabled, a "scope" here records no frames.
  obs::PhaseProfiler& profiler = obs::PhaseProfiler::Global();
  profiler.Reset();
  profiler.set_enabled(true);
  const obs::ProfileSnapshot before = profiler.Snapshot();
  {
    ARTHAS_PROFILE(kFlush);
    ARTHAS_PROFILE(kDrain);
  }
  profiler.set_enabled(false);
  const obs::ProfileSnapshot after = profiler.Snapshot();
  EXPECT_EQ(before.total_calls(), after.total_calls());
  EXPECT_EQ(before.total_exclusive_cycles(), after.total_exclusive_cycles());
}

TEST(ObsDisabledTest, TelemetryMacrosAreNoOps) {
  // The probe body must never be evaluated in a disabled TU — the macro
  // discards its arguments, so this lambda is not even compiled into a call.
  const obs::ProbeId id = ARTHAS_TELEMETRY_PROBE(
      "disabled.probe", obs::ProbeKind::kGauge, [] { return 1.0; });
  EXPECT_EQ(id, obs::kNoProbe);
  ARTHAS_TELEMETRY_UNPROBE(id);
  ARTHAS_TIMELINE_MARK("disabled.marker");
  // Nothing reached the global sampler: the marker name is absent whether
  // or not some other test left the sampler holding data.
  for (const obs::TimelineMarker& m :
       obs::TelemetrySampler::Global().Markers()) {
    EXPECT_NE(m.name, "disabled.marker");
  }
  EXPECT_TRUE(
      obs::TelemetrySampler::Global().SeriesPoints("disabled.probe").empty());
}

TEST(ObsDisabledTest, SamplerStaysUsableDirectly) {
  // Like the registry, the sampler class itself still works in a disabled
  // TU; only the ARTHAS_TELEMETRY_* / ARTHAS_TIMELINE_MARK macros vanish.
  obs::TelemetrySampler sampler;
  obs::SamplerOptions options;
  options.sample_counters = false;
  options.sample_gauges = false;
  sampler.Configure(options);
  const obs::ProbeId id = sampler.RegisterProbe(
      "direct.probe", obs::ProbeKind::kGauge, [] { return 42.0; });
  EXPECT_NE(id, obs::kNoProbe);
  sampler.SampleNow();
  ASSERT_EQ(sampler.SeriesPoints("direct.probe").size(), 1u);
  EXPECT_EQ(sampler.SeriesPoints("direct.probe")[0].value, 42.0);
  sampler.UnregisterProbe(id);
}

TEST(ObsDisabledTest, ReqTraceMacrosAreNoOps) {
  // The full request-trace macro lifecycle compiles out: nothing reaches
  // the global plane, and the disabled NOW() is a constant zero.
  const uint64_t before =
      obs::RequestTracePlane::Global().total_traced();
  const int64_t now = ARTHAS_REQTRACE_NOW();
  EXPECT_EQ(now, 0);
  const bool traced = ARTHAS_REQTRACE_BATCH_BEGIN(now);
  EXPECT_FALSE(traced);
  EXPECT_EQ(ARTHAS_REQTRACE_NOW_IF(traced), 0);
  ARTHAS_REQTRACE_COMMAND_BEGIN(1234567, 1, 1, now);
  ARTHAS_REQTRACE_STAGE(obs::ReqStage::kFlush);
  ARTHAS_REQTRACE_SECTION_ENTER();
  ARTHAS_REQTRACE_SECTION_EXIT();
  ARTHAS_REQTRACE_COMMAND_END(now, false);
  ARTHAS_REQTRACE_BATCH_END(0, 0, 0, 0);
  ARTHAS_REQTRACE_REPLY_FLUSHED();
  ARTHAS_REQTRACE_MITIGATION_BEGIN();
  ARTHAS_REQTRACE_MITIGATION_END();
  EXPECT_EQ(obs::RequestTracePlane::Global().total_traced(), before);
  obs::RequestTrace found;
  EXPECT_FALSE(obs::RequestTracePlane::Global().FindTrace(1234567, &found));

  // Direct use of the plane still works in a disabled TU — the library was
  // built with observability; only the macro call sites vanish.
  obs::RequestTracePlane plane(4);
  plane.BeginBatch(100);
  plane.BeginCommand(5, 0, 1, 100);
  plane.EndCommand(110, false);
  plane.EndBatch(100, 100, 110, 110);
  plane.FlushReplies(120);
  EXPECT_EQ(plane.total_traced(), 1u);
}

TEST(ObsDisabledTest, LibraryStaysUsableDirectly) {
  // Direct (non-macro) use of the obs classes still works in a disabled TU:
  // only the instrumentation macros compile out.
  obs::MetricsRegistry registry;
  registry.GetCounter("direct.count").Add(1);
  EXPECT_EQ(registry.Snapshot().counters.at("direct.count"), 1u);
  // Same for the flight recorder: direct Record calls still work in a
  // disabled TU, only the ARTHAS_FLIGHT_RECORD macro is a no-op.
  obs::FlightRecorder recorder(16);
  recorder.Record(obs::FrType::kFlush, 1, 64, 64, 0);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

}  // namespace
}  // namespace arthas
