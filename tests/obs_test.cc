// Tests for the observability subsystem (src/obs): metric semantics,
// histogram percentile accuracy, the phase trace export, the JSON round
// trip of the artifacts, and the end-to-end acceptance path — one
// experiment cell run through the artifact writer must yield the paper's
// headline metrics.

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "harness/artifacts.h"
#include "harness/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace arthas {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::JsonValue;
using obs::MetricsRegistry;

TEST(CounterTest, Semantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, Semantics) {
  Gauge g;
  g.Set(100);
  EXPECT_EQ(g.value(), 100);
  g.Add(-150);
  EXPECT_EQ(g.value(), -50);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 16; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.sum(), 120u);
}

TEST(HistogramTest, PercentilesOnKnownDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v);
  }
  // 16 linear sub-buckets per octave bound relative error by 1/16.
  EXPECT_NEAR(h.Percentile(0.5), 500.0, 500.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.9), 900.0, 900.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.99), 990.0, 990.0 * 0.0625);
  // p100 clamps to the exact recorded max.
  EXPECT_EQ(h.Percentile(1.0), 1000.0);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_NEAR(snap.mean, 500.5, 0.01);
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a;
  Histogram b;
  for (uint64_t v = 1; v <= 500; v++) {
    a.Record(v);
  }
  for (uint64_t v = 501; v <= 1000; v++) {
    b.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 1000u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_NEAR(a.Percentile(0.5), 500.0, 500.0 * 0.125);
}

TEST(HistogramTest, EmptyAndEdgeQuantiles) {
  Histogram h;
  // Empty histogram: every quantile (including the edges) answers 0
  // explicitly — no assert, no division by the zero count.
  EXPECT_EQ(h.Percentile(0.0), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.Percentile(1.0), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Snapshot().count, 0u);

  // Empty snapshot: the tail quantiles are present and zero too.
  EXPECT_EQ(h.Snapshot().p99, 0.0);
  EXPECT_EQ(h.Snapshot().p999, 0.0);

  // Single sample: every quantile is exactly that sample (the in-bucket
  // interpolation clamps to the recorded max).
  h.Record(77);
  EXPECT_EQ(h.Percentile(0.0), 77.0);
  EXPECT_EQ(h.Percentile(0.5), 77.0);
  EXPECT_EQ(h.Percentile(1.0), 77.0);
  // With one sample the whole snapshot tail collapses onto it, and the
  // quantiles stay ordered: p50 <= p95 <= p99 <= p999 <= max.
  const obs::HistogramSnapshot one = h.Snapshot();
  EXPECT_EQ(one.p99, 77.0);
  EXPECT_EQ(one.p999, 77.0);
  EXPECT_LE(one.p50, one.p95);
  EXPECT_LE(one.p95, one.p99);
  EXPECT_LE(one.p99, one.p999);
  EXPECT_LE(one.p999, static_cast<double>(one.max));

  // Out-of-range q clamps to the edges instead of misbehaving.
  EXPECT_EQ(h.Percentile(-1.0), h.Percentile(0.0));
  EXPECT_EQ(h.Percentile(2.0), h.Percentile(1.0));
}

TEST(HistogramTest, TailQuantilesSeparateOnSkewedDistribution) {
  // 1000 fast samples and 5 slow outliers: p99 must sit in the fast mass's
  // neighbourhood while p999 climbs into the outlier band — the distinction
  // the open-loop latency curves report per sweep point.
  Histogram h;
  for (int i = 0; i < 1000; i++) {
    h.Record(100);
  }
  for (int i = 0; i < 5; i++) {
    h.Record(100000);
  }
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.p50, 100.0, 100.0 * 0.125);
  EXPECT_NEAR(snap.p99, 100.0, 100.0 * 0.125);
  EXPECT_GT(snap.p999, 10000.0);
  EXPECT_LE(snap.p999, static_cast<double>(snap.max));
  EXPECT_EQ(snap.max, 100000u);
  EXPECT_LE(snap.p50, snap.p95);
  EXPECT_LE(snap.p95, snap.p99);
  EXPECT_LE(snap.p99, snap.p999);
}

TEST(HistogramTest, P999ResolutionWithinSubBucketBound) {
  // The regression this pins: with whole-octave buckets p999 on a uniform
  // 1..100000 distribution was off by up to 12.5%; 16 sub-buckets per
  // octave bound every quantile's relative error by 1/16 = 6.25%.
  Histogram h;
  for (uint64_t v = 1; v <= 100000; v++) {
    h.Record(v);
  }
  EXPECT_NEAR(h.Percentile(0.999), 99900.0, 99900.0 * 0.0625);
  EXPECT_NEAR(h.Percentile(0.9999), 99990.0, 99990.0 * 0.0625);
  // The top quantile clamps to the exact recorded max even when the
  // containing bucket spans past it.
  EXPECT_EQ(h.Percentile(1.0), 100000.0);
  const obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_NEAR(snap.p999, 99900.0, 99900.0 * 0.0625);
  EXPECT_LE(snap.p999, static_cast<double>(snap.max));
}

TEST(HistogramTest, TailExemplarsRetainLastWriter) {
  Histogram h;
  // Bulk mass without ids: no exemplar array is ever allocated for them.
  for (int i = 0; i < 1000; i++) {
    h.Record(100);
  }
  EXPECT_TRUE(h.TailExemplars(0.99).empty());

  // Two identified outliers land in the same bucket: last writer wins.
  h.RecordWithExemplar(100000, 41);
  h.RecordWithExemplar(100001, 42);
  h.RecordWithExemplar(900000, 77);
  const std::vector<obs::TailExemplar> tail = h.TailExemplars(0.99);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].exemplar, 42u);
  EXPECT_EQ(tail[0].count, 2u);
  EXPECT_LE(tail[0].bucket_lo, 100000u);
  EXPECT_GE(tail[0].bucket_hi, 100001u);
  EXPECT_EQ(tail[1].exemplar, 77u);

  // Exemplars survive Reset only as far as the data does: a reset
  // histogram reports no tail.
  h.Reset();
  EXPECT_TRUE(h.TailExemplars(0.99).empty());
}

TEST(HistogramTest, BucketIndexMonotonic) {
  size_t prev = 0;
  for (uint64_t v = 0; v < 100000; v += 7) {
    const size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    const auto [lo, hi] = Histogram::BucketBounds(idx);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    prev = idx;
  }
}

TEST(RegistryTest, FindOrCreateReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& c1 = registry.GetCounter("x.count");
  Counter& c2 = registry.GetCounter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.Add(3);
  EXPECT_TRUE(registry.Has("x.count"));
  EXPECT_FALSE(registry.Has("y.count"));
  EXPECT_EQ(registry.Snapshot().counters.at("x.count"), 3u);
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(7);
  registry.GetGauge("b.bytes").Set(-12);
  for (uint64_t v = 1; v <= 100; v++) {
    registry.GetHistogram("c.ns").Record(v * 10);
  }
  auto parsed = JsonValue::Parse(registry.SnapshotJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = *parsed;
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Get("counters")->Get("a.count")->AsInt(), 7);
  EXPECT_EQ(root.Get("gauges")->Get("b.bytes")->AsInt(), -12);
  const JsonValue* hist = root.Get("histograms")->Get("c.ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Get("count")->AsInt(), 100);
  EXPECT_GT(hist->Get("p50")->AsDouble(), 0.0);
  EXPECT_GE(hist->Get("p99")->AsDouble(), hist->Get("p50")->AsDouble());
}

TEST(RegistryTest, CounterDeltas) {
  MetricsRegistry registry;
  registry.GetCounter("d.count").Add(5);
  const obs::RegistrySnapshot before = registry.Snapshot();
  registry.GetCounter("d.count").Add(10);
  registry.GetCounter("e.count").Add(2);
  const auto deltas = obs::CounterDeltas(before, registry.Snapshot());
  EXPECT_EQ(deltas.at("d.count"), 10u);
  EXPECT_EQ(deltas.at("e.count"), 2u);
}

// The X events of the --trace-json artifact, in export order.
std::vector<JsonValue> PhaseEvents(const JsonValue& trace) {
  std::vector<JsonValue> out;
  for (const JsonValue& ev : trace.Get("traceEvents")->items()) {
    if (ev.Get("ph")->AsString() == "X") {
      out.push_back(ev);
    }
  }
  return out;
}

TEST(PhaseTraceTest, ExportsPhasesInCompletionOrder) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  obs::FlightRecorder::Phases().Clear();
  {
    ARTHAS_SCOPED_PHASE("obs_test.outer.ns", kReactorMitigate);
    ARTHAS_PHASE_RECORD("obs_test.slice.ns", kReactorSlice, 1500, 7);
    ARTHAS_PHASE_RECORD("obs_test.revert.ns", kReactorRevert, 0, 0);
  }
  auto parsed = JsonValue::Parse(TraceArtifactJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  // One process_name row, one thread_name row for the recording thread,
  // then the phases.
  ASSERT_EQ(events->size(), 5u);
  const JsonValue& process_meta = events->items()[0];
  EXPECT_EQ(process_meta.Get("name")->AsString(), "process_name");
  EXPECT_EQ(process_meta.Get("ph")->AsString(), "M");
  const JsonValue& meta = events->items()[1];
  EXPECT_EQ(meta.Get("name")->AsString(), "thread_name");
  EXPECT_EQ(meta.Get("ph")->AsString(), "M");
  EXPECT_FALSE(meta.Get("args")->Get("name")->AsString().empty());

  // A phase lands when it closes: the nested ones precede the outer one.
  const std::vector<JsonValue> phases = PhaseEvents(*parsed);
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].Get("name")->AsString(), "reactor.slice");
  EXPECT_EQ(phases[1].Get("name")->AsString(), "reactor.revert");
  EXPECT_EQ(phases[2].Get("name")->AsString(), "reactor.mitigate");
  EXPECT_DOUBLE_EQ(phases[0].Get("dur")->AsDouble(), 1.5);
  EXPECT_EQ(phases[0].Get("args")->Get("instructions")->AsInt(), 7);
  // Zero-length phases are floored at 1 ns so viewers keep them.
  EXPECT_DOUBLE_EQ(phases[1].Get("dur")->AsDouble(), 0.001);
  EXPECT_FALSE(phases[1].Has("args"));
  EXPECT_GT(phases[2].Get("dur")->AsDouble(), 0.0);
  for (const JsonValue& ev : phases) {
    EXPECT_EQ(ev.Get("tid")->AsDouble(), meta.Get("tid")->AsDouble());
    EXPECT_GE(ev.Get("ts")->AsDouble(), 0.0);
  }
  // Each phase site also feeds its histogram.
  const obs::RegistrySnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.histograms.at("obs_test.outer.ns").count, 1u);
  EXPECT_GE(snap.histograms.at("obs_test.slice.ns").count, 1u);
}

TEST(PhaseTraceTest, ChromeMetadataRowsAreUnique) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  obs::FlightRecorder::Phases().Clear();
  std::thread t1([] { ARTHAS_SCOPED_PHASE("obs_test.t1.ns", kHarnessCell); });
  std::thread t2([] { ARTHAS_SCOPED_PHASE("obs_test.t2.ns", kHarnessCell); });
  t1.join();
  t2.join();
  { ARTHAS_SCOPED_PHASE("obs_test.main.ns", kHarnessCell); }
  // A thread that records only durability events gets no track.
  std::thread([] {
    obs::FlightRecorder::Global().Record(obs::FrType::kFlush, 0, 0, 64, 0);
  }).join();

  auto parsed = JsonValue::Parse(TraceArtifactJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  int process_rows = 0;
  std::set<double> thread_meta_tids;
  std::set<double> event_tids;
  for (const JsonValue& ev : parsed->Get("traceEvents")->items()) {
    const std::string& name = ev.Get("name")->AsString();
    if (ev.Get("ph")->AsString() == "M") {
      if (name == "process_name") {
        process_rows++;
      } else if (name == "thread_name") {
        const double tid = ev.Get("tid")->AsDouble();
        // No duplicate thread_name rows for the same tid.
        EXPECT_TRUE(thread_meta_tids.insert(tid).second)
            << "duplicate thread_name row for tid " << tid;
      }
    } else {
      event_tids.insert(ev.Get("tid")->AsDouble());
    }
  }
  // process_name appears exactly once regardless of thread count.
  EXPECT_EQ(process_rows, 1);
  // Every labeled thread has phases, and every phase's thread is labeled.
  EXPECT_EQ(thread_meta_tids, event_tids);
  EXPECT_EQ(event_tids.size(), 3u);
  EXPECT_FALSE(parsed->Has("otherData"));
}

TEST(PhaseTraceTest, ReportsPhasesLostToWraparound) {
  obs::FlightRecorder& phases = obs::FlightRecorder::Phases();
  phases.Clear();
  const size_t capacity = phases.ring_capacity();
  std::thread([capacity] {
    for (size_t i = 0; i < capacity + 3; i++) {
      obs::RecordPhase(obs::FrPhase::kReactorSearch, 10, i);
    }
  }).join();

  auto parsed = JsonValue::Parse(TraceArtifactJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<JsonValue> events = PhaseEvents(*parsed);
  ASSERT_EQ(events.size(), capacity);
  // The ring kept the newest phases; the three oldest are counted as lost.
  EXPECT_EQ(events.front().Get("args")->Get("candidates")->AsInt(), 3);
  ASSERT_TRUE(parsed->Has("otherData"));
  EXPECT_EQ(parsed->Get("otherData")->Get("dropped_phases")->AsInt(), 3);
  phases.Clear();
}

TEST(ObsMacrosTest, RecordIntoGlobalRegistry) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  MetricsRegistry& global = MetricsRegistry::Global();
  const uint64_t before =
      global.Has("obs_test.macro.count")
          ? global.Snapshot().counters.at("obs_test.macro.count")
          : 0;
  ARTHAS_COUNTER_ADD("obs_test.macro.count", 2);
  ARTHAS_GAUGE_SET("obs_test.macro.gauge", 9);
  ARTHAS_HISTOGRAM_RECORD("obs_test.macro.ns", 1234);
  { ARTHAS_SCOPED_LATENCY("obs_test.scoped.ns"); }
  const obs::RegistrySnapshot snap = global.Snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.macro.count"), before + 2);
  EXPECT_EQ(snap.gauges.at("obs_test.macro.gauge"), 9);
  EXPECT_GE(snap.histograms.at("obs_test.macro.ns").count, 1u);
  EXPECT_GE(snap.histograms.at("obs_test.scoped.ns").count, 1u);
}

// End-to-end acceptance: run one experiment cell, write both artifacts
// through the writer the bench binaries use, and parse them back.
TEST(ArtifactsTest, ExperimentCellProducesAcceptanceMetrics) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  ClearCellRecords();
  obs::FlightRecorder::Phases().Clear();

  const ExperimentResult result =
      RunCell(FaultId::kF1RefcountOverflow, Solution::kArthas);
  EXPECT_TRUE(result.triggered);

  const std::string metrics_path = ::testing::TempDir() + "obs_metrics.json";
  const std::string trace_path = ::testing::TempDir() + "obs_trace.json";
  const std::string summary_path = ::testing::TempDir() + "obs_summary.txt";
  const char* argv[] = {"obs_test",           "--metrics-json",
                        metrics_path.c_str(), "--trace-json",
                        trace_path.c_str(),   "--metrics-summary",
                        summary_path.c_str()};
  ObsArtifactWriter writer(7, const_cast<char**>(argv));
  ASSERT_TRUE(writer.WriteNow().ok());

  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
    return out;
  };

  // --- Metrics artifact -----------------------------------------------------
  auto metrics = JsonValue::Parse(slurp(metrics_path));
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const JsonValue* counters = metrics->Get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Get("pmem.flush.count"), nullptr);
  EXPECT_GT(counters->Get("pmem.flush.count")->AsInt(), 0);
  ASSERT_NE(counters->Get("pmem.media.bytes"), nullptr);
  EXPECT_GT(counters->Get("pmem.media.bytes")->AsInt(), 0);

  const JsonValue* histograms = metrics->Get("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* serialize = histograms->Get("checkpoint.serialize.ns");
  ASSERT_NE(serialize, nullptr);
  EXPECT_GT(serialize->Get("count")->AsInt(), 0);
  EXPECT_GT(serialize->Get("p50")->AsDouble(), 0.0);
  EXPECT_GE(serialize->Get("p99")->AsDouble(),
            serialize->Get("p50")->AsDouble());
  const JsonValue* revert = histograms->Get("reactor.revert.ns");
  ASSERT_NE(revert, nullptr);
  EXPECT_GT(revert->Get("count")->AsInt(), 0);

  // Per-cell records ride along in the metrics artifact.
  const JsonValue* cells = metrics->Get("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_GE(cells->size(), 1u);
  const JsonValue& cell = cells->items()[cells->size() - 1];
  EXPECT_EQ(cell.Get("fault")->AsString(), "f1");
  EXPECT_EQ(cell.Get("solution")->AsString(), "Arthas");
  EXPECT_TRUE(cell.Get("counter_deltas")->Has("pmem.persist.count"));

  // --- Chrome trace artifact ------------------------------------------------
  auto trace = JsonValue::Parse(slurp(trace_path));
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  const JsonValue* events = trace->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_cell = false;
  bool saw_revert = false;
  bool saw_slice = false;
  bool saw_thread_meta = false;
  for (const JsonValue& ev : events->items()) {
    const std::string& name = ev.Get("name")->AsString();
    const std::string& ph = ev.Get("ph")->AsString();
    if (ph == "M") {
      saw_thread_meta |= name == "thread_name";
      continue;
    }
    saw_cell |= name == "harness.cell";
    saw_revert |= name == "reactor.revert";
    saw_slice |= name == "reactor.slice";
    EXPECT_EQ(ph, "X");
  }
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_revert);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_thread_meta);

  // --- Text summary ---------------------------------------------------------
  // Its latency table has a row per phase histogram, the cell's included.
  const std::string summary = slurp(summary_path);
  EXPECT_NE(summary.find("checkpoint.serialize.ns"), std::string::npos);
  EXPECT_NE(summary.find("reactor.revert.ns"), std::string::npos);
  EXPECT_NE(summary.find("harness.cell.ns"), std::string::npos);
}

}  // namespace
}  // namespace arthas
