// Tests for the capacity plane (src/obs/resource): byte-exact accounting
// cells, the PayloadArena round-trip guarantee (Store/Release returns the
// cells to their starting values — the property the whole accountant is
// built on), multi-threaded churn (the TSan job runs this binary),
// growth-trend classification, SLO burn-rate tracking with synthetic
// clocks, and the Histogram::CountAbove primitive the SLO math rests on.

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "checkpoint/checkpoint_log.h"
#include "obs/metrics.h"
#include "obs/resource/growth_analyzer.h"
#include "obs/resource/resource_accountant.h"
#include "obs/resource/slo_tracker.h"
#include "obs/timeseries.h"

namespace arthas {
namespace {

using obs::GrowthAnalyzer;
using obs::GrowthClass;
using obs::GrowthConfig;
using obs::GrowthVerdict;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::ProbeKind;
using obs::ResourceAccountant;
using obs::ResourceCell;
using obs::ResourceCellSnapshot;
using obs::SloTarget;
using obs::SloTracker;
using obs::TelemetrySampler;
using obs::TimelinePoint;

int64_t CellValue(const std::string& name) {
  return ResourceAccountant::Global().GetCell(name).value();
}

// Under ARTHAS_OBS_DISABLED the ARTHAS_RESOURCE_ADD call sites compile
// out, so the global cells never move; the arena's own live_bytes() /
// freelist_bytes() counters are plain members and stay exact either way.
// Expected cell deltas therefore collapse to zero in the obs-off build.
#ifdef ARTHAS_OBS_DISABLED
constexpr bool kCellsMirror = false;
#else
constexpr bool kCellsMirror = true;
#endif

int64_t CellDelta(int64_t delta) { return kCellsMirror ? delta : 0; }

TEST(ResourceAccountantTest, CellAddSetBudgetAndSnapshot) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  ResourceCell& cell = accountant.GetCell("test.cell.alpha", "bytes");
  const int64_t start = cell.value();
  cell.Add(128);
  cell.Add(-28);
  EXPECT_EQ(cell.value(), start + 100);
  cell.Set(4096);
  EXPECT_EQ(cell.value(), 4096);
  EXPECT_TRUE(accountant.Has("test.cell.alpha"));
  EXPECT_FALSE(accountant.Has("test.cell.never-created"));

  accountant.SetBudget("test.cell.alpha", 1 << 20);
  bool found = false;
  for (const ResourceCellSnapshot& snap : accountant.Snapshot()) {
    if (snap.name == "test.cell.alpha") {
      found = true;
      EXPECT_EQ(snap.unit, "bytes");
      EXPECT_EQ(snap.value, 4096);
      EXPECT_EQ(snap.budget, 1 << 20);
    }
  }
  EXPECT_TRUE(found);
  cell.Set(0);
}

TEST(ResourceAccountantTest, DisabledCellsIgnoreUpdates) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  ResourceCell& cell = accountant.GetCell("test.cell.toggle", "bytes");
  cell.Set(7);
  accountant.set_enabled(false);
  cell.Add(100);
  cell.Set(9999);
  EXPECT_EQ(cell.value(), 7);  // values persist, updates are ignored
  accountant.set_enabled(true);
  cell.Add(3);
  EXPECT_EQ(cell.value(), 10);
  cell.Set(0);
}

TEST(ResourceAccountantTest, ProcessProbesReadProcSelf) {
  // Any live Linux process has resident memory and at least stdio open.
  EXPECT_GT(ResourceAccountant::ProcessRssBytes(), 0);
  EXPECT_GT(ResourceAccountant::ProcessOpenFds(), 0);

  const auto snapshot = ResourceAccountant::Global().Snapshot();
  ASSERT_GE(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[snapshot.size() - 2].name, "process.rss.bytes");
  EXPECT_EQ(snapshot.back().name, "process.open.fds");
  EXPECT_GT(snapshot.back().value, 0);
}

TEST(ResourceAccountantTest, SamplerProbesPublishResourceSeries) {
  ResourceAccountant& accountant = ResourceAccountant::Global();
  ResourceCell& cell = accountant.GetCell("test.cell.probed", "bytes");
  cell.Set(12345);

  obs::SamplerOptions options;
  options.sample_counters = false;
  options.sample_gauges = false;
  TelemetrySampler sampler(options);  // never started, ticked by hand
  const auto ids = accountant.RegisterSamplerProbes(sampler);
  ASSERT_GE(ids.size(), 3u);  // the cells plus the two process probes
  sampler.SampleNow();

  bool saw_cell = false;
  bool saw_rss = false;
  for (const obs::SeriesSnapshot& series : sampler.SnapshotSeries()) {
    if (series.name == "resource.test.cell.probed") {
      saw_cell = true;
      ASSERT_FALSE(series.points.empty());
      EXPECT_EQ(series.points.back().value, 12345);
    }
    if (series.name == "process.rss.bytes") {
      saw_rss = true;
      ASSERT_FALSE(series.points.empty());
      EXPECT_GT(series.points.back().value, 0);
    }
  }
  EXPECT_TRUE(saw_cell);
  EXPECT_TRUE(saw_rss);
  ResourceAccountant::UnregisterSamplerProbes(sampler, ids);
  cell.Set(0);
}

// --- PayloadArena accounting --------------------------------------------

TEST(PayloadArenaAccountingTest, StoreReleaseRoundTripReturnsCells) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  const int64_t free0 = CellValue("checkpoint.arena.freelist.bytes");

  PayloadArena arena;
  std::vector<uint8_t> payload(100, 0xAB);
  std::vector<PayloadRef> refs;
  size_t footprint = 0;
  for (int i = 0; i < 64; i++) {
    refs.push_back(arena.Store(payload.data(), payload.size()));
    footprint += 128;  // 100 bytes lands in the 128-byte size class
  }
  EXPECT_EQ(arena.live_bytes(), footprint);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"),
            live0 + CellDelta(static_cast<int64_t>(footprint)));
  EXPECT_GE(CellValue("checkpoint.arena.bytes"), chunk0 + CellDelta(64 * 1024));

  for (const PayloadRef& ref : refs) {
    arena.Release(ref);
  }
  // The release moved every span live -> freelist, byte for byte.
  EXPECT_EQ(arena.live_bytes(), 0u);
  EXPECT_EQ(arena.freelist_bytes(), footprint);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"),
            free0 + CellDelta(static_cast<int64_t>(footprint)));

  // Recycling: the next Store reuses a freelist span, no new chunk.
  const int64_t chunks_before = CellValue("checkpoint.arena.bytes");
  PayloadRef again = arena.Store(payload.data(), payload.size());
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunks_before);
  EXPECT_EQ(arena.freelist_bytes(), footprint - 128);
  arena.Release(again);

  arena.Clear();
  // Clear unwinds everything this arena ever accounted.
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"), free0);
}

TEST(PayloadArenaAccountingTest, DestructorUnwindsLikeClear) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  {
    PayloadArena arena;
    std::vector<uint8_t> payload(1000, 0x55);
    (void)arena.Store(payload.data(), payload.size());
    if (kCellsMirror) {
      EXPECT_GT(CellValue("checkpoint.arena.live.bytes"), live0);
    }
  }
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
}

TEST(PayloadArenaAccountingTest, LargeSpansAccountExactBytes) {
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  PayloadArena arena;
  // 100 KB exceeds the largest size class; footprint is the exact size.
  std::vector<uint8_t> big(100 * 1024, 0x77);
  (void)arena.Store(big.data(), big.size());
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"),
            live0 + CellDelta(static_cast<int64_t>(big.size())));
  arena.Clear();
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
}

// The seq index stops growing once rebuilds reuse its storage; the cell
// follows index_bytes() through rebuilds and Restore, and destruction
// returns all of it.
TEST(CheckpointIndexAccountingTest, CellFollowsSeqIndexRebuilds) {
  const int64_t index0 = CellValue("checkpoint.index.bytes");
  {
    auto pool = *PmemPool::Create("index_cell", 256 * 1024);
    CheckpointLog log(*pool);
    std::vector<Oid> oids;
    for (int i = 0; i < 16; i++) {
      oids.push_back(*pool->Zalloc(64));
    }
    for (uint64_t i = 0; i < 20000; i++) {
      *pool->Direct<uint64_t>(oids[i % oids.size()]) = i;
      pool->Persist(oids[i % oids.size()], 0, 8);
    }
    EXPECT_LT(log.index_bytes(), 64u * 1024);  // parent: 320 KB of pairs
    EXPECT_EQ(CellValue("checkpoint.index.bytes"),
              index0 + CellDelta(static_cast<int64_t>(log.index_bytes())));
    // Restore rebuilds the index and accounts it afresh.
    ASSERT_TRUE(log.Restore(log.Serialize()).ok());
    EXPECT_EQ(CellValue("checkpoint.index.bytes"),
              index0 + CellDelta(static_cast<int64_t>(log.index_bytes())));
  }
  EXPECT_EQ(CellValue("checkpoint.index.bytes"), index0);
}

TEST(PayloadArenaAccountingTest, FourThreadChurnBalancesToZero) {
  const int64_t chunk0 = CellValue("checkpoint.arena.bytes");
  const int64_t live0 = CellValue("checkpoint.arena.live.bytes");
  const int64_t free0 = CellValue("checkpoint.arena.freelist.bytes");

  // Private arenas (CheckpointLog shards own theirs the same way), shared
  // global cells: the churn exercises the relaxed-atomic Add discipline.
  auto churn = [] {
    PayloadArena arena;
    std::vector<uint8_t> payload(200, 0x42);
    for (int round = 0; round < 200; round++) {
      std::vector<PayloadRef> refs;
      for (int i = 0; i < 16; i++) {
        refs.push_back(arena.Store(payload.data(), payload.size()));
      }
      for (const PayloadRef& ref : refs) {
        arena.Release(ref);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back(churn);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(CellValue("checkpoint.arena.bytes"), chunk0);
  EXPECT_EQ(CellValue("checkpoint.arena.live.bytes"), live0);
  EXPECT_EQ(CellValue("checkpoint.arena.freelist.bytes"), free0);
}

// --- Histogram::CountAbove ----------------------------------------------

TEST(CountAboveTest, CountsTailAtBucketGranularity) {
  Histogram hist;
  for (int i = 0; i < 1000; i++) {
    hist.Record(100);  // well under any interesting threshold
  }
  for (int i = 0; i < 10; i++) {
    hist.Record(1000000);  // 1 ms outliers
  }
  EXPECT_EQ(hist.CountAbove(0), hist.count());
  EXPECT_EQ(hist.CountAbove(10000), 10u);
  EXPECT_EQ(hist.CountAbove(10000000), 0u);
  // A threshold inside the straddling bucket is apportioned, never more
  // than the bucket holds.
  EXPECT_LE(hist.CountAbove(999999), 10u + 0u);
}

// --- GrowthAnalyzer -----------------------------------------------------

std::vector<TimelinePoint> MakeSeries(const std::vector<double>& values,
                                      int64_t step_ns = 1000000000) {
  std::vector<TimelinePoint> points;
  int64_t t = 1000000000;
  for (const double v : values) {
    TimelinePoint p;
    p.t_ns = t;
    p.value = v;
    points.push_back(p);
    t += step_ns;
  }
  return points;
}

TEST(GrowthAnalyzerTest, ClassifiesFlatSeries) {
  std::vector<double> values(20, 1000000);
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("flat", MakeSeries(values));
  EXPECT_EQ(v.cls, GrowthClass::kFlat);
  EXPECT_EQ(v.time_to_budget_sec, -1);
}

TEST(GrowthAnalyzerTest, ClassifiesLinearGrowthAndForecasts) {
  std::vector<double> values;
  for (int i = 0; i < 20; i++) {
    values.push_back(1000.0 * i);
  }
  const GrowthVerdict v = GrowthAnalyzer().AnalyzeSeries(
      "linear", MakeSeries(values), /*budget=*/100000);
  EXPECT_EQ(v.cls, GrowthClass::kLinearGrowth);
  EXPECT_NEAR(v.slope_per_sec, 1000, 1);
  // (budget - last) / slope = (100000 - 19000) / 1000 = 81 s.
  EXPECT_NEAR(v.time_to_budget_sec, 81, 1);
}

TEST(GrowthAnalyzerTest, StaircaseGrowthReportsPositiveEndpointSlope) {
  // Growth arriving in steps rarer than the half-window pair baseline
  // (whole arena chunks): the median pairwise slope sits on a plateau at
  // exactly 0, but the series plainly climbed and keeps climbing into
  // the tail. The verdict must be linear-growth with the endpoint slope
  // (never a non-positive slope), so the forecast stays finite.
  std::vector<double> values;
  for (int i = 0; i < 40; i++) {
    values.push_back(i < 3 ? 0.0 : (i < 38 ? 2097152.0 : 4194304.0));
  }
  const GrowthVerdict v = GrowthAnalyzer().AnalyzeSeries(
      "staircase", MakeSeries(values), /*budget=*/8388608);
  EXPECT_EQ(v.cls, GrowthClass::kLinearGrowth);
  // Endpoint slope: 4 MB over 39 s.
  EXPECT_NEAR(v.slope_per_sec, 4194304.0 / 39.0, 1);
  EXPECT_GT(v.time_to_budget_sec, 0);
}

TEST(GrowthAnalyzerTest, RampThenPlateauIsBoundedNotFlat) {
  std::vector<double> values;
  for (int i = 0; i < 10; i++) {
    values.push_back(10000.0 * i);
  }
  for (int i = 0; i < 30; i++) {
    values.push_back(90000.0);
  }
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("plateau", MakeSeries(values));
  // It moved 90 KB overall (not flat), but the second half is still —
  // a warm-up allocation, not a leak.
  EXPECT_EQ(v.cls, GrowthClass::kBounded);
}

TEST(GrowthAnalyzerTest, ShrinkingSeriesIsBounded) {
  std::vector<double> values;
  for (int i = 0; i < 20; i++) {
    values.push_back(100000.0 - 5000.0 * i);
  }
  const GrowthVerdict v =
      GrowthAnalyzer().AnalyzeSeries("shrink", MakeSeries(values));
  EXPECT_EQ(v.cls, GrowthClass::kBounded);
}

TEST(GrowthAnalyzerTest, ShortSeriesIsInsufficient) {
  const GrowthVerdict few =
      GrowthAnalyzer().AnalyzeSeries("few", MakeSeries({1, 2, 3, 4}));
  EXPECT_EQ(few.cls, GrowthClass::kInsufficientData);
  // Enough points but a sub-second window.
  std::vector<double> values(20, 5);
  const GrowthVerdict narrow = GrowthAnalyzer().AnalyzeSeries(
      "narrow", MakeSeries(values, /*step_ns=*/1000000));
  EXPECT_EQ(narrow.cls, GrowthClass::kInsufficientData);
}

TEST(GrowthAnalyzerTest, ClassTokensRoundTrip) {
  for (const GrowthClass cls :
       {GrowthClass::kInsufficientData, GrowthClass::kFlat,
        GrowthClass::kBounded, GrowthClass::kLinearGrowth}) {
    GrowthClass parsed;
    ASSERT_TRUE(obs::ParseGrowthClass(obs::GrowthClassName(cls), &parsed));
    EXPECT_EQ(parsed, cls);
  }
  GrowthClass parsed;
  EXPECT_FALSE(obs::ParseGrowthClass("exponential", &parsed));
}

TEST(GrowthAnalyzerTest, AnalyzeSamplerSkipsCountersAndJoinsBudgets) {
  obs::SamplerOptions options;
  options.sample_counters = false;
  options.sample_gauges = false;
  TelemetrySampler sampler(options);
  std::atomic<double> level{0};
  sampler.RegisterProbe("resource.test.analyzed", ProbeKind::kGauge,
                        [&level] { return level.load(); });
  sampler.RegisterProbe("test.analyzed.rate", ProbeKind::kCounter,
                        [&level] { return level.load(); });
  for (int i = 0; i < 10; i++) {
    level.store(1000.0 * i);
    sampler.SampleNow();
  }

  GrowthConfig config;
  config.min_points = 4;
  config.min_window_ns = 0;  // synthetic ticks land microseconds apart
  const auto verdicts = GrowthAnalyzer(config).AnalyzeSampler(
      sampler, "resource.", {{"resource.test.analyzed", 500000.0}});
  ASSERT_EQ(verdicts.size(), 1u);  // the counter and off-prefix series skip
  EXPECT_EQ(verdicts[0].series, "resource.test.analyzed");
  EXPECT_EQ(verdicts[0].budget, 500000.0);
}

// --- SloTracker ---------------------------------------------------------

TEST(SloTrackerTest, BurnRatesBreachAndRecover) {
  const std::string hist_name = "test.slo.lat_ns";
  Histogram& hist = MetricsRegistry::Global().GetHistogram(hist_name);
  hist.Reset();

  SloTarget target;
  target.histogram = hist_name;
  target.label = "p90";
  target.objective = 0.9;  // error budget: 10% may exceed the threshold
  target.threshold_ns = 1000;
  SloTracker tracker;
  // Not Global(): a private tracker keeps this test independent of the
  // health-endpoint tests sharing the process.
  tracker.Configure({target}, {1, 10});
  ASSERT_TRUE(tracker.configured());

  const int64_t sec = 1000000000;
  tracker.Sample(1 * sec);
  for (int i = 0; i < 100; i++) {
    hist.Record(100);  // all good
  }
  tracker.Sample(2 * sec);
  EXPECT_LE(tracker.BurnRate("p90", 10), 0.001);
  EXPECT_FALSE(tracker.AnyBreached());

  for (int i = 0; i < 100; i++) {
    hist.Record(100000);  // all bad
  }
  tracker.Sample(3 * sec);
  // 1 s window: 100 of 100 bad -> fraction 1.0 -> burn 10.
  EXPECT_NEAR(tracker.BurnRate("p90", 1), 10, 0.5);
  // 10 s window (partial): 100 of 200 bad -> fraction 0.5 -> burn 5.
  EXPECT_NEAR(tracker.BurnRate("p90", 10), 5, 0.5);
  EXPECT_TRUE(tracker.AnyBreached());
  EXPECT_NEAR(tracker.WorstBurnRate(), 10, 0.5);

  const auto reports = tracker.Report();
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].windows.size(), 2u);
  EXPECT_TRUE(reports[0].breached);

  // A clean stretch clears the short window first (multi-window shape:
  // the breach alarm needs ALL windows burning). 100 good requests: the
  // 10 s window still holds 100 bad of 300 -> burn 3.3, but the trailing
  // 1 s window is clean.
  for (int i = 0; i < 100; i++) {
    hist.Record(100);
  }
  tracker.Sample(5 * sec);
  EXPECT_LE(tracker.BurnRate("p90", 1), 0.001);
  EXPECT_FALSE(tracker.AnyBreached());
  EXPECT_GT(tracker.BurnRate("p90", 10), 1.0);  // the long window remembers

  tracker.Clear();
  EXPECT_FALSE(tracker.configured());
}

TEST(SloTrackerTest, SampleDedupesCloseRows) {
  const std::string hist_name = "test.slo.dedup_ns";
  Histogram& hist = MetricsRegistry::Global().GetHistogram(hist_name);
  hist.Reset();
  SloTarget target;
  target.histogram = hist_name;
  target.label = "p50";
  target.objective = 0.5;
  target.threshold_ns = 1000;
  SloTracker tracker;
  tracker.Configure({target}, {1});

  const int64_t sec = 1000000000;
  tracker.Sample(1 * sec);
  hist.Record(100000);
  tracker.Sample(1 * sec + 1000000);  // 1 ms later: dropped (gap < 100 ms)
  EXPECT_EQ(tracker.BurnRate("p50", 1), 0);
  tracker.Sample(1 * sec + 200000000);  // 200 ms later: appended
  EXPECT_GT(tracker.BurnRate("p50", 1), 0);
}

TEST(SloTrackerTest, DefaultTargetsCoverTailObjectives) {
  const auto targets = obs::DefaultNetSloTargets();
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0].label, "p99");
  EXPECT_EQ(targets[1].label, "p999");
  EXPECT_LT(targets[0].threshold_ns, targets[1].threshold_ns);
  EXPECT_LT(targets[0].objective, targets[1].objective);
}

}  // namespace
}  // namespace arthas
