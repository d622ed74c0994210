// Tests for the cycle-level phase profiler (obs/profiler.h) and the
// differential report (obs/profile_diff.h).
//
// The load-bearing properties: nesting yields *exclusive* attribution whose
// per-phase sum equals the outermost inclusive time exactly (same TSC reads
// on both sides of the ledger), recursion never inflates inclusive time,
// enable/disable is idempotent, a multi-threaded merge under concurrent
// snapshots is race-free, and the diff's per-phase deltas plus the
// unattributed remainder reproduce the cycles/op gap by construction.

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/profile_diff.h"
#include "obs/profiler.h"

namespace arthas {
namespace obs {
namespace {

// A private profiler per test keeps the global one (shared with any other
// instrumented code in the test binary) out of the assertions.
void Spin() {
  volatile int sink = 0;
  for (int i = 0; i < 64; i++) {
    sink = sink + i;
  }
}

size_t Idx(ProfPhase phase) { return static_cast<size_t>(phase); }

TEST(ProfilerTest, DisabledScopesRecordNothing) {
  PhaseProfiler profiler;
  ASSERT_FALSE(profiler.enabled());
  {
    ScopedPhase scope(profiler, ProfPhase::kFlush);
    Spin();
  }
  const ProfileSnapshot snapshot = profiler.Snapshot();
  EXPECT_EQ(snapshot.total_calls(), 0u);
  EXPECT_EQ(snapshot.total_exclusive_cycles(), 0u);
}

TEST(ProfilerTest, ExclusiveTimesSumExactlyToInclusive) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedPhase outer(profiler, ProfPhase::kDrain);
    Spin();
    {
      ScopedPhase mid(profiler, ProfPhase::kFlush);
      Spin();
      {
        ScopedPhase inner(profiler, ProfPhase::kArenaCopy);
        Spin();
      }
      Spin();
    }
    Spin();
  }
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  EXPECT_EQ(s.phases[Idx(ProfPhase::kDrain)].calls, 1u);
  EXPECT_EQ(s.phases[Idx(ProfPhase::kFlush)].calls, 1u);
  EXPECT_EQ(s.phases[Idx(ProfPhase::kArenaCopy)].calls, 1u);
  // Parent exclusive = parent inclusive - child inclusive, computed from the
  // same CycleCount() reads — so the decomposition is exact, not approximate.
  EXPECT_EQ(s.total_exclusive_cycles(),
            s.phases[Idx(ProfPhase::kDrain)].inclusive_cycles);
  EXPECT_EQ(s.phases[Idx(ProfPhase::kFlush)].exclusive_cycles +
                s.phases[Idx(ProfPhase::kArenaCopy)].exclusive_cycles,
            s.phases[Idx(ProfPhase::kFlush)].inclusive_cycles);
  for (const PhaseTotals& t : s.phases) {
    EXPECT_LE(t.exclusive_cycles, t.inclusive_cycles);
  }
  // The folded paths carry the same exclusive cycles, keyed by nesting.
  EXPECT_EQ(s.folded.at("drain;flush;arena_copy"),
            s.phases[Idx(ProfPhase::kArenaCopy)].exclusive_cycles);
  EXPECT_EQ(s.folded.at("drain"),
            s.phases[Idx(ProfPhase::kDrain)].exclusive_cycles);
}

TEST(ProfilerTest, RecursionDoesNotInflateInclusive) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedPhase outer(profiler, ProfPhase::kBookkeeping);
    Spin();
    {
      ScopedPhase self_nested(profiler, ProfPhase::kBookkeeping);
      Spin();
    }
    Spin();
  }
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  const PhaseTotals& t = s.phases[Idx(ProfPhase::kBookkeeping)];
  EXPECT_EQ(t.calls, 2u);
  // Only the outermost activation contributes wall-to-wall time, so the
  // self-nested phase keeps exclusive <= inclusive.
  EXPECT_LE(t.exclusive_cycles, t.inclusive_cycles);
  EXPECT_EQ(s.total_exclusive_cycles(), t.inclusive_cycles);
}

TEST(ProfilerTest, DepthOverflowIsCountedAndPaired) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  {
    // kMaxDepth + 2 nested scopes: the two deepest are skipped, counted,
    // and their pops must pair up without corrupting the stack.
    std::vector<std::unique_ptr<ScopedPhase>> scopes;
    for (size_t i = 0; i < PhaseProfiler::kMaxDepth + 2; i++) {
      scopes.push_back(
          std::make_unique<ScopedPhase>(profiler, ProfPhase::kFlush));
    }
    while (!scopes.empty()) {
      scopes.pop_back();
    }
  }
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  EXPECT_EQ(s.phases[Idx(ProfPhase::kFlush)].calls, PhaseProfiler::kMaxDepth);
  EXPECT_EQ(s.skipped_frames, 2u);
}

TEST(ProfilerTest, EnableDisableIdempotent) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  profiler.set_enabled(true);
  { ScopedPhase scope(profiler, ProfPhase::kFlush); }
  profiler.set_enabled(false);
  profiler.set_enabled(false);
  { ScopedPhase scope(profiler, ProfPhase::kFlush); }
  profiler.set_enabled(true);
  { ScopedPhase scope(profiler, ProfPhase::kFlush); }
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  EXPECT_EQ(s.phases[Idx(ProfPhase::kFlush)].calls, 2u);
  // Reset zeroes everything; a second Reset is harmless.
  profiler.Reset();
  profiler.Reset();
  EXPECT_EQ(profiler.Snapshot().total_calls(), 0u);
  EXPECT_TRUE(profiler.Snapshot().folded.empty());
}

TEST(ProfilerTest, FourThreadMergeWithConcurrentSnapshots) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIterations = 5000;
  std::atomic<bool> stop{false};
  // A concurrent reader exercises the relaxed-atomic merge against live
  // writers; under TSan this is the proof the hot path is race-free.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)profiler.Snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIterations; i++) {
        ScopedPhase outer(profiler, ProfPhase::kDrain);
        ScopedPhase inner(profiler, ProfPhase::kFlush);
        Spin();
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  const uint64_t expected = static_cast<uint64_t>(kThreads) * kIterations;
  EXPECT_EQ(s.phases[Idx(ProfPhase::kDrain)].calls, expected);
  EXPECT_EQ(s.phases[Idx(ProfPhase::kFlush)].calls, expected);
  EXPECT_EQ(s.skipped_frames, 0u);
  // Per-thread exactness survives the merge: the summed exclusives equal
  // the summed outermost inclusives.
  EXPECT_EQ(s.total_exclusive_cycles(),
            s.phases[Idx(ProfPhase::kDrain)].inclusive_cycles);
}

TEST(ProfilerTest, SnapshotDeltaIsolatesAWindow) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  { ScopedPhase scope(profiler, ProfPhase::kFlush); }
  const ProfileSnapshot before = profiler.Snapshot();
  { ScopedPhase scope(profiler, ProfPhase::kFlush); }
  { ScopedPhase scope(profiler, ProfPhase::kDrain); }
  profiler.set_enabled(false);
  const ProfileSnapshot delta =
      SnapshotDelta(profiler.Snapshot(), before);
  EXPECT_EQ(delta.phases[Idx(ProfPhase::kFlush)].calls, 1u);
  EXPECT_EQ(delta.phases[Idx(ProfPhase::kDrain)].calls, 1u);
}

TEST(ProfilerTest, VariantJsonCarriesSchemaFields) {
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  {
    ScopedPhase outer(profiler, ProfPhase::kDrain);
    ScopedPhase inner(profiler, ProfPhase::kFlush);
    Spin();
  }
  profiler.set_enabled(false);
  const ProfileSnapshot s = profiler.Snapshot();
  std::vector<JsonValue> variants;
  variants.push_back(ProfileVariantJson("test", s, 100, 500.0));
  const JsonValue doc = ProfileDocumentJson(std::move(variants));
  const std::string dump = doc.Dump();
  EXPECT_NE(dump.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(dump.find("\"cycles_per_ns\""), std::string::npos);
  EXPECT_NE(dump.find("\"exclusive_cycles\""), std::string::npos);
  // Every phase name appears even when unused — the schema checker demands
  // full enum coverage.
  for (size_t i = 0; i < kNumProfPhases; i++) {
    EXPECT_NE(dump.find(ProfPhaseName(static_cast<ProfPhase>(i))),
              std::string::npos)
        << "missing phase in JSON: "
        << ProfPhaseName(static_cast<ProfPhase>(i));
  }
  const std::string folded = FoldedStacks(s, "test");
  EXPECT_NE(folded.find("test;drain;flush "), std::string::npos);
}

// Golden diff scenario: hand-built snapshots whose attribution is known.
TEST(ProfileDiffTest, GoldenScenario) {
  // Base: 100 ops, 400 cycles/op measured; 300 attributed (200 flush +
  // 100 index), 100 unattributed.
  ProfileSnapshot base;
  base.phases[Idx(ProfPhase::kFlush)] = {20000, 20000, 100};
  base.phases[Idx(ProfPhase::kIndexLookup)] = {10000, 10000, 100};
  // Test: 100 ops, 500 cycles/op measured; flush halved, bookkeeping new,
  // 160 unattributed.
  ProfileSnapshot test;
  test.phases[Idx(ProfPhase::kFlush)] = {10000, 10000, 100};
  test.phases[Idx(ProfPhase::kIndexLookup)] = {10000, 10000, 100};
  test.phases[Idx(ProfPhase::kBookkeeping)] = {14000, 14000, 200};

  const ProfileDiff diff =
      DiffProfiles("base", base, 100, 400.0, "test", test, 100, 500.0);
  EXPECT_DOUBLE_EQ(diff.gap_cycles_per_op, 100.0);
  // Rows are ranked by |delta|: bookkeeping (+140) first, flush (-100) next.
  ASSERT_EQ(diff.rows.size(), kNumProfPhases);
  EXPECT_EQ(diff.rows[0].phase, ProfPhase::kBookkeeping);
  EXPECT_DOUBLE_EQ(diff.rows[0].delta_cycles_per_op, 140.0);
  EXPECT_EQ(diff.rows[1].phase, ProfPhase::kFlush);
  EXPECT_DOUBLE_EQ(diff.rows[1].delta_cycles_per_op, -100.0);
  EXPECT_DOUBLE_EQ(diff.base_unattributed_cycles_per_op, 100.0);
  EXPECT_DOUBLE_EQ(diff.test_unattributed_cycles_per_op, 160.0);
  // The ledger closes: per-phase deltas + unattributed delta == gap.
  EXPECT_NEAR(diff.attributed_gap_cycles_per_op(), diff.gap_cycles_per_op,
              1e-9);
  // The rendered report names both variants and the gap.
  const std::string text = diff.ToText();
  EXPECT_NE(text.find("bookkeeping"), std::string::npos);
  EXPECT_NE(text.find("(unattributed)"), std::string::npos);
  EXPECT_NE(text.find("gap +100.0"), std::string::npos);
  const std::string json = diff.ToJson().Dump();
  EXPECT_NE(json.find("\"gap_cycles_per_op\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed_gap_cycles_per_op\""), std::string::npos);
}

TEST(ProfileDiffTest, AttributionClosesOnRealMeasurements) {
  // Same ledger-closure property, but against real profiled runs instead of
  // hand-built numbers — the shape bench_hotpath --diff relies on.
  PhaseProfiler profiler;
  profiler.set_enabled(true);
  const ProfileSnapshot t0 = profiler.Snapshot();
  const uint64_t c0 = CycleCount();
  for (int i = 0; i < 1000; i++) {
    ScopedPhase outer(profiler, ProfPhase::kDrain);
    ScopedPhase inner(profiler, ProfPhase::kArenaCopy);
    Spin();
  }
  const uint64_t c1 = CycleCount();
  const ProfileSnapshot t1 = profiler.Snapshot();
  const ProfileSnapshot base = SnapshotDelta(t1, t0);
  for (int i = 0; i < 1000; i++) {
    ScopedPhase outer(profiler, ProfPhase::kDrain);
    Spin();
    Spin();
  }
  const uint64_t c2 = CycleCount();
  const ProfileSnapshot test = SnapshotDelta(profiler.Snapshot(), t1);
  profiler.set_enabled(false);

  const double base_cpo = static_cast<double>(c1 - c0) / 1000.0;
  const double test_cpo = static_cast<double>(c2 - c1) / 1000.0;
  const ProfileDiff diff = DiffProfiles("base", base, 1000, base_cpo, "test",
                                        test, 1000, test_cpo);
  EXPECT_NEAR(diff.attributed_gap_cycles_per_op(), diff.gap_cycles_per_op,
              std::fabs(diff.gap_cycles_per_op) * 1e-6 + 1e-9);
}

}  // namespace
}  // namespace obs
}  // namespace arthas
