// Unit tests for the simulated PM device and the pool allocator/transactions.

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pmem/device.h"
#include "pmem/libpmem.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace arthas {
namespace {

TEST(PmemDeviceTest, WritesAreVisibleImmediately) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  EXPECT_EQ(std::memcmp(dev.Live(100), "hello", 5), 0);
}

TEST(PmemDeviceTest, UnpersistedWritesDieAtCrash) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  dev.Crash();
  EXPECT_EQ(dev.Live(100)[0], 0);
}

TEST(PmemDeviceTest, PersistedWritesSurviveCrash) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(100), "hello", 5);
  dev.Persist(100, 5);
  dev.Crash();
  EXPECT_EQ(std::memcmp(dev.Live(100), "hello", 5), 0);
}

TEST(PmemDeviceTest, PersistRoundsToCacheLines) {
  PmemDevice dev(4096);
  // Bytes sharing a cache line with a persisted byte also become durable,
  // exactly as clwb behaves.
  std::memcpy(dev.Live(64), "abcd", 4);
  dev.Persist(66, 1);
  dev.Crash();
  EXPECT_EQ(std::memcmp(dev.Live(64), "abcd", 4), 0);
}

TEST(PmemDeviceTest, FlushWithoutDrainIsNotDurable) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "x", 1);
  dev.FlushLines(0, 1);
  dev.Crash();
  EXPECT_EQ(dev.Live(0)[0], 0);
}

TEST(PmemDeviceTest, FlushThenDrainIsDurable) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "x", 1);
  dev.FlushLines(0, 1);
  dev.Drain();
  dev.Crash();
  EXPECT_EQ(dev.Live(0)[0], 'x');
}

TEST(PmemDeviceTest, LibpmemHelpersTranslatePointers) {
  PmemDevice dev(4096);
  char* p = reinterpret_cast<char*>(dev.Live(128));
  p[0] = 'z';
  PmemPersist(dev, p, 1);
  dev.Crash();
  EXPECT_EQ(dev.Live(128)[0], 'z');

  p[1] = 'y';
  Clwb(dev, p + 1, 1);
  Sfence(dev);
  dev.Crash();
  EXPECT_EQ(dev.Live(129)[0], 'y');
}

class RecordingObserver : public DurabilityObserver {
 public:
  void OnPersist(PmOffset offset, size_t size, const void* data) override {
    events.push_back({offset, size, std::string(static_cast<const char*>(data),
                                                std::min<size_t>(size, 16))});
  }
  struct Event {
    PmOffset offset;
    size_t size;
    std::string head;
  };
  std::vector<Event> events;
};

TEST(PmemDeviceTest, ObserversFireAtDurabilityPoints) {
  PmemDevice dev(4096);
  RecordingObserver obs;
  dev.AddObserver(&obs);
  std::memcpy(dev.Live(200), "data", 4);
  dev.Persist(200, 4);
  ASSERT_EQ(obs.events.size(), 1u);
  EXPECT_EQ(obs.events[0].offset, 200u);
  EXPECT_EQ(obs.events[0].size, 4u);
  EXPECT_EQ(obs.events[0].head, "data");
}

TEST(PmemDeviceTest, QuietPersistDoesNotNotify) {
  PmemDevice dev(4096);
  RecordingObserver obs;
  dev.AddObserver(&obs);
  dev.PersistQuiet(0, 8);
  EXPECT_TRUE(obs.events.empty());
}

TEST(PmemDeviceTest, SnapshotAndRestore) {
  PmemDevice dev(4096);
  std::memcpy(dev.Live(0), "v1", 2);
  dev.Persist(0, 2);
  auto snap = dev.SnapshotDurable();
  std::memcpy(dev.Live(0), "v2", 2);
  dev.Persist(0, 2);
  ASSERT_TRUE(dev.RestoreDurable(snap).ok());
  EXPECT_EQ(std::memcmp(dev.Live(0), "v1", 2), 0);
}

TEST(PmemDeviceTest, LoadFromFileDropsStagedLines) {
  // A line flushed before a wholesale load must not drain afterwards: that
  // would report a persist of loaded bytes the program never wrote (and the
  // checkpoint log would record it as a version). RestoreDurable already
  // behaved this way.
  const std::string path = ::testing::TempDir() + "pmem_test_staged.img";
  PmemDevice dev(4096);
  ASSERT_TRUE(dev.SaveToFile(path).ok());
  RecordingObserver observer;
  dev.AddObserver(&observer);
  std::memcpy(dev.Live(0), "x", 1);
  dev.FlushLines(0, 1);
  ASSERT_TRUE(dev.LoadFromFile(path).ok());
  EXPECT_EQ(dev.PendingLineCount(), 0u);
  dev.Drain();
  EXPECT_TRUE(observer.events.empty());
  EXPECT_EQ(dev.Live(0)[0], 0);
#ifndef ARTHAS_OBS_DISABLED
  bool saw_restore = false;
  for (const obs::FlightRecord& r : obs::FlightRecorder::Global().Snapshot()) {
    saw_restore |= r.device_id == dev.device_id() &&
                   r.type == obs::FrType::kRestore;
  }
  EXPECT_TRUE(saw_restore);
#endif
}

TEST(PmemDeviceTest, WholesaleImageReplacementsBumpTheGeneration) {
  const std::string path = ::testing::TempDir() + "pmem_test_gen.img";
  PmemDevice dev(4096);
  ASSERT_TRUE(dev.SaveToFile(path).ok());
  uint64_t gen = dev.image_generation();
  // Range-level durability and restores leave it alone...
  std::memcpy(dev.Live(0), "ab", 2);
  dev.Persist(0, 2);
  dev.PersistQuiet(0, 2);
  dev.FlushLines(64, 1);
  dev.Drain();
  dev.RawRestore(128, "cd", 2);
  EXPECT_EQ(dev.image_generation(), gen);
  EXPECT_FALSE(dev.LoadFromFile("/nonexistent/x").ok());
  EXPECT_EQ(dev.image_generation(), gen);
  // ...while every wholesale replacement moves it.
  dev.Crash();
  EXPECT_GT(dev.image_generation(), gen);
  gen = dev.image_generation();
  ASSERT_TRUE(dev.RestoreDurable(dev.SnapshotDurable()).ok());
  EXPECT_GT(dev.image_generation(), gen);
  gen = dev.image_generation();
  ASSERT_TRUE(dev.LoadFromFile(path).ok());
  EXPECT_GT(dev.image_generation(), gen);
}

// Crash() against a naive reference: one scan that compares every cache
// line of the two images. The device size is a multiple of neither a
// 4 KB page nor a cache line, so its last line is partial. Writes are
// persisted, staged by FlushLines, drained, or never flushed; some lines
// are written and then put back to their durable bytes, which makes them
// equal again, so they must be neither reported nor counted.
TEST(PmemDeviceTest, CrashMatchesPerLineReferenceScan) {
  constexpr size_t kSize = 5 * 4096 + 7 * kCacheLineSize + 23;
  std::mt19937_64 rng(20210426);
  auto below = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
  for (int trial = 0; trial < 24; trial++) {
    PmemDevice dev(kSize);
    std::set<uint64_t> staged;  // lines flushed since the last drain
    const int ops = trial % 4 == 0 ? 4 : 60;  // a few sparse trials
    for (int op = 0; op < ops; op++) {
      // Mostly short writes, sometimes one spanning several pages, and
      // often one that ends on the device's last byte.
      const size_t len = 1 + (below(8) == 0 ? below(3 * 4096) : below(200));
      const size_t offset =
          below(4) == 0 ? kSize - std::min(len, kSize) : below(kSize);
      const size_t n = std::min(len, kSize - offset);
      const int kind = static_cast<int>(below(6));
      if (kind == 5) {
        // Write, then restore the durable bytes: equal again.
        for (size_t i = 0; i < n; i++) {
          dev.Live(offset)[i] ^= 0x5A;
        }
        std::memcpy(dev.Live(offset), dev.Durable(offset), n);
        continue;
      }
      for (size_t i = 0; i < n; i++) {
        dev.Live(offset)[i] = static_cast<uint8_t>(rng());
      }
      if (kind == 0) {
        dev.Persist(offset, n);
      } else if (kind == 1 || kind == 2) {
        dev.FlushLines(offset, n);
        for (uint64_t line = offset / kCacheLineSize;
             line <= (offset + n - 1) / kCacheLineSize; line++) {
          staged.insert(line);
        }
        if (kind == 2 && below(3) == 0) {
          dev.Drain();
          staged.clear();
        }
      }
      // kind 3 and 4: never flushed.
    }

    // The reference: every line that differs, in address order, with the
    // reason the pending bitmap gives it.
    std::vector<std::pair<PmOffset, obs::FrReason>> expected;
    for (PmOffset off = 0; off < kSize; off += kCacheLineSize) {
      const size_t n = std::min(kCacheLineSize, kSize - off);
      if (std::memcmp(dev.Live(off), dev.Durable(off), n) != 0) {
        expected.push_back({off, staged.count(off / kCacheLineSize) != 0
                                     ? obs::FrReason::kFlushedNotDrained
                                     : obs::FrReason::kNeverFlushed});
      }
    }
    const std::vector<uint8_t> durable = dev.SnapshotDurable();
#ifndef ARTHAS_OBS_DISABLED
    obs::Counter& discarded =
        obs::MetricsRegistry::Global().GetCounter("pmem.crash_discarded.lines");
    const uint64_t discarded_before = discarded.value();
#endif

    dev.Crash();

    ASSERT_EQ(std::memcmp(dev.Live(0), durable.data(), kSize), 0)
        << "trial " << trial;
    ASSERT_EQ(dev.SnapshotDurable(), durable) << "trial " << trial;
    EXPECT_EQ(dev.PendingLineCount(), 0u);
#ifndef ARTHAS_OBS_DISABLED
    EXPECT_EQ(discarded.value() - discarded_before, expected.size())
        << "trial " << trial;
    std::vector<std::pair<PmOffset, obs::FrReason>> lost;
    std::vector<uint64_t> crash_args;
    for (const obs::FlightRecord& r :
         obs::FlightRecorder::Global().Snapshot()) {
      if (r.device_id != dev.device_id()) {
        continue;
      }
      if (r.type == obs::FrType::kLineLost) {
        EXPECT_EQ(r.size, kCacheLineSize);
        lost.push_back({r.addr, r.reason});
      } else if (r.type == obs::FrType::kCrash) {
        crash_args.push_back(r.arg);
      }
    }
    EXPECT_EQ(lost, expected) << "trial " << trial;
    EXPECT_EQ(crash_args, std::vector<uint64_t>{expected.size()});
#endif
  }
}

TEST(PmemDeviceTest, OffsetOfRejectsForeignPointers) {
  PmemDevice dev(4096);
  int local = 0;
  EXPECT_EQ(dev.OffsetOf(&local), kNullPmOffset);
  EXPECT_EQ(dev.OffsetOf(dev.Live(10)), 10u);
}

// --- Pool tests ------------------------------------------------------------

TEST(PmemPoolTest, CreateAndCheck) {
  auto pool = PmemPool::Create("test", 256 * 1024);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_TRUE((*pool)->CheckIntegrity().ok());
}

TEST(PmemPoolTest, ZallocReturnsZeroedDurableMemory) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = pool->Zalloc(128);
  ASSERT_TRUE(oid.ok());
  auto* p = pool->Direct<uint8_t>(*oid);
  for (int i = 0; i < 128; i++) {
    EXPECT_EQ(p[i], 0);
  }
}

TEST(PmemPoolTest, AllocationsDoNotOverlap) {
  auto pool = *PmemPool::Create("test", 1024 * 1024);
  std::set<std::pair<PmOffset, PmOffset>> ranges;
  for (int i = 0; i < 100; i++) {
    auto oid = pool->Zalloc(64 + i);
    ASSERT_TRUE(oid.ok());
    size_t sz = *pool->UsableSize(*oid);
    for (const auto& [lo, hi] : ranges) {
      EXPECT_TRUE(oid->off >= hi || oid->off + sz <= lo);
    }
    ranges.insert({oid->off, oid->off + sz});
  }
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, FreeAndReuse) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(100);
  ASSERT_TRUE(pool->Free(a).ok());
  auto b = *pool->Zalloc(100);
  EXPECT_EQ(a.off, b.off);  // first-fit reuses the freed block
}

TEST(PmemPoolTest, DoubleFreeIsRejected) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(100);
  ASSERT_TRUE(pool->Free(a).ok());
  EXPECT_EQ(pool->Free(a).code(), StatusCode::kFailedPrecondition);
}

TEST(PmemPoolTest, ExhaustionReturnsOutOfSpace) {
  auto pool = *PmemPool::Create("test", 128 * 1024);
  for (;;) {
    auto oid = pool->Zalloc(4096);
    if (!oid.ok()) {
      EXPECT_EQ(oid.status().code(), StatusCode::kOutOfSpace);
      break;
    }
  }
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, CoalescingRecoversSpaceAfterFragmentation) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  std::vector<Oid> oids;
  for (;;) {
    auto oid = pool->Zalloc(1024);
    if (!oid.ok()) {
      break;
    }
    oids.push_back(*oid);
  }
  for (Oid oid : oids) {
    ASSERT_TRUE(pool->Free(oid).ok());
  }
  // A large allocation must succeed after coalescing.
  auto big = pool->Zalloc(oids.size() * 1024 / 2);
  EXPECT_TRUE(big.ok()) << big.status().ToString();
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, RootIsStableAcrossCalls) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto r1 = *pool->Root(64);
  auto r2 = *pool->Root(64);
  EXPECT_EQ(r1.off, r2.off);
}

TEST(PmemPoolTest, RootSurvivesCrash) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto root = *pool->Root(64);
  auto* p = pool->Direct<uint64_t>(root);
  *p = 0xdeadbeef;
  pool->Persist(root, 0, 8);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(*pool->Root(64)), 0xdeadbeefu);
}

TEST(PmemPoolTest, UnpersistedObjectDataLostOnCrash) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto root = *pool->Root(64);
  *pool->Direct<uint64_t>(root) = 42;
  // No persist.
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(root), 0u);
}

TEST(PmemPoolTest, ReallocPreservesPayload) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(32);
  std::memcpy(pool->Direct(oid), "payload", 8);
  pool->Persist(oid, 0, 8);
  auto grown = pool->Realloc(oid, 4096);
  ASSERT_TRUE(grown.ok());
  EXPECT_NE(grown->off, oid.off);
  EXPECT_EQ(std::memcmp(pool->Direct(*grown), "payload", 8), 0);
  EXPECT_TRUE(pool->CheckIntegrity().ok());
}

TEST(PmemPoolTest, OverrunClobbersOnlyNeighborPayload) {
  // Allocator metadata is out-of-band (as in PMDK): an overrun from one
  // object damages the neighbor's *payload*, never heap metadata — the
  // failure shape of the studied overflow bugs.
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto a = *pool->Zalloc(64);
  auto b = *pool->Zalloc(64);
  auto* p = pool->Direct<uint8_t>(a);
  std::memset(p, 0xff, 128);  // run 64 bytes past `a`
  pool->PersistRange(a.off, 128);
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  // The neighbor's payload took the damage.
  if (b.off == a.off + 64) {
    EXPECT_EQ(*pool->Direct<uint8_t>(b), 0xff);
  }
}

TEST(PmemPoolTest, IntegrityCheckCatchesCorruptPoolHeader) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  (void)*pool->Zalloc(64);
  ASSERT_TRUE(pool->CheckIntegrity().ok());
  // Flip a byte inside the checksummed pool header.
  pool->device().Live(16)[0] ^= 0xff;
  EXPECT_FALSE(pool->CheckIntegrity().ok());
}

// --- Transaction tests -------------------------------------------------------

TEST(PmemTxTest, CommitMakesDataDurable) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  {
    PmemTx tx(*pool);
    ASSERT_TRUE(tx.status().ok());
    ASSERT_TRUE(tx.AddRange(oid, 0, 8).ok());
    *pool->Direct<uint64_t>(oid) = 7;
    ASSERT_TRUE(tx.Commit().ok());
  }
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 7u);
}

TEST(PmemTxTest, AbortRestoresOldData) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  *pool->Direct<uint64_t>(oid) = 1;
  pool->Persist(oid, 0, 8);
  {
    PmemTx tx(*pool);
    ASSERT_TRUE(tx.AddRange(oid, 0, 8).ok());
    *pool->Direct<uint64_t>(oid) = 2;
    // Destructor aborts.
  }
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 1u);
}

TEST(PmemTxTest, CrashMidTransactionRollsBackOnRecovery) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  auto oid = *pool->Zalloc(64);
  *pool->Direct<uint64_t>(oid) = 1;
  pool->Persist(oid, 0, 8);

  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxAddRange(oid, 0, 8).ok());
  *pool->Direct<uint64_t>(oid) = 2;
  // Partially persist the in-flight value, then crash before commit.
  pool->device().PersistQuiet(oid.off, 8);
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  EXPECT_EQ(*pool->Direct<uint64_t>(oid), 1u);
  EXPECT_FALSE(pool->InTx());
}

TEST(PmemTxTest, NestedTxRejected) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  ASSERT_TRUE(pool->TxBegin().ok());
  EXPECT_FALSE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxCommit().ok());
}

TEST(PmemTxTest, SlotExhaustionReturnsBusyWithoutLatchingAnything) {
  auto pool = *PmemPool::Create("test", 1024 * 1024);
  auto oid = *pool->Zalloc(1024);

  // Occupy every concurrent-transaction slot.
  std::vector<TxContext> contexts(PmemPool::kMaxConcurrentTx);
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    ASSERT_TRUE(pool->TxBegin(contexts[i]).ok()) << "slot " << i;
    ASSERT_TRUE(
        pool->TxAddRange(contexts[i], oid, static_cast<size_t>(i) * 64, 8)
            .ok());
  }

  // One more begin must fail with a clean, retryable kBusy — not latch an
  // abort, poison the pool, or disturb the live transactions.
  TxContext overflow;
  const Status busy = pool->TxBegin(overflow);
  EXPECT_EQ(busy.code(), StatusCode::kBusy) << busy.ToString();
  EXPECT_FALSE(overflow.active);

  // Every held transaction still commits cleanly...
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    auto* word = reinterpret_cast<uint64_t*>(pool->Direct<uint8_t>(oid) +
                                             static_cast<size_t>(i) * 64);
    *word = static_cast<uint64_t>(i) + 1;
    EXPECT_TRUE(pool->TxCommit(contexts[i]).ok()) << "slot " << i;
  }
  // ...after which a fresh begin succeeds and the pool is intact.
  EXPECT_TRUE(pool->TxBegin(overflow).ok());
  EXPECT_TRUE(pool->TxAbort(overflow).ok());
  EXPECT_TRUE(pool->CheckIntegrity().ok());
  ASSERT_TRUE(pool->CrashAndRecover().ok());
  for (int i = 0; i < PmemPool::kMaxConcurrentTx; i++) {
    const auto* word = reinterpret_cast<const uint64_t*>(
        pool->Direct<uint8_t>(oid) + static_cast<size_t>(i) * 64);
    EXPECT_EQ(*word, static_cast<uint64_t>(i) + 1);
  }
}

TEST(PmemTxTest, AbortThatRestoresBuddyStateKeepsAllocationsApart) {
  // A transaction may undo-log any range, allocator metadata included.
  // Rolling such a range back rewrites buddy-tree state underneath the
  // allocator's volatile summary; the next allocation must follow the
  // restored tree, not the summary of the aborted free.
  auto pool = *PmemPool::Create("test", 256 * 1024);
  const Oid a = *pool->Alloc(64);
  const Oid b = *pool->Alloc(64);
  // Find the tree bytes that freeing `a` rewrites: metadata below the heap,
  // past the page holding the pool header (whose counters also change).
  const PmOffset heap_base = a.off;
  const std::vector<uint8_t> before(pool->device().Live(0),
                                    pool->device().Live(heap_base));
  ASSERT_TRUE(pool->Free(a).ok());
  PmOffset lo = heap_base;
  PmOffset hi = 0;
  for (PmOffset off = 4096; off < heap_base; off++) {
    if (*pool->device().Live(off) != before[off]) {
      lo = std::min(lo, off);
      hi = std::max(hi, off);
    }
  }
  ASSERT_LE(lo, hi);
  ASSERT_EQ(pool->Alloc(64)->off, a.off);

  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxAddRange(lo, hi - lo + 1).ok());
  ASSERT_TRUE(pool->Free(a).ok());
  ASSERT_TRUE(pool->TxAbort().ok());  // the tree holds `a` again
  auto next = pool->Alloc(64);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(next->off, a.off);
  EXPECT_EQ(next->off, b.off + 64);
}

class PoolEventRecorder : public PoolObserver {
 public:
  void OnAlloc(PmOffset offset, size_t size) override {
    allocs.push_back({offset, size});
  }
  void OnFree(PmOffset offset, size_t size) override {
    frees.push_back({offset, size});
  }
  void OnRealloc(PmOffset old_offset, size_t, PmOffset new_offset,
                 size_t) override {
    reallocs.push_back({old_offset, new_offset});
  }
  void OnTxBegin(uint64_t id) override { tx_begins.push_back(id); }
  void OnTxCommit(uint64_t id) override { tx_commits.push_back(id); }

  std::vector<std::pair<PmOffset, size_t>> allocs, frees;
  std::vector<std::pair<PmOffset, PmOffset>> reallocs;
  std::vector<uint64_t> tx_begins, tx_commits;
};

TEST(PmemPoolTest, ObserverSeesLifecycleEvents) {
  auto pool = *PmemPool::Create("test", 256 * 1024);
  PoolEventRecorder rec;
  pool->AddObserver(&rec);
  auto a = *pool->Zalloc(100);
  auto b = *pool->Realloc(a, 5000);
  ASSERT_TRUE(pool->Free(b).ok());
  ASSERT_TRUE(pool->TxBegin().ok());
  ASSERT_TRUE(pool->TxCommit().ok());

  ASSERT_EQ(rec.allocs.size(), 1u);
  ASSERT_EQ(rec.reallocs.size(), 1u);
  EXPECT_EQ(rec.reallocs[0].first, a.off);
  EXPECT_EQ(rec.reallocs[0].second, b.off);
  ASSERT_EQ(rec.frees.size(), 1u);
  EXPECT_EQ(rec.tx_begins, rec.tx_commits);
}

// Property-style sweep: random alloc/free/crash sequences keep the pool
// metadata consistent for a range of pool sizes.
class PoolFuzzTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PoolFuzzTest, RandomOpsPreserveIntegrity) {
  auto pool = *PmemPool::Create("fuzz", GetParam());
  uint64_t seed = GetParam() * 2654435761u;
  std::vector<Oid> live;
  for (int i = 0; i < 600; i++) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint64_t pick = (seed >> 33) % 100;
    if (pick < 55) {
      auto oid = pool->Zalloc(16 + (seed >> 17) % 512);
      if (oid.ok()) {
        live.push_back(*oid);
      }
    } else if (pick < 85 && !live.empty()) {
      size_t idx = (seed >> 7) % live.size();
      ASSERT_TRUE(pool->Free(live[idx]).ok());
      live.erase(live.begin() + idx);
    } else if (pick < 95 && !live.empty()) {
      size_t idx = (seed >> 9) % live.size();
      auto grown = pool->Realloc(live[idx], 16 + (seed >> 21) % 1024);
      if (grown.ok()) {
        live[idx] = *grown;
      }
    } else {
      ASSERT_TRUE(pool->CrashAndRecover().ok());
    }
    ASSERT_TRUE(pool->CheckIntegrity().ok()) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, PoolFuzzTest,
                         ::testing::Values(128 * 1024, 256 * 1024, 512 * 1024,
                                           1024 * 1024));

// --- Allocator equivalence -----------------------------------------------------

// The leftmost-first depth-first search the pool's free-order summary
// replaced, kept as an executable reference model: its own state array, the
// same lazy splits on the way down, the same buddy merges on free. The pool
// must pick exactly its blocks.
class ReferenceBuddy {
 public:
  ReferenceBuddy(PmOffset heap_base, size_t heap_order)
      : heap_base_(heap_base),
        heap_order_(heap_order),
        state_(2ULL << (heap_order - kMinOrder), kFree) {}

  // Returns the new block's offset, or kNullPmOffset when out of space.
  PmOffset Alloc(size_t size) {
    size_t order = kMinOrder;
    while ((1ULL << order) < size) {
      order++;
    }
    if (order > heap_order_) {
      return kNullPmOffset;
    }
    const uint64_t node = Find(1, heap_order_, order);
    if (node == 0) {
      return kNullPmOffset;
    }
    state_[node] = kUsed;
    return Offset(node, order);
  }

  void Free(PmOffset offset) {
    uint64_t node = FindUsed(offset).first;
    ASSERT_NE(node, 0u);
    state_[node] = kFree;
    while (node > 1 && state_[node ^ 1] == kFree) {
      node /= 2;
      state_[node] = kFree;
    }
  }

  // PmemPool::Realloc's rule: grow into a new block, or stay in place.
  PmOffset Realloc(PmOffset offset, size_t new_size) {
    if (new_size <= (1ULL << FindUsed(offset).second)) {
      return offset;
    }
    const PmOffset grown = Alloc(new_size);
    if (grown != kNullPmOffset) {
      Free(offset);
    }
    return grown;
  }

  // (offset, size, used) of every block, in address order.
  std::vector<std::tuple<PmOffset, size_t, bool>> Blocks() const {
    std::vector<std::tuple<PmOffset, size_t, bool>> blocks;
    Walk(1, heap_order_, blocks);
    return blocks;
  }

 private:
  static constexpr size_t kMinOrder = 5;
  static constexpr uint8_t kFree = 0;
  static constexpr uint8_t kSplit = 1;
  static constexpr uint8_t kUsed = 2;

  uint64_t Find(uint64_t node, size_t order, size_t target) {
    if (state_[node] == kUsed) {
      return 0;
    }
    if (order == target) {
      return state_[node] == kFree ? node : 0;
    }
    if (state_[node] == kFree) {
      state_[node] = kSplit;
      state_[2 * node] = kFree;
      state_[2 * node + 1] = kFree;
    }
    const uint64_t left = Find(2 * node, order - 1, target);
    return left != 0 ? left : Find(2 * node + 1, order - 1, target);
  }

  std::pair<uint64_t, size_t> FindUsed(PmOffset offset) const {
    uint64_t node = 1;
    size_t order = heap_order_;
    while (state_[node] == kSplit) {
      order--;
      node = offset < Offset(2 * node + 1, order) ? 2 * node : 2 * node + 1;
    }
    if (state_[node] != kUsed || Offset(node, order) != offset) {
      return {0, 0};
    }
    return {node, order};
  }

  PmOffset Offset(uint64_t node, size_t order) const {
    return heap_base_ + (node - (1ULL << (heap_order_ - order))) *
                            (1ULL << order);
  }

  void Walk(uint64_t node, size_t order,
            std::vector<std::tuple<PmOffset, size_t, bool>>& out) const {
    if (state_[node] == kSplit) {
      Walk(2 * node, order - 1, out);
      Walk(2 * node + 1, order - 1, out);
      return;
    }
    out.emplace_back(Offset(node, order), 1ULL << order, state_[node] == kUsed);
  }

  PmOffset heap_base_;
  size_t heap_order_;
  std::vector<uint8_t> state_;
};

std::vector<std::tuple<PmOffset, size_t, bool>> PoolBlocks(
    const PmemPool& pool) {
  std::vector<std::tuple<PmOffset, size_t, bool>> blocks;
  pool.ForEachBlock([&blocks](PmOffset off, size_t size, bool used) {
    blocks.emplace_back(off, size, used);
  });
  return blocks;
}

// A fresh pool's heap is one free block: its offset and order seed the model.
ReferenceBuddy ModelOf(const PmemPool& fresh) {
  const auto blocks = PoolBlocks(fresh);
  EXPECT_EQ(blocks.size(), 1u);
  size_t order = 0;
  while ((1ULL << order) < std::get<1>(blocks[0])) {
    order++;
  }
  return ReferenceBuddy(std::get<0>(blocks[0]), order);
}

PmOffset OffsetOrNull(const Result<Oid>& oid) {
  if (!oid.ok()) {
    EXPECT_EQ(oid.status().code(), StatusCode::kOutOfSpace);
    return kNullPmOffset;
  }
  return oid->off;
}

// Randomized alloc/zalloc/free/realloc of mixed size classes, runs to
// exhaustion, allocations inside aborted transactions, and crashes: the pool
// and the reference pick the same block (or both run out) at every step.
class BuddyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(BuddyEquivalenceTest, PicksTheLeftmostFirstReferenceBlock) {
  const auto [pool_size, seed] = GetParam();
  auto pool = *PmemPool::Create("equiv", pool_size);
  ReferenceBuddy model = ModelOf(*pool);
  std::mt19937_64 rng(seed);
  // Log-uniform sizes from 1 B to 1/16 of the heap, so small classes
  // dominate but large ones keep fragmenting it.
  const size_t max_shift = 64 - __builtin_clzll(pool->Capacity() / 16);
  auto random_size = [&rng, max_shift] {
    const size_t shift = rng() % max_shift;
    return 1 + static_cast<size_t>(rng() % (2ULL << shift));
  };
  std::vector<PmOffset> live;
  int out_of_space = 0;
  auto alloc = [&](size_t size, bool zero) {
    const PmOffset got =
        OffsetOrNull(zero ? pool->Zalloc(size) : pool->Alloc(size));
    const PmOffset want = model.Alloc(size);
    EXPECT_EQ(got, want) << "size " << size;
    if (got == kNullPmOffset) {
      out_of_space++;
    } else {
      live.push_back(got);
    }
    return got == want && got != kNullPmOffset;
  };

  for (int step = 0; step < 4000; step++) {
    const uint64_t pick = rng() % 100;
    if (pick < 40) {
      alloc(random_size(), pick % 2 == 0);
    } else if (pick < 70 && !live.empty()) {
      const size_t idx = rng() % live.size();
      ASSERT_TRUE(pool->Free(Oid{live[idx]}).ok());
      model.Free(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (pick < 85 && !live.empty()) {
      const size_t idx = rng() % live.size();
      const size_t size = random_size();
      const PmOffset got = OffsetOrNull(pool->Realloc(Oid{live[idx]}, size));
      ASSERT_EQ(got, model.Realloc(live[idx], size)) << "size " << size;
      if (got != kNullPmOffset) {
        live[idx] = got;
      }
    } else if (pick < 92) {
      // Allocation inside an aborted transaction: the abort rolls back the
      // logged payload, not the allocation, and rebuilds the summary.
      ASSERT_TRUE(pool->TxBegin().ok());
      if (!live.empty()) {
        const Oid victim{live[rng() % live.size()]};
        ASSERT_TRUE(pool->TxAddRange(victim, 0, 8).ok());
        std::memset(pool->Direct(victim), 0xab, 8);
      }
      alloc(random_size(), false);
      ASSERT_TRUE(pool->TxAbort().ok());
    } else if (pick < 97) {
      // Run one size class to exhaustion.
      const size_t size = random_size();
      while (alloc(size, false)) {
      }
    } else {
      ASSERT_TRUE(pool->CrashAndRecover().ok());
    }
    ASSERT_FALSE(HasFailure()) << "step " << step;
    ASSERT_TRUE(pool->CheckIntegrity().ok()) << "step " << step;
    if (step % 64 == 0) {
      ASSERT_EQ(PoolBlocks(*pool), model.Blocks()) << "step " << step;
    }
  }
  EXPECT_EQ(PoolBlocks(*pool), model.Blocks());
  EXPECT_GT(out_of_space, 0);  // the sequence reached exhaustion
}

INSTANTIATE_TEST_SUITE_P(
    PoolSizesAndSeeds, BuddyEquivalenceTest,
    ::testing::Combine(::testing::Values(128 * 1024, 256 * 1024),
                       ::testing::Values(1u, 2u, 3u)));

// --- Image swaps under a live pool ---------------------------------------------

// Fills a pool's heap half with 64-byte blocks, then frees every seventh
// from block 100 on: the leftmost hole is far from where a fresh pool's
// first blocks go.
void FillWithHoles(PmemPool& pool) {
  std::vector<Oid> oids;
  for (size_t i = 0; i < pool.Capacity() / 2 / 64; i++) {
    oids.push_back(*pool.Alloc(64));
  }
  for (size_t i = 100; i < oids.size(); i += 7) {
    ASSERT_TRUE(pool.Free(oids[i]).ok());
  }
}

// The leftmost free block that can hold `size` bytes, which is where a
// leftmost-first allocator must carve the next block of that size.
PmOffset LeftmostFreeFor(const PmemPool& pool, size_t size) {
  for (const auto& [off, block, used] : PoolBlocks(pool)) {
    if (!used && block >= size) {
      return off;
    }
  }
  return kNullPmOffset;
}

// `pool` had its own allocations (and a summary describing them) when its
// device was handed `donor`'s image: the next allocation must come from that
// image's free space, exactly where `donor` itself puts it.
void ExpectAllocFromSwappedImage(PmemPool& pool, PmemPool& donor,
                                 size_t size) {
  std::set<PmOffset> in_use;
  for (const auto& [off, block, used] : PoolBlocks(pool)) {
    if (used) {
      in_use.insert(off);
    }
  }
  const PmOffset expected = LeftmostFreeFor(pool, size);
  ASSERT_NE(expected, kNullPmOffset);
  auto oid = pool.Alloc(size);
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_EQ(oid->off, expected);
  EXPECT_EQ(in_use.count(oid->off), 0u);
  auto donor_oid = donor.Alloc(size);
  ASSERT_TRUE(donor_oid.ok());
  EXPECT_EQ(oid->off, donor_oid->off);
  EXPECT_TRUE(pool.CheckIntegrity().ok());
}

TEST(PmemPoolTest, AllocAfterLoadFromFileUsesTheLoadedImage) {
  const std::string path = ::testing::TempDir() + "pmem_test_swap.img";
  auto donor = *PmemPool::Create("swap", 256 * 1024);
  FillWithHoles(*donor);
  ASSERT_TRUE(donor->device().SaveToFile(path).ok());

  auto pool = *PmemPool::Create("swap", 256 * 1024);
  (void)*pool->Alloc(64);
  ASSERT_TRUE(pool->device().LoadFromFile(path).ok());
  ExpectAllocFromSwappedImage(*pool, *donor, 64);
}

TEST(PmemPoolTest, AllocAfterRestoreDurableUsesTheRestoredImage) {
  auto donor = *PmemPool::Create("swap", 256 * 1024);
  FillWithHoles(*donor);

  auto pool = *PmemPool::Create("swap", 256 * 1024);
  (void)*pool->Alloc(64);
  ASSERT_TRUE(pool->device().RestoreDurable(donor->device().SnapshotDurable())
                  .ok());
  ExpectAllocFromSwappedImage(*pool, *donor, 64);
}

TEST(PmemPoolTest, FreeAfterRestoreDurableWorksOnTheRestoredImage) {
  // The other direction: the restored image is the emptier one, and the
  // first call after the swap is a Free.
  auto donor = *PmemPool::Create("swap", 256 * 1024);
  const Oid first = *donor->Alloc(64);
  (void)*donor->Alloc(64);
  const std::vector<uint8_t> image = donor->device().SnapshotDurable();
  ASSERT_TRUE(donor->Free(first).ok());

  auto pool = *PmemPool::Create("swap", 256 * 1024);
  FillWithHoles(*pool);
  ASSERT_TRUE(pool->device().RestoreDurable(image).ok());
  ASSERT_TRUE(pool->Free(first).ok());
  ExpectAllocFromSwappedImage(*pool, *donor, 4096);
}

}  // namespace
}  // namespace arthas
