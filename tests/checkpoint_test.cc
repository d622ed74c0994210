// Tests for the versioned checkpoint log: recording at durability points,
// version rings, transaction grouping, realloc linkage, reversion.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <thread>

#include "checkpoint/checkpoint_log.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/resource/resource_accountant.h"
#include "pmem/pool.h"
#include "pmem/tx.h"

namespace arthas {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = *PmemPool::Create("ckpt", 256 * 1024);
    log_ = std::make_unique<CheckpointLog>(*pool_);
  }

  void WriteAndPersist(Oid oid, uint64_t value) {
    *pool_->Direct<uint64_t>(oid) = value;
    pool_->Persist(oid, 0, 8);
  }

  uint64_t ReadBack(Oid oid) { return *pool_->Direct<uint64_t>(oid); }

  std::unique_ptr<PmemPool> pool_;
  std::unique_ptr<CheckpointLog> log_;
};

TEST_F(CheckpointTest, RecordsAtPersistGranularity) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  const CheckpointEntry* entry = log_->Find(oid.off);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->versions.size(), 1u);
  EXPECT_EQ(entry->versions[0].data.size(), 8u);
  uint64_t recorded;
  std::memcpy(&recorded, entry->versions[0].data.data(), 8);
  EXPECT_EQ(recorded, 1u);
}

TEST_F(CheckpointTest, UnpersistedWritesAreNotCheckpointed) {
  Oid oid = *pool_->Zalloc(64);
  *pool_->Direct<uint64_t>(oid) = 99;  // no persist
  EXPECT_EQ(log_->Find(oid.off), nullptr);
}

TEST_F(CheckpointTest, AllocatorMetadataIsNotCheckpointed) {
  Oid oid = *pool_->Zalloc(64);
  (void)oid;
  // Only application persists create entries; Zalloc's zeroing and header
  // updates are quiet.
  EXPECT_TRUE(log_->entries().empty());
}

TEST_F(CheckpointTest, VersionRingKeepsMaxVersions) {
  Oid oid = *pool_->Zalloc(64);
  for (uint64_t v = 1; v <= 5; v++) {
    WriteAndPersist(oid, v);
  }
  const CheckpointEntry* entry = log_->Find(oid.off);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->versions.size(), 3u);  // default max_versions = 3
  uint64_t oldest;
  std::memcpy(&oldest, entry->versions[0].data.data(), 8);
  EXPECT_EQ(oldest, 3u);
  // The evicted version 2 became the pre-history.
  uint64_t original;
  std::memcpy(&original, entry->original.data(), 8);
  EXPECT_EQ(original, 2u);
}

TEST_F(CheckpointTest, RevertSeqRestoresPreviousVersion) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  const SeqNum newest = log_->NewestSeqAt(oid.off);
  ASSERT_TRUE(log_->RevertSeq(newest).ok());
  EXPECT_EQ(ReadBack(oid), 1u);
  // The reverted value is durable (survives restart).
  ASSERT_TRUE(pool_->CrashAndRecover().ok());
  EXPECT_EQ(ReadBack(oid), 1u);
}

TEST_F(CheckpointTest, RevertFirstVersionRestoresOriginal) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 42);
  ASSERT_TRUE(log_->RevertSeq(log_->NewestSeqAt(oid.off)).ok());
  EXPECT_EQ(ReadBack(oid), 0u);  // the pre-update durable bytes were zero
}

TEST_F(CheckpointTest, RevertMiddleSeqDiscardsNewerVersions) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  WriteAndPersist(oid, 3);
  const CheckpointEntry* entry = log_->Find(oid.off);
  const SeqNum middle = entry->versions[1].seq_num;
  ASSERT_TRUE(log_->RevertSeq(middle).ok());
  EXPECT_EQ(ReadBack(oid), 1u);
  EXPECT_EQ(log_->Find(oid.off)->versions.size(), 1u);
}

TEST_F(CheckpointTest, RollbackToSeqRevertsEverythingAfter) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);  // seq 1
  WriteAndPersist(b, 10);  // seq 2
  const SeqNum cut = log_->NewestSeqAt(b.off);
  WriteAndPersist(a, 2);  // seq 3
  WriteAndPersist(b, 20);  // seq 4

  auto discarded = log_->RollbackToSeq(cut);
  ASSERT_TRUE(discarded.ok());
  EXPECT_EQ(*discarded, 3u);  // seq 2, 3, 4
  EXPECT_EQ(ReadBack(a), 1u);
  EXPECT_EQ(ReadBack(b), 0u);
}

TEST_F(CheckpointTest, TransactionGroupsSeqs) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  {
    PmemTx tx(*pool_);
    ASSERT_TRUE(tx.AddRange(a, 0, 8).ok());
    ASSERT_TRUE(tx.AddRange(b, 0, 8).ok());
    *pool_->Direct<uint64_t>(a) = 5;
    *pool_->Direct<uint64_t>(b) = 6;
    ASSERT_TRUE(tx.Commit().ok());
  }
  const SeqNum seq_a = log_->NewestSeqAt(a.off);
  const SeqNum seq_b = log_->NewestSeqAt(b.off);
  ASSERT_NE(seq_a, kNoSeq);
  ASSERT_NE(seq_b, kNoSeq);
  auto group = log_->SeqsInSameTx(seq_a);
  EXPECT_EQ(group.size(), 2u);
  EXPECT_TRUE(std::find(group.begin(), group.end(), seq_b) != group.end());
}

TEST_F(CheckpointTest, NonTransactionalSeqIsItsOwnGroup) {
  Oid a = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  auto group = log_->SeqsInSameTx(log_->NewestSeqAt(a.off));
  EXPECT_EQ(group.size(), 1u);
}

TEST_F(CheckpointTest, ReallocLinksEntries) {
  Oid small = *pool_->Zalloc(32);
  WriteAndPersist(small, 7);
  Oid big = *pool_->Realloc(small, 8192);
  ASSERT_NE(big.off, small.off);
  const CheckpointEntry* fresh = log_->Find(big.off);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->old_entry, small.off);
  const CheckpointEntry* old = log_->Find(small.off);
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->new_entry, big.off);
}

TEST_F(CheckpointTest, UnfreedAllocationsTracksLeaks) {
  Oid kept = *pool_->Zalloc(64);
  Oid freed = *pool_->Zalloc(64);
  ASSERT_TRUE(pool_->Free(freed).ok());
  auto unfreed = log_->UnfreedAllocations();
  ASSERT_EQ(unfreed.size(), 1u);
  EXPECT_EQ(unfreed[0].offset, kept.off);
}

TEST_F(CheckpointTest, OverlappingFindsCoveringEntry) {
  Oid oid = *pool_->Zalloc(128);
  // Persist the whole object once.
  pool_->Persist(oid, 0, 128);
  // A trace address in the middle of the object must find the entry.
  auto hits = log_->Overlapping(oid.off + 50, 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->address, oid.off);
}

// The linear scan Overlapping used before the address view, kept as the
// reference: every entry whose recorded extent overlaps [offset,
// offset + size), in address order. (The scan also skipped entries that
// start at least the log's largest extent below `offset`; none of them
// can overlap, since every entry's extent, a realloc target's included,
// counts toward that bound.)
std::vector<const CheckpointEntry*> LinearOverlapping(const CheckpointLog& log,
                                                      PmOffset offset,
                                                      size_t size) {
  std::vector<const CheckpointEntry*> out;
  log.ForEachEntry([&](const CheckpointEntry& entry) {
    const size_t extent = std::max(entry.original.size(),
                                   entry.versions.empty()
                                       ? size_t{0}
                                       : entry.versions.back().data.size());
    if (entry.address < offset + size && offset < entry.address + extent) {
      out.push_back(&entry);
    }
  });
  std::sort(out.begin(), out.end(),
            [](const CheckpointEntry* a, const CheckpointEntry* b) {
              return a->address < b->address;
            });
  return out;
}

// Compares Overlapping with the linear scan at both edges of every entry
// and at random ranges across the pool.
void ExpectOverlappingMatchesLinearScan(const CheckpointLog& log, Rng& rng,
                                        size_t pool_bytes) {
  std::vector<std::pair<PmOffset, size_t>> probes;
  log.ForEachEntry([&probes](const CheckpointEntry& entry) {
    const size_t extent = entry.original.size();
    for (const PmOffset at : {entry.address - 1, entry.address,
                              entry.address + extent - 1,
                              entry.address + extent}) {
      probes.push_back({at, 1});
    }
  });
  for (int i = 0; i < 400; i++) {
    probes.push_back({rng.NextBelow(pool_bytes), size_t{1} << (i % 11)});
  }
  for (const auto& [offset, size] : probes) {
    ASSERT_EQ(log.Overlapping(offset, size),
              LinearOverlapping(log, offset, size))
        << "offset " << offset << " size " << size;
  }
}

TEST_F(CheckpointTest, IndexedOverlappingMatchesLinearScan) {
  // A second log on the same pool records the same entries and answers
  // queries throughout; at the end it is restored from the first log's
  // image, which has exactly as many entries as its stale view would.
  CheckpointLog restored(*pool_);
  const size_t pool_bytes = pool_->device().size();
  Rng rng(20210426);
  std::vector<std::pair<Oid, size_t>> objects;
  auto fill_and_persist = [&](size_t index, size_t offset, size_t size) {
    const Oid oid = objects[index].first;
    for (size_t i = 0; i < size; i++) {
      pool_->Direct<uint8_t>(oid)[offset + i] =
          static_cast<uint8_t>(rng.NextU64());
    }
    pool_->Persist(oid, offset, size);
  };
  for (int round = 0; round < 8; round++) {
    for (int i = 0; i < 12; i++) {
      const size_t size = 16 + rng.NextBelow(497);
      objects.push_back({*pool_->Zalloc(size), size});
    }
    for (int i = 0; i < 80; i++) {
      const size_t index = rng.NextBelow(objects.size());
      const size_t size = objects[index].second;
      switch (rng.NextBelow(3)) {
        case 0:  // a small field at a random offset
        {
          const size_t len = 1 + rng.NextBelow(std::min<size_t>(size, 16));
          fill_and_persist(index, rng.NextBelow(size - len + 1), len);
          break;
        }
        case 1:  // the first word, then later the whole object: the entry
                 // at the object's start grows its extent
          fill_and_persist(index, 0, 8);
          break;
        default:
          fill_and_persist(index, 0, size);
          break;
      }
    }
    // Reallocations link the new entry to the old one's history; the new
    // block is bigger than anything persisted so far.
    for (int i = 0; i < 2; i++) {
      const size_t index = rng.NextBelow(objects.size());
      const size_t size = 2048 + rng.NextBelow(2048);
      auto grown = pool_->Realloc(objects[index].first, size);
      ASSERT_TRUE(grown.ok());
      objects[index] = {*grown, size};
    }
    // Reverts discard the newest (and, from the middle, newer) versions.
    for (int i = 0; i < 10; i++) {
      const CheckpointEntry* entry =
          log_->Find(objects[rng.NextBelow(objects.size())].first.off);
      if (entry != nullptr && !entry->versions.empty()) {
        const SeqNum seq =
            entry->versions[rng.NextBelow(entry->versions.size())].seq_num;
        ASSERT_TRUE(log_->RevertSeq(seq).ok());
      }
    }
    // Entries created since the previous round force a rebuild here.
    ExpectOverlappingMatchesLinearScan(*log_, rng, pool_bytes);
    ExpectOverlappingMatchesLinearScan(restored, rng, pool_bytes);
  }
  ASSERT_EQ(restored.entry_count(), log_->entry_count());
  ASSERT_TRUE(restored.Restore(log_->Serialize()).ok());
  ExpectOverlappingMatchesLinearScan(restored, rng, pool_bytes);
  for (PmOffset offset = 0; offset < pool_bytes; offset += 61) {
    const auto mine = log_->Overlapping(offset, 64);
    const auto theirs = restored.Overlapping(offset, 64);
    ASSERT_EQ(mine.size(), theirs.size()) << "offset " << offset;
    for (size_t i = 0; i < mine.size(); i++) {
      EXPECT_EQ(mine[i]->address, theirs[i]->address);
    }
  }
}

TEST_F(CheckpointTest, OverlappingRunsAlongsideConcurrentPersists) {
  // Queries rebuild and walk the address view while writer threads persist
  // and create entries. The persist path never takes the view's mutex, and
  // the thread-sanitizer job runs this test.
  constexpr size_t kWriters = 2;
  constexpr size_t kObjects = 64;
  std::vector<Oid> objects;
  for (size_t i = 0; i < kWriters * kObjects; i++) {
    objects.push_back(*pool_->Zalloc(64));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (size_t round = 0; !stop.load(); round++) {
        // Each object gains an entry per 8-byte field over time.
        pool_->Persist(objects[w * kObjects + round % kObjects],
                       8 * (round / kObjects % 8), 8);
      }
    });
  }
  // Query until every field of every object has its entry.
  size_t hits = 0;
  for (size_t i = 0; i < 2000 || log_->entry_count() < 8 * objects.size();
       i++) {
    hits += log_->Overlapping(objects[i % objects.size()].off, 64).size();
  }
  stop = true;
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_GT(hits, 0u);
  for (const Oid& oid : objects) {
    EXPECT_EQ(log_->Overlapping(oid.off, 64),
              LinearOverlapping(*log_, oid.off, 64));
  }
}

// The union of LinearOverlapping(log, a, 1) over `addresses`: each entry
// once, in address order.
std::vector<const CheckpointEntry*> LinearUnion(
    const CheckpointLog& log, const std::vector<PmOffset>& addresses) {
  std::vector<const CheckpointEntry*> out;
  for (const PmOffset address : addresses) {
    for (const CheckpointEntry* entry : LinearOverlapping(log, address, 1)) {
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CheckpointEntry* a, const CheckpointEntry* b) {
              return a->address < b->address;
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PmOffset> SortedUnique(std::vector<PmOffset> addresses) {
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());
  return addresses;
}

TEST_F(CheckpointTest, OverlappingAnyMatchesUnionOfLinearScans) {
  const size_t pool_bytes = pool_->device().size();
  Rng rng(20210427);
  std::vector<std::pair<Oid, size_t>> objects;
  auto persist = [&](const Oid& oid, size_t offset, size_t size) {
    for (size_t i = 0; i < size; i++) {
      pool_->Direct<uint8_t>(oid)[offset + i] =
          static_cast<uint8_t>(rng.NextU64());
    }
    pool_->Persist(oid, offset, size);
  };
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < 10; i++) {
      const size_t size = 16 + rng.NextBelow(513);
      const Oid oid = *pool_->Zalloc(size);
      objects.push_back({oid, size});
      // The whole object once, then fields every 8 or 64 bytes: the entry at
      // the object's start is wider than the spacing of the entries inside
      // it, so a walk must not skip it on the way to its neighbours.
      persist(oid, 0, size);
      const size_t step = rng.NextBool(0.5) ? 8 : 64;
      for (size_t field = step; field + 8 <= size; field += step) {
        if (rng.NextBool(0.7)) {
          persist(oid, field, 8);
        }
      }
    }
    // A zero-extent entry, which overlaps no address at all, inside the
    // newest object.
    const auto& [last, last_size] = objects.back();
    const PmOffset empty_at = last.off + 8 * rng.NextBelow(last_size / 8) + 3;
    log_->OnPersist(empty_at, 0, pool_->device().Live(empty_at));
    ASSERT_NE(log_->Find(empty_at), nullptr);
    // Reallocations link a new, wider entry to the old one's history.
    for (int i = 0; i < 2; i++) {
      const size_t index = rng.NextBelow(objects.size());
      const size_t size = 1024 + rng.NextBelow(1024);
      auto grown = pool_->Realloc(objects[index].first, size);
      ASSERT_TRUE(grown.ok());
      objects[index] = {*grown, size};
      persist(*grown, 0, 8);
    }

    std::vector<std::vector<PmOffset>> queries;
    queries.push_back({});
    queries.push_back({empty_at});
    for (const size_t count : {1, 8, 64, 512}) {  // sparse to medium
      std::vector<PmOffset> addresses;
      for (size_t i = 0; i < count; i++) {
        addresses.push_back(rng.NextBelow(pool_bytes));
      }
      queries.push_back(SortedUnique(std::move(addresses)));
    }
    // Both edges of every entry.
    std::vector<PmOffset> edges;
    log_->ForEachEntry([&edges](const CheckpointEntry& entry) {
      const size_t extent = entry.original.size();
      for (const PmOffset at : {entry.address - 1, entry.address,
                                entry.address + extent - 1,
                                entry.address + extent}) {
        edges.push_back(at);
      }
    });
    queries.push_back(SortedUnique(std::move(edges)));
    // Dense: every byte, and every 8th byte, of a window around an object.
    const PmOffset around = objects[rng.NextBelow(objects.size())].first.off;
    const PmOffset from = around >= 512 ? around - 512 : 0;
    for (const size_t stride : {1, 8}) {
      std::vector<PmOffset> addresses;
      for (PmOffset a = from; a < from + 2048 * stride && a < pool_bytes;
           a += stride) {
        addresses.push_back(a);
      }
      queries.push_back(std::move(addresses));
    }
    for (const std::vector<PmOffset>& addresses : queries) {
      ASSERT_EQ(log_->OverlappingAny(addresses),
                LinearUnion(*log_, addresses))
          << "round " << round << ", " << addresses.size() << " addresses";
    }
  }
}

TEST_F(CheckpointTest, OverlappingAnyRunsAlongsideConcurrentPersists) {
  // The join rebuilds and walks the address view while writer threads
  // persist and create entries, as in OverlappingRunsAlongsideConcurrent-
  // Persists; the thread-sanitizer job runs this test too.
  constexpr size_t kWriters = 2;
  constexpr size_t kObjects = 64;
  std::vector<Oid> objects;
  std::vector<PmOffset> addresses;
  for (size_t i = 0; i < kWriters * kObjects; i++) {
    objects.push_back(*pool_->Zalloc(64));
    for (PmOffset at = 4; at < 64; at += 24) {
      addresses.push_back(objects.back().off + at);
    }
  }
  addresses = SortedUnique(std::move(addresses));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (size_t round = 0; !stop.load(); round++) {
        pool_->Persist(objects[w * kObjects + round % kObjects],
                       8 * (round / kObjects % 8), 8);
      }
    });
  }
  size_t hits = 0;
  for (size_t i = 0; i < 500 || log_->entry_count() < 8 * objects.size();
       i++) {
    hits += log_->OverlappingAny(addresses).size();
  }
  stop = true;
  for (std::thread& writer : writers) {
    writer.join();
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(log_->OverlappingAny(addresses), LinearUnion(*log_, addresses));
}

TEST_F(CheckpointTest, LocateSeqFindsEntryAndVersion) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  WriteAndPersist(oid, 2);
  const CheckpointEntry* entry = log_->Find(oid.off);
  auto loc = log_->LocateSeq(entry->versions[1].seq_num);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->first, oid.off);
  EXPECT_EQ(loc->second, 1);
  EXPECT_FALSE(log_->LocateSeq(9999).has_value());
}

// Brute-force LocateSeq: scan every retained version of every entry.
std::optional<std::pair<PmOffset, int>> ScanForSeq(const CheckpointLog& log,
                                                   SeqNum seq) {
  std::optional<std::pair<PmOffset, int>> found;
  log.ForEachEntry([&](const CheckpointEntry& entry) {
    for (size_t i = 0; i < entry.versions.size(); i++) {
      if (entry.versions[i].seq_num == seq) {
        found = std::make_pair(entry.address, static_cast<int>(i));
      }
    }
  });
  return found;
}

void ExpectLocateSeqMatchesScan(const CheckpointLog& log) {
  for (SeqNum seq = kNoSeq; seq <= log.LatestSeq() + 1; seq++) {
    EXPECT_EQ(log.LocateSeq(seq), ScanForSeq(log, seq)) << "seq " << seq;
  }
}

// Versions leave their rings by eviction, RevertSeq and RollbackToSeq, and
// Restore replaces them all; LocateSeq must keep answering for exactly the
// retained ones.
TEST_F(CheckpointTest, LocateSeqMatchesRetainedVersionsAcrossDiscards) {
  std::vector<Oid> oids;
  for (int i = 0; i < 24; i++) {
    oids.push_back(*pool_->Zalloc(64));
  }
  Rng rng(5);
  auto churn = [&](int persists) {
    for (int i = 0; i < persists; i++) {
      WriteAndPersist(oids[rng.NextBelow(oids.size())], rng.NextU64());
    }
  };
  churn(1500);
  ExpectLocateSeqMatchesScan(*log_);

  for (int round = 0; round < 4; round++) {
    const CheckpointEntry* entry =
        log_->Find(oids[rng.NextBelow(oids.size())].off);
    ASSERT_NE(entry, nullptr);
    ASSERT_TRUE(
        log_->RevertSeq(entry->versions[rng.NextBelow(entry->versions.size())]
                            .seq_num)
            .ok());
    churn(200);
  }
  ExpectLocateSeqMatchesScan(*log_);

  ASSERT_TRUE(log_->RollbackToSeq(log_->LatestSeq() - 60).ok());
  ExpectLocateSeqMatchesScan(*log_);
  churn(300);
  const std::vector<uint8_t> image = log_->Serialize();
  churn(300);
  ASSERT_TRUE(log_->Restore(image).ok());
  ExpectLocateSeqMatchesScan(*log_);
  churn(500);
  ExpectLocateSeqMatchesScan(*log_);
}

// The seq index follows retained versions, not persists: 100k persists
// over 64 addresses must not keep a 16-B pair each (1.6 MB).
TEST_F(CheckpointTest, SeqIndexStaysBoundedUnderRingEvictions) {
  std::vector<Oid> oids;
  for (int i = 0; i < 64; i++) {
    oids.push_back(*pool_->Zalloc(64));
  }
  for (uint64_t i = 0; i < 100000; i++) {
    WriteAndPersist(oids[i % oids.size()], i);
  }
  EXPECT_EQ(log_->retained_versions(), 64u * 3);
  EXPECT_LT(log_->index_bytes(), 64u * 1024);
}

TEST_F(CheckpointTest, SerializeRestoreRoundTrip) {
  Oid a = *pool_->Zalloc(64);
  Oid b = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  WriteAndPersist(a, 2);
  {
    PmemTx tx(*pool_);
    ASSERT_TRUE(tx.AddRange(b, 0, 8).ok());
    *pool_->Direct<uint64_t>(b) = 9;
    ASSERT_TRUE(tx.Commit().ok());
  }
  Oid moved = *pool_->Realloc(b, 8192);
  const auto image = log_->Serialize();

  // A fresh log attached to the same pool, restored from the image, must
  // answer every query identically and revert correctly.
  CheckpointLog fresh(*pool_);
  ASSERT_TRUE(fresh.Restore(image).ok());
  EXPECT_EQ(fresh.entries().size(), log_->entries().size());
  EXPECT_EQ(fresh.LatestSeq(), log_->LatestSeq());
  EXPECT_EQ(fresh.NewestSeqAt(a.off), log_->NewestSeqAt(a.off));
  ASSERT_NE(fresh.Find(moved.off), nullptr);
  EXPECT_EQ(fresh.Find(moved.off)->old_entry, b.off);
  const SeqNum tx_seq = fresh.NewestSeqAt(b.off);
  EXPECT_EQ(fresh.SeqsInSameTx(tx_seq).size(),
            log_->SeqsInSameTx(tx_seq).size());
  log_->Detach();  // only one log may act on the pool's state now
  ASSERT_TRUE(fresh.RevertSeq(fresh.NewestSeqAt(a.off)).ok());
  EXPECT_EQ(ReadBack(a), 1u);
}

// Restore replaces every version, so the published counts must follow it:
// restoring a 2-version image over 14 versions reads 2 everywhere.
TEST_F(CheckpointTest, RestoreRepublishesCounts) {
#ifdef ARTHAS_OBS_DISABLED
  GTEST_SKIP() << "instrumentation macros are compiled out in this build";
#endif
  Oid a = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  WriteAndPersist(a, 2);
  const auto image = log_->Serialize();
  for (int i = 0; i < 4; i++) {
    Oid more = *pool_->Zalloc(64);
    for (uint64_t v = 0; v < 3; v++) {
      WriteAndPersist(more, v);
    }
  }
  ASSERT_EQ(log_->retained_versions(), 14u);

  ASSERT_TRUE(log_->Restore(image).ok());
  EXPECT_EQ(log_->retained_versions(), 2u);
  const obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.gauges.at("checkpoint.versions.retained"), 2);
  EXPECT_EQ(snap.gauges.at("checkpoint.entries.count"), 1);
  EXPECT_EQ(obs::ResourceAccountant::Global()
                .GetCell("checkpoint.retained.versions", "count")
                .value(),
            2);
}

TEST_F(CheckpointTest, RestoreRejectsCorruptImages) {
  Oid a = *pool_->Zalloc(64);
  WriteAndPersist(a, 1);
  auto image = log_->Serialize();
  CheckpointLog fresh(*pool_);
  EXPECT_FALSE(fresh.Restore({}).ok());
  image[0] ^= 0xff;  // smash the magic
  EXPECT_FALSE(fresh.Restore(image).ok());
  auto truncated = log_->Serialize();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(fresh.Restore(truncated).ok());
}

TEST_F(CheckpointTest, DetachStopsRecording) {
  Oid oid = *pool_->Zalloc(64);
  WriteAndPersist(oid, 1);
  log_->Detach();
  WriteAndPersist(oid, 2);
  EXPECT_EQ(log_->Find(oid.off)->versions.size(), 1u);
}

}  // namespace
}  // namespace arthas
