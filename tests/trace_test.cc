// Tests for the GUID registry and the runtime PM-address tracer.

#include <algorithm>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "trace/guid_registry.h"
#include "trace/tracer.h"

namespace arthas {
namespace {

// Reference model: the tracer as it was when it archived every record,
// deduplicating only on query (Distinct() and the queries below).
class FullArchiveTracer {
 public:
  void Record(Guid guid, PmOffset address) {
    archive_.push_back({guid, address, archive_.size()});
  }
  void Clear() { archive_.clear(); }

  // Each distinct pair at its first record, in record order.
  std::vector<TraceEvent> Distinct() const {
    std::vector<TraceEvent> out;
    std::set<std::pair<Guid, PmOffset>> seen;
    for (const TraceEvent& e : archive_) {
      if (seen.insert({e.guid, e.address}).second) {
        out.push_back(e);
      }
    }
    return out;
  }

  // One line per record, as trace files were written then.
  std::string Serialize() const {
    std::string out;
    for (const TraceEvent& e : archive_) {
      out += std::to_string(e.guid) + "\t" + std::to_string(e.address) + "\n";
    }
    return out;
  }

 private:
  std::vector<TraceEvent> archive_;
};

std::vector<PmOffset> ReferenceAddressesForGuid(
    const std::vector<TraceEvent>& distinct, Guid guid) {
  std::vector<PmOffset> out;
  for (const TraceEvent& e : distinct) {
    if (e.guid == guid) {
      out.push_back(e.address);
    }
  }
  return out;
}

// Sorted, deduplicated addresses of every pair whose guid is in `guids`.
std::vector<PmOffset> ReferenceAddressesForGuids(
    const std::vector<TraceEvent>& distinct, const std::vector<Guid>& guids) {
  std::set<PmOffset> out;
  for (const TraceEvent& e : distinct) {
    if (std::find(guids.begin(), guids.end(), e.guid) != guids.end()) {
      out.insert(e.address);
    }
  }
  return {out.begin(), out.end()};
}

// Distinct guids over the (address, guid)-sorted pairs in range.
std::vector<Guid> ReferenceGuidsForRange(
    const std::vector<TraceEvent>& distinct, PmOffset offset, size_t size) {
  std::vector<std::pair<PmOffset, Guid>> by_address;
  for (const TraceEvent& e : distinct) {
    by_address.push_back({e.address, e.guid});
  }
  std::sort(by_address.begin(), by_address.end());
  std::vector<Guid> out;
  for (const auto& [address, guid] : by_address) {
    if (address >= offset && address < offset + size &&
        std::find(out.begin(), out.end(), guid) == out.end()) {
      out.push_back(guid);
    }
  }
  return out;
}

constexpr Guid kStreamGuids = 6;
constexpr PmOffset kStreamSpan = 4096;

// Asserts `tracer` answers every query as the reference does. With
// `check_index`, the first-record indexes must match too (a trace parsed
// from a file renumbers them).
void ExpectSameAnswers(Tracer& tracer, const FullArchiveTracer& reference,
                       bool check_index) {
  const std::vector<TraceEvent> expected = reference.Distinct();
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), expected.size());
  EXPECT_EQ(tracer.EventCount(), expected.size());
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_EQ(events[i].guid, expected[i].guid) << i;
    EXPECT_EQ(events[i].address, expected[i].address) << i;
    if (check_index) {
      EXPECT_EQ(events[i].index, expected[i].index) << i;
    }
  }
  for (Guid guid = 0; guid <= kStreamGuids + 1; guid++) {
    EXPECT_EQ(tracer.AddressesForGuid(guid),
              ReferenceAddressesForGuid(expected, guid))
        << guid;
  }
  // Sorted GUID sets: empty, a GUID never recorded, random subsets (one
  // with the unrecorded GUID), and every GUID.
  std::vector<std::vector<Guid>> guid_sets = {{}, {kStreamGuids + 1}};
  Rng rng(kStreamGuids);
  for (int i = 0; i < 4; i++) {
    std::vector<Guid> subset;
    for (Guid guid = 0; guid <= kStreamGuids + 1; guid++) {
      if (rng.NextBool(0.5)) {
        subset.push_back(guid);
      }
    }
    guid_sets.push_back(subset);
  }
  guid_sets.emplace_back();
  for (Guid guid = 1; guid <= kStreamGuids; guid++) {
    guid_sets.back().push_back(guid);
  }
  for (const std::vector<Guid>& guids : guid_sets) {
    EXPECT_EQ(tracer.AddressesForGuids(guids),
              ReferenceAddressesForGuids(expected, guids))
        << guids.size() << " guids";
  }
  for (PmOffset offset = 0; offset < kStreamSpan; offset += 200) {
    for (size_t size : {1, 8, 64, 700}) {
      EXPECT_EQ(tracer.GuidsForRange(offset, size),
                ReferenceGuidsForRange(expected, offset, size))
          << offset << "+" << size;
    }
  }
}

// Feeds `records` pairs per thread, from `threads` threads, to the tracer
// and the reference in one shared order. Most records repeat a few hot
// pairs. One thread records on the calling thread, so its buffer and
// filter outlive a Clear() between calls.
void FeedStream(Tracer& tracer, FullArchiveTracer& reference, int threads,
                int records, uint64_t seed) {
  std::mutex order;
  auto feed = [&](uint64_t stream_seed) {
    Rng rng(stream_seed);
    for (int i = 0; i < records; i++) {
      const Guid guid = 1 + rng.NextBelow(kStreamGuids);
      const PmOffset address = rng.NextBool(0.8)
                                   ? rng.NextBelow(16) * 64
                                   : rng.NextBelow(kStreamSpan / 8) * 8;
      std::lock_guard<std::mutex> lock(order);
      tracer.Record(guid, address);
      reference.Record(guid, address);
    }
  };
  if (threads == 1) {
    feed(seed);
    return;
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; t++) {
    workers.emplace_back(feed, seed + static_cast<uint64_t>(t));
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

TEST(GuidRegistryTest, RegisterAndLookup) {
  GuidRegistry registry;
  ASSERT_TRUE(registry.Register(42, "sys", "file.cc:12", "store %v1").ok());
  const GuidInfo* info = registry.Lookup(42);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->system, "sys");
  EXPECT_EQ(info->location, "file.cc:12");
  EXPECT_EQ(registry.Lookup(43), nullptr);
}

TEST(GuidRegistryTest, RejectsDuplicatesAndNull) {
  GuidRegistry registry;
  ASSERT_TRUE(registry.Register(1, "s", "l", "i").ok());
  EXPECT_EQ(registry.Register(1, "s", "l2", "i2").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.Register(kNoGuid, "s", "l", "i").code(),
            StatusCode::kInvalidArgument);
}

TEST(GuidRegistryTest, SerializeRoundTrip) {
  GuidRegistry registry;
  ASSERT_TRUE(registry.Register(7, "memcached", "items.c:100", "store").ok());
  ASSERT_TRUE(registry.Register(8, "memcached", "assoc.c:55", "load").ok());
  auto parsed = GuidRegistry::Parse(registry.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->Lookup(7)->location, "items.c:100");
}

TEST(GuidRegistryTest, ParseRejectsGarbage) {
  EXPECT_FALSE(GuidRegistry::Parse("not a metadata line").ok());
}

TEST(TracerTest, RecordsAndQueriesByGuid) {
  Tracer tracer;
  tracer.Record(1, 100);
  tracer.Record(2, 200);
  tracer.Record(1, 300);
  auto addrs = tracer.AddressesForGuid(1);
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], 100u);
  EXPECT_EQ(addrs[1], 300u);
  EXPECT_TRUE(tracer.AddressesForGuid(99).empty());
}

TEST(TracerTest, DeduplicatesRepeatedPairs) {
  Tracer tracer;
  for (int i = 0; i < 10; i++) {
    tracer.Record(1, 100);
  }
  EXPECT_EQ(tracer.AddressesForGuid(1).size(), 1u);
  EXPECT_EQ(tracer.stats().records, 10u);  // raw events still counted
}

TEST(TracerTest, RangeQuery) {
  Tracer tracer;
  tracer.Record(1, 100);
  tracer.Record(2, 150);
  tracer.Record(3, 400);
  auto guids = tracer.GuidsForRange(100, 100);  // [100, 200)
  ASSERT_EQ(guids.size(), 2u);
  EXPECT_TRUE(tracer.GuidsForRange(500, 10).empty());
}

TEST(TracerTest, BufferFlushesAutomatically) {
  Tracer tracer(/*buffer_capacity=*/4);
  for (int i = 0; i < 10; i++) {
    tracer.Record(1, 100 + i);
  }
  EXPECT_GE(tracer.stats().buffer_flushes, 2u);
  EXPECT_EQ(tracer.Events().size(), 10u);
}

// Regression: Events() used to hand out a reference into the archive, which
// a later Record()-triggered buffer flush would reallocate mid-iteration.
// It now returns a snapshot that stays valid across further traffic.
TEST(TracerTest, EventsSnapshotSurvivesFlushDuringIteration) {
  Tracer tracer(/*buffer_capacity=*/4);
  for (int i = 0; i < 6; i++) {
    tracer.Record(1, 100 + i);
  }
  std::vector<TraceEvent> snapshot = tracer.Events();
  ASSERT_EQ(snapshot.size(), 6u);
  // Iterate the snapshot while recording enough to flush the buffer (and
  // grow the archive) several times over.
  for (size_t i = 0; i < snapshot.size(); i++) {
    tracer.Record(2, 1000 + i * 10);
    tracer.Record(2, 1001 + i * 10);
    EXPECT_EQ(snapshot[i].guid, 1u);
    EXPECT_EQ(snapshot[i].address, 100 + i);
  }
  tracer.Flush();
  EXPECT_EQ(tracer.Events().size(), 18u);
  // The old snapshot still reflects the moment it was taken.
  EXPECT_EQ(snapshot.size(), 6u);
  EXPECT_EQ(snapshot.back().address, 105u);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.Record(1, 100);
  EXPECT_TRUE(tracer.Events().empty());
  tracer.set_enabled(true);
  tracer.Record(1, 100);
  EXPECT_EQ(tracer.Events().size(), 1u);
}

TEST(TracerTest, ClearResetsDerivedState) {
  Tracer tracer;
  tracer.Record(7, 123);
  tracer.Record(8, 456);
  ASSERT_EQ(tracer.AddressesForGuid(7).size(), 1u);  // builds the index
  ASSERT_GT(tracer.stats().records, 0u);

  tracer.Clear();
  // The lazy indexes must not serve pre-Clear results.
  EXPECT_TRUE(tracer.AddressesForGuid(7).empty());
  EXPECT_TRUE(tracer.GuidsForRange(0, 1 << 20).empty());
  EXPECT_TRUE(tracer.Events().empty());
  // Stats restart from zero.
  EXPECT_EQ(tracer.stats().records, 0u);
  EXPECT_EQ(tracer.stats().buffer_flushes, 0u);

  tracer.Record(7, 789);
  ASSERT_EQ(tracer.AddressesForGuid(7).size(), 1u);
  EXPECT_EQ(tracer.AddressesForGuid(7)[0], 789u);
}

TEST(TracerTest, SerializeRoundTrip) {
  Tracer tracer;
  tracer.Record(5, 123);
  tracer.Record(6, 456);
  Tracer other;
  ASSERT_TRUE(other.ParseAppend(tracer.Serialize()).ok());
  EXPECT_EQ(other.Events().size(), 2u);
  EXPECT_EQ(other.AddressesForGuid(5)[0], 123u);
}

TEST(TracerTest, SerializeWritesOneDecimalLinePerEvent) {
  Tracer tracer;
  tracer.Record(5, 123);
  tracer.Record(~Guid{0}, ~PmOffset{0} - 1);
  const std::string text = tracer.Serialize();
  EXPECT_EQ(text,
            "5\t123\n18446744073709551615\t18446744073709551614\n");
  Tracer other;
  ASSERT_TRUE(other.ParseAppend(text + "\n").ok());  // blank lines skip
  const std::vector<TraceEvent> events = other.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].guid, ~Guid{0});
  EXPECT_EQ(events[1].address, ~PmOffset{0} - 1);
}

// The archive keeps each pair once, yet every query, the first-record
// order and a trace-file round trip answer as the full archive did.
TEST(TracerTest, DistinctArchiveAnswersAsFullArchive) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Tracer tracer(/*buffer_capacity=*/64);  // many folds per stream
    FullArchiveTracer reference;
    FeedStream(tracer, reference, threads, 6000, 11);
    ExpectSameAnswers(tracer, reference, /*check_index=*/true);
    // Mid-stream Clear(): pairs seen before it must be archived again.
    tracer.Clear();
    reference.Clear();
    FeedStream(tracer, reference, threads, 6000, 11);
    FeedStream(tracer, reference, threads, 6000, 23);
    ExpectSameAnswers(tracer, reference, /*check_index=*/true);

    Tracer copy;
    ASSERT_TRUE(copy.ParseAppend(tracer.Serialize()).ok());
    ExpectSameAnswers(copy, reference, /*check_index=*/false);
    // A trace file written with one line per record parses to the same.
    Tracer from_full;
    ASSERT_TRUE(from_full.ParseAppend(reference.Serialize()).ok());
    ExpectSameAnswers(from_full, reference, /*check_index=*/false);
  }
}

// A pair folded first from another thread's later record still lists at
// its first record, ahead of pairs recorded after that.
TEST(TracerTest, CrossThreadFoldKeepsFirstRecordOrder) {
  Tracer tracer(/*buffer_capacity=*/2);
  std::thread([&] { tracer.Record(1, 64); }).join();  // stays buffered
  std::thread([&] {
    tracer.Record(2, 128);
    tracer.Record(1, 64);  // fills this thread's buffer: folded first
  }).join();
  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].guid, 1u);
  EXPECT_EQ(events[0].index, 0u);
  EXPECT_EQ(events[1].guid, 2u);
  EXPECT_EQ(events[1].index, 1u);
}

// Memory follows distinct pairs, not records.
TEST(TracerTest, ArchiveHoldsEachPairOnce) {
  Tracer tracer;
  for (uint64_t i = 0; i < 1000000; i++) {
    tracer.Record(1 + i % 10, (i / 10 % 10) * 64);
  }
  EXPECT_EQ(tracer.EventCount(), 100u);
  EXPECT_EQ(tracer.stats().records, 1000000u);
}

TEST(TracerTest, ParseAppendRejectsMalformedFieldsAsCorruption) {
  for (const char* line :
       {"x\t1", "1\tx", "5\t", "\t5", "5 6", "5\t12abc", "-1\t5",
        "99999999999999999999999\t1", "1\t18446744073709551616"}) {
    Tracer tracer;
    const Status status =
        tracer.ParseAppend("7\t8\n" + std::string(line) + "\n9\t10\n");
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << line;
    // Lines before the bad one were recorded; nothing after it was.
    EXPECT_EQ(tracer.EventCount(), 1u) << line;
  }
}

}  // namespace
}  // namespace arthas
