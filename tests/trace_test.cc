// Tests for the GUID registry and the runtime PM-address tracer.

#include <gtest/gtest.h>

#include "trace/guid_registry.h"
#include "trace/tracer.h"

namespace arthas {
namespace {

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
