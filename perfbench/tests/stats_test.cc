// Tests for the benchmark's own arithmetic (src/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<int64_t> OneTo(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(ExactQuantileTest, NearestRankOnRawSamples) {
  std::vector<int64_t> samples = {50, 10, 40, 20, 30};
  EXPECT_EQ(ExactQuantile(samples, 0.5).value, 30);
  EXPECT_EQ(ExactQuantile(samples, 0.2).value, 10);
  EXPECT_EQ(ExactQuantile(samples, 0.21).value, 20);
  EXPECT_EQ(ExactQuantile(samples, 0.99).value, 50);

  std::vector<int64_t> big = OneTo(1000);
  const Quantile p99 = ExactQuantile(big, 0.99);
  EXPECT_EQ(p99.value, 990);  // exact, where a bucketed histogram is not
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
}

TEST(ExactQuantileTest, TenBeyondRule) {
  std::vector<int64_t> samples = OneTo(1000);
  EXPECT_TRUE(ExactQuantile(samples, 0.99).supported());    // 10 beyond
  EXPECT_FALSE(ExactQuantile(samples, 0.999).supported());  // 1 beyond
  std::vector<int64_t> more = OneTo(10000);
  const Quantile p999 = ExactQuantile(more, 0.999);
  EXPECT_EQ(p999.beyond, 10u);
  EXPECT_TRUE(p999.supported());
  std::vector<int64_t> none;
  EXPECT_FALSE(ExactQuantile(none, 0.5).supported());
  EXPECT_EQ(ExactQuantile(none, 0.5).count, 0u);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(TaskCpuTest, ParsesUtimePlusStimeAfterTheCommandName) {
  // Fields 14 and 15 are utime and stime; the command name holds spaces
  // and a ')' of its own.
  const char* line =
      "4242 (loop) thread) S 1 4242 4242 0 -1 4194368 100 0 0 0 "
      "1234 56 0 0 20 0 3 0 999 1000 10";
  EXPECT_EQ(ParseStatCpuTicks(line), std::optional<uint64_t>(1290));
  EXPECT_FALSE(ParseStatCpuTicks("4242 (x) S 1 2").has_value());
  EXPECT_FALSE(ParseStatCpuTicks("no parenthesis").has_value());
}

TEST(TaskCpuTest, DeltaCountsNewTasksFromZeroAndSkipsExitedOnes) {
  const TaskCpu before = {{10, 100}, {11, 50}, {12, 7}};
  const TaskCpu after = {{10, 130}, {11, 50}, {13, 5}};
  // 10: +30, 11: +0, 12 exited: nothing, 13 new: +5.
  EXPECT_EQ(CpuTicksBetween(before, after), 35u);
}

TEST(TaskCpuTest, ReadsThisThread) {
  const std::vector<int> tids = ListTasks();
  ASSERT_FALSE(tids.empty());
  EXPECT_TRUE(std::is_sorted(tids.begin(), tids.end()));
  EXPECT_EQ(ReadTaskCpu(tids).size(), tids.size());
  EXPECT_EQ(NewTasks({1, 3, 5}, {1, 2, 3, 4, 5}), (std::vector<int>{2, 4}));
}

TEST(ReplyTimesTest, BacklogIsTheDrainAfterTheSendWindow) {
  ReplyTimes times(/*send_end_ns=*/2000, /*warm=*/0);
  times.OnReply(1500, true);
  times.OnReply(1999, false);
  EXPECT_EQ(times.backlog_ns(), 0);  // everything arrived inside
  times.OnReply(2600, false);        // an error reply still drains
  EXPECT_EQ(times.backlog_ns(), 600);
}

TEST(ReplyTimesTest, RateCountsOkRepliesAfterTheWarmUp) {
  ReplyTimes times(INT64_MAX, /*warm=*/2);
  times.OnReply(100, true);
  times.OnReply(1000, true);  // the 2nd OK reply opens the window
  times.OnReply(1500, false);
  times.OnReply(2000, true);
  times.OnReply(3000, true);
  times.OnReply(9000, false);  // after the last OK reply: not counted
  // Two OK replies in the 2000 ns from the warm-up mark to the last one.
  EXPECT_DOUBLE_EQ(times.ok_per_s(), 2 * 1e9 / 2000);
  EXPECT_EQ(times.backlog_ns(), 0);
  EXPECT_EQ(ReplyTimes(0, 5).ok_per_s(), 0);  // no replies yet
}

TEST(SelfTimeTest, SpanMinusChildren) {
  EXPECT_EQ(SelfTimeNs(0, 100, {}), 100);
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {50, 80}}), 60);
  // Overlapping children are subtracted once.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 40}, {30, 60}}), 50);
  // Children sticking out of the parent are clipped to it.
  EXPECT_EQ(SelfTimeNs(100, 200, {{50, 120}, {190, 260}}), 70);
  // Unsorted input; a child nested in another.
  EXPECT_EQ(SelfTimeNs(0, 100, {{60, 70}, {20, 90}, {30, 40}}), 30);
}

}  // namespace
}  // namespace perfbench
