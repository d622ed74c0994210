// The benchmark's own arithmetic, kept free of sockets and servers so the
// unit tests can pin it down: exact quantiles over raw samples, the
// ten-samples-beyond rule for reporting a percentile, per-task CPU time from
// /proc, backlog and rate from reply arrival times, and span self time.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile computed exactly from raw samples (nearest rank: the value at
// sorted index ceil(q * n) - 1). `beyond` is how many samples lie above that
// rank; a percentile is reportable only when at least kMinBeyond do.
struct Quantile {
  double value = 0;
  uint64_t count = 0;
  uint64_t beyond = 0;
  bool supported() const { return count > 0 && beyond >= kMinBeyond; }

  static constexpr uint64_t kMinBeyond = 10;
};

// Reorders `samples` (nth_element) and returns the q-quantile, 0 < q < 1.
Quantile ExactQuantile(std::vector<int64_t>& samples, double q);

// One open-loop request: when it was due, and how long after that its reply
// arrived.
struct Sample {
  int64_t scheduled_ns = 0;
  int64_t latency_ns = 0;
};

// Median of a small set of doubles (mean of the two middle values when the
// count is even); 0 for an empty set.
double Median(std::vector<double> values);

// utime + stime, in clock ticks, from one /proc/<pid>/task/<tid>/stat line.
// The command name may itself contain spaces and parentheses, so fields are
// counted from the last ')'.
std::optional<uint64_t> ParseStatCpuTicks(std::string_view line);

// tid -> utime + stime ticks for a set of tasks of this process. Tasks that
// have exited are absent.
using TaskCpu = std::map<int, uint64_t>;
TaskCpu ReadTaskCpu(const std::vector<int>& tids);

// CPU ticks the tasks spent between two readings. A task missing from
// `before` (started in between) counts from zero; a task missing from
// `after` (exited) contributes nothing, since its last ticks are unknown.
uint64_t CpuTicksBetween(const TaskCpu& before, const TaskCpu& after);

// Thread ids of this process, ascending, and the ones in `after` that are
// not in `before` (the threads something started in between).
std::vector<int> ListTasks();
std::vector<int> NewTasks(const std::vector<int>& before,
                          const std::vector<int>& after);

// Reply arrivals of one phase. The backlog is the time from the end of the
// send window to the last reply. The rate counts OK replies from the
// `warm`-th one to the last, so neither a ramp-up nor replies that arrive
// after the last OK one inflate it.
class ReplyTimes {
 public:
  ReplyTimes(int64_t send_end_ns, uint64_t warm)
      : send_end_ns_(send_end_ns), warm_(warm) {}

  void OnReply(int64_t recv_ns, bool ok);

  int64_t backlog_ns() const {
    return last_reply_ns_ > send_end_ns_ ? last_reply_ns_ - send_end_ns_ : 0;
  }
  double ok_per_s() const;

 private:
  int64_t send_end_ns_;
  uint64_t warm_;
  uint64_t ok_ = 0;
  int64_t warm_ns_ = 0;  // when the warm-th OK reply came
  int64_t last_ok_ns_ = 0;
  int64_t last_reply_ns_ = 0;
};

// A span's duration minus the part of it that its children cover. Children
// may overlap each other or stick out of the parent; each instant of the
// parent is subtracted at most once.
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
