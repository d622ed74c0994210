#include "stats.h"

#include <dirent.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

Quantile ExactQuantile(std::vector<int64_t>& samples, double q) {
  Quantile out;
  out.count = samples.size();
  if (samples.empty()) {
    return out;
  }
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  out.value = static_cast<double>(*nth);
  out.beyond = samples.size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::optional<uint64_t> ParseStatCpuTicks(std::string_view line) {
  const size_t paren = line.rfind(')');
  if (paren == std::string_view::npos) {
    return std::nullopt;
  }
  // After "pid (comm)" come: state(3) ppid(4) ... utime(14) stime(15).
  std::istringstream in{std::string(line.substr(paren + 1))};
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int index = 3; index <= 15; index++) {
    if (!(in >> field)) {
      return std::nullopt;
    }
    if (index == 14 || index == 15) {
      char* end = nullptr;
      const unsigned long long value = std::strtoull(field.c_str(), &end, 10);
      if (end == field.c_str() || *end != '\0') {
        return std::nullopt;
      }
      (index == 14 ? utime : stime) = value;
    }
  }
  return utime + stime;
}

TaskCpu ReadTaskCpu(const std::vector<int>& tids) {
  TaskCpu out;
  for (const int tid : tids) {
    std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
    std::string line;
    if (!std::getline(in, line)) {
      continue;
    }
    if (const auto ticks = ParseStatCpuTicks(line)) {
      out[tid] = *ticks;
    }
  }
  return out;
}

uint64_t CpuTicksBetween(const TaskCpu& before, const TaskCpu& after) {
  uint64_t total = 0;
  for (const auto& [tid, ticks] : after) {
    const auto it = before.find(tid);
    const uint64_t start = it == before.end() ? 0 : it->second;
    total += ticks >= start ? ticks - start : 0;
  }
  return total;
}

std::vector<int> ListTasks() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return tids;
  }
  while (const dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) {
      tids.push_back(tid);
    }
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<int> NewTasks(const std::vector<int>& before,
                          const std::vector<int>& after) {
  std::vector<int> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(fresh));
  return fresh;
}

void ReplyTimes::OnReply(int64_t recv_ns, bool ok) {
  last_reply_ns_ = std::max(last_reply_ns_, recv_ns);
  if (!ok) {
    return;
  }
  if (++ok_ == warm_) {
    warm_ns_ = recv_ns;
  }
  last_ok_ns_ = recv_ns;
}

double ReplyTimes::ok_per_s() const {
  if (ok_ <= warm_ || last_ok_ns_ <= warm_ns_) {
    return 0;
  }
  return static_cast<double>(ok_ - warm_) * 1e9 /
         static_cast<double>(last_ok_ns_ - warm_ns_);
}

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start_ns;  // everything before this is already counted
  for (auto [lo, hi] : children) {
    lo = std::max(lo, cursor);
    hi = std::min(hi, end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return (end_ns - start_ns) - covered;
}

}  // namespace perfbench
