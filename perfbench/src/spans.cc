#include "spans.h"

#include "common/clock.h"
#include "stats.h"

namespace perfbench {

int SpanLog::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, arthas::NowNanos(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  if (id < 0) {
    return;
  }
  const int64_t now = arthas::NowNanos();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
  open_.pop_back();
}

std::map<std::string, SpanLog::Total> SpanLog::Summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, Total> totals;
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& span = spans_[i];
    Total& total = totals[span.name];
    total.count++;
    total.total_ns += span.end_ns - span.start_ns;
    total.self_ns += SelfTimeNs(span.start_ns, span.end_ns, children[i]);
  }
  return totals;
}

std::vector<SpanLog::Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

}  // namespace perfbench
