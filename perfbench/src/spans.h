// In-memory spans recorded from the benchmark's side of each layer call.
//
// A span is a name, a start, an end and the span open around it when it
// began. Spans stay in memory until the run ends; Summary() folds them into
// per-name totals and self times, and the caller writes those out.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  struct Total {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;  // total minus the time child spans cover
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  // Spans nest per log: a span begun while another is open is its child.
  // Only one thread records at a time (the client thread, or a server loop
  // thread running the fault hook while the client waits).
  int Begin(const char* name);
  void End(int id);

  std::map<std::string, Total> Summary() const;
  std::vector<Span> Snapshot() const;

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), id_(log.Begin(name)) {}
    ~Scope() { log_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
