// The load client: one thread, a few nonblocking connections, one epoll set.
//
// It records every request's scheduled, sent and replied times itself (the
// library's open-loop generator keeps only a bucketed histogram and counts
// drain-window replies as throughput), and checks every reply against the
// Traffic model.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "stats.h"
#include "traffic.h"

namespace perfbench {

int64_t NowNs();

struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t faults = 0;
  uint64_t dropped = 0;
  uint64_t mismatches = 0;  // replies that disagree with the model
  // Open loop only, one per request: scheduled time and reply time minus
  // scheduled time; write() time minus scheduled time.
  std::vector<Sample> samples;
  std::vector<int64_t> send_lag_ns;
  uint64_t writes = 0;  // write() calls that carried requests
  int64_t wait_ns = 0;  // blocked in epoll_wait
  int64_t wall_ns = 0;
  // Share of the phase the client thread spent working rather than waiting
  // for the server. Near 1 under saturation means the client, not the
  // server, set the pace.
  double busy_frac() const {
    return wall_ns > 0 ? 1.0 - static_cast<double>(wait_ns) /
                                   static_cast<double>(wall_ns)
                       : 0;
  }
  // Open loop: the time from the end of the send window to the last reply.
  int64_t backlog_ns = 0;
  // Saturation: OK replies per second, from the end of the warm-up to the
  // last OK reply.
  double ok_per_s = 0;

  uint64_t failed() const { return errors + faults + dropped; }
};

class LoadClient {
 public:
  LoadClient() = default;
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  bool Connect(uint16_t port, int connections);

  // Open loop: Poisson arrivals at `rate` per second, round-robin over the
  // connections, for `duration_ns` or until `max_requests` are sent,
  // whichever comes first; then waits for the replies.
  PhaseStats OpenLoop(Traffic& traffic, double rate, int64_t duration_ns,
                      uint64_t max_requests, uint64_t arrival_seed);

  // Keeps `depth` requests outstanding on every connection until
  // `requests` are sent; throughput counts from the `warm`-th OK reply.
  PhaseStats Saturate(Traffic& traffic, int depth, uint64_t requests,
                      uint64_t warm);

  // SETs every key to its initial value / GETs every key and compares it
  // with the model.
  PhaseStats Preload(Traffic& traffic);
  PhaseStats Verify(const Traffic& traffic);

 private:
  struct Conn {
    int fd = -1;
    arthas::net::ReplyParser parser;
    std::deque<Pending> pending;
    std::string out;
    size_t out_sent = 0;
    bool want_write = false;
  };
  // Produces connection `conn`'s next request; false when it has none.
  using Source = std::function<bool(int conn, std::string* out, Pending*)>;

  // The request for one key, appended to `out`.
  using KeyRequest = std::function<Pending(uint64_t key, std::string* out)>;

  // Keeps up to `depth` requests in flight per connection until `source`
  // runs dry, then drains.
  PhaseStats Windowed(int depth, const Source& source);
  // One request per key, each on the connection that owns the key.
  PhaseStats EveryKey(uint64_t keys, const KeyRequest& emit);
  bool Flush(Conn& conn, PhaseStats& stats);
  // Reads every available reply and checks it against its request.
  void ReadReplies(Conn& conn, int64_t now, PhaseStats& stats);
  // Waits up to `deadline_ns` for all replies; the rest count as dropped.
  void Drain(int64_t deadline_ns, PhaseStats& stats);
  // One epoll wait; returns the number of ready connections.
  int Poll(int timeout_ms, PhaseStats& stats);
  uint64_t InFlight() const;

  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<arthas::net::NetReply> replies_;
  std::vector<char> read_buf_ = std::vector<char>(64 * 1024);
  uint64_t next_seq_ = 0;  // request number, across phases
  ReplyTimes replies_seen_{0, 0};  // of the current phase
  bool recording_ = false;  // open loop: keep per-request latencies
};

// Blocking connection for the fault trigger: send a batch, read n replies.
class ControlConn {
 public:
  ControlConn() = default;
  ~ControlConn();
  ControlConn(const ControlConn&) = delete;
  ControlConn& operator=(const ControlConn&) = delete;

  bool Connect(uint16_t port);
  bool Send(const std::string& bytes);
  std::vector<arthas::net::NetReply> Read(size_t count, int64_t timeout_ms);

 private:
  int fd_ = -1;
  arthas::net::ReplyParser parser_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
