#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <random>

#include "common/clock.h"

namespace perfbench {

using arthas::net::NetReply;

namespace {

constexpr int64_t kMs = 1'000'000;
// How long a phase waits for its last replies before counting them dropped:
// long enough for a slow host to work off a backlog, short enough that a
// stuck server still fails the run well inside its time limit.
constexpr int64_t kDrainNs = 10'000 * kMs;

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int64_t NowNs() { return arthas::NowNanos(); }

LoadClient::~LoadClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) {
      ::close(conn.fd);
    }
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

bool LoadClient::Connect(uint16_t port, int connections) {
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    return false;
  }
  conns_.resize(static_cast<size_t>(connections));
  for (size_t i = 0; i < conns_.size(); i++) {
    Conn& conn = conns_[i];
    conn.fd = ConnectLoopback(port);
    if (conn.fd < 0) {
      return false;
    }
    const int flags = fcntl(conn.fd, F_GETFL, 0);
    if (flags < 0 || fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) < 0) {
      return false;
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u32 = static_cast<uint32_t>(i);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &event) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t LoadClient::InFlight() const {
  uint64_t n = 0;
  for (const Conn& conn : conns_) {
    n += conn.pending.size();
  }
  return n;
}

bool LoadClient::Flush(Conn& conn, PhaseStats& stats) {
  if (conn.fd < 0 || conn.out_sent == conn.out.size()) {
    return conn.fd >= 0;
  }
  stats.writes++;
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_sent,
                              conn.out.size() - conn.out_sent);
    if (n > 0) {
      conn.out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.u32 = static_cast<uint32_t>(&conn - conns_.data());
        (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
      }
      return true;
    }
    ::close(conn.fd);  // its pending requests become drops in Drain()
    conn.fd = -1;
    return false;
  }
  conn.out.clear();
  conn.out_sent = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u32 = static_cast<uint32_t>(&conn - conns_.data());
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
  }
  return true;
}

void LoadClient::ReadReplies(Conn& conn, int64_t now, PhaseStats& stats) {
  replies_.clear();
  while (conn.fd >= 0) {
    const ssize_t n = ::read(conn.fd, read_buf_.data(), read_buf_.size());
    if (n > 0) {
      conn.parser.Feed(read_buf_.data(), static_cast<size_t>(n), &replies_);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    ::close(conn.fd);  // peer closed or failed
    conn.fd = -1;
  }
  for (const NetReply& reply : replies_) {
    if (conn.pending.empty()) {
      stats.mismatches++;  // a reply nobody asked for
      continue;
    }
    const Pending pending = conn.pending.front();
    conn.pending.pop_front();
    switch (reply.kind) {
      case NetReply::Kind::kError:
        stats.errors++;
        break;
      case NetReply::Kind::kFault:
        stats.faults++;
        break;
      default:
        stats.ok++;
        break;
    }
    replies_seen_.OnReply(now, reply.ok());
    if (reply.ok()) {
      const bool matches =
          pending.kind == Pending::kRead
              ? reply.kind == NetReply::Kind::kBulk &&
                    HashBytes(reply.text) == pending.expect
              : reply.kind == NetReply::Kind::kSimple && reply.text == "OK";
      stats.mismatches += matches ? 0 : 1;
    }
    if (recording_) {
      stats.samples.push_back(
          {pending.scheduled_ns, now - pending.scheduled_ns});
    }
  }
}

int LoadClient::Poll(int timeout_ms, PhaseStats& stats) {
  epoll_event events[16];
  const int64_t wait_ns = NowNs();
  const int n = epoll_wait(epoll_fd_, events, 16, timeout_ms);
  const int64_t recv_ns = NowNs();
  stats.wait_ns += recv_ns - wait_ns;
  if (n <= 0) {
    return 0;
  }
  for (int i = 0; i < n; i++) {
    Conn& conn = conns_[events[i].data.u32];
    if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
      ReadReplies(conn, recv_ns, stats);
    }
    if (events[i].events & EPOLLOUT) {
      Flush(conn, stats);
    }
  }
  return n;
}

void LoadClient::Drain(int64_t deadline_ns, PhaseStats& stats) {
  while (InFlight() > 0 && NowNs() < deadline_ns) {
    bool open = false;
    for (const Conn& conn : conns_) {
      open |= conn.fd >= 0 && !conn.pending.empty();
    }
    if (!open) {
      break;
    }
    Poll(5, stats);
  }
  for (Conn& conn : conns_) {
    stats.dropped += conn.pending.size();
    conn.pending.clear();
  }
}

PhaseStats LoadClient::OpenLoop(Traffic& traffic, double rate,
                                int64_t duration_ns, uint64_t max_requests,
                                uint64_t arrival_seed) {
  PhaseStats stats;
  const uint64_t expected = std::min<uint64_t>(
      max_requests,
      static_cast<uint64_t>(rate * static_cast<double>(duration_ns) / 1e9 *
                            1.1) +
          1024);
  stats.samples.reserve(expected);
  stats.send_lag_ns.reserve(expected);
  std::mt19937_64 rng(arrival_seed);
  std::exponential_distribution<double> gap_ns(rate / 1e9);

  const int64_t t0 = NowNs();
  const int64_t end_ns = t0 + duration_ns;
  replies_seen_ = ReplyTimes(end_ns, 0);
  recording_ = true;
  double next_ns = static_cast<double>(t0) + gap_ns(rng);
  size_t round_robin = 0;
  std::vector<int64_t> batch;  // scheduled times sent in this iteration
  std::vector<char> dirty(conns_.size(), 0);
  while (true) {
    const int64_t iter_ns = NowNs();
    bool sending = stats.sent < max_requests && next_ns < end_ns;
    batch.clear();
    while (sending && next_ns <= static_cast<double>(iter_ns)) {
      const size_t c = round_robin++ % conns_.size();
      Conn& conn = conns_[c];
      Pending pending =
          traffic.Emit(next_seq_++, static_cast<int>(c), &conn.out);
      pending.scheduled_ns = static_cast<int64_t>(next_ns);
      conn.pending.push_back(pending);
      batch.push_back(pending.scheduled_ns);
      dirty[c] = 1;
      stats.sent++;
      next_ns += gap_ns(rng);
      sending = stats.sent < max_requests && next_ns < end_ns;
    }
    if (!batch.empty()) {
      for (size_t c = 0; c < conns_.size(); c++) {
        if (dirty[c]) {
          Flush(conns_[c], stats);
          dirty[c] = 0;
        }
      }
      const int64_t sent_ns = NowNs();
      for (const int64_t scheduled : batch) {
        stats.send_lag_ns.push_back(sent_ns - scheduled);
      }
    }
    if (!sending) {
      break;
    }
    // Sleep in epoll only when the next arrival is over a millisecond away;
    // closer arrivals are met by polling without a timeout.
    const double wait_ns = next_ns - static_cast<double>(NowNs());
    const int timeout_ms =
        wait_ns > 2.0 * kMs ? static_cast<int>(wait_ns / kMs) - 1 : 0;
    Poll(timeout_ms, stats);
  }
  Drain(NowNs() + kDrainNs, stats);
  recording_ = false;
  stats.wall_ns = NowNs() - t0;
  stats.backlog_ns = replies_seen_.backlog_ns();
  return stats;
}

PhaseStats LoadClient::Windowed(int depth, const Source& source) {
  PhaseStats stats;
  const int64_t t0 = NowNs();
  std::vector<char> dry(conns_.size(), 0);
  while (true) {
    bool all_dry = true;
    for (size_t c = 0; c < conns_.size(); c++) {
      Conn& conn = conns_[c];
      if (conn.fd < 0 || dry[c]) {
        continue;
      }
      all_dry = false;
      bool queued = false;
      while (conn.pending.size() < static_cast<size_t>(depth)) {
        Pending pending;
        if (!source(static_cast<int>(c), &conn.out, &pending)) {
          dry[c] = 1;
          break;
        }
        conn.pending.push_back(pending);
        stats.sent++;
        queued = true;
      }
      if (queued) {
        Flush(conn, stats);
      }
    }
    if (all_dry) {
      break;
    }
    Poll(1, stats);
  }
  Drain(NowNs() + kDrainNs, stats);
  stats.wall_ns = NowNs() - t0;
  return stats;
}

PhaseStats LoadClient::Saturate(Traffic& traffic, int depth,
                                uint64_t requests, uint64_t warm) {
  replies_seen_ = ReplyTimes(INT64_MAX, warm);
  uint64_t sent = 0;
  PhaseStats stats =
      Windowed(depth, [&](int conn, std::string* out, Pending* pending) {
        if (sent == requests) {
          return false;
        }
        sent++;
        *pending = traffic.Emit(next_seq_++, conn, out);
        return true;
      });
  stats.ok_per_s = replies_seen_.ok_per_s();
  return stats;
}

PhaseStats LoadClient::EveryKey(uint64_t keys, const KeyRequest& emit) {
  std::vector<uint64_t> next_key(conns_.size());
  for (size_t c = 0; c < conns_.size(); c++) {
    next_key[c] = c;
  }
  return Windowed(128,
                  [&](int conn, std::string* out, Pending* pending) {
                    uint64_t& key = next_key[static_cast<size_t>(conn)];
                    if (key >= keys) {
                      return false;
                    }
                    *pending = emit(key, out);
                    key += conns_.size();
                    return true;
                  });
}

PhaseStats LoadClient::Preload(Traffic& traffic) {
  return EveryKey(traffic.keys(), [&](uint64_t key, std::string* out) {
    return traffic.EmitPreload(key, out);
  });
}

PhaseStats LoadClient::Verify(const Traffic& traffic) {
  return EveryKey(traffic.keys(), [&](uint64_t key, std::string* out) {
    return traffic.EmitCheck(key, out);
  });
}

ControlConn::~ControlConn() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

bool ControlConn::Connect(uint16_t port) {
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

bool ControlConn::Send(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::vector<NetReply> ControlConn::Read(size_t count, int64_t timeout_ms) {
  std::vector<NetReply> replies;
  const int64_t deadline = NowNs() + timeout_ms * kMs;
  char buf[16 * 1024];
  while (replies.size() < count && NowNs() < deadline) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10) <= 0) {
      continue;
    }
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    parser_.Feed(buf, static_cast<size_t>(n), &replies);
  }
  return replies;
}

}  // namespace perfbench
