#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <span>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/obs.h"
#include "obs/reqtrace.h"
#include "obs/resource/resource_accountant.h"

namespace arthas {
namespace net {

namespace {

Status SetNonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Internal(std::string("fcntl O_NONBLOCK: ") + std::strerror(errno));
  }
  return OkStatus();
}

constexpr size_t kReadChunk = 64 * 1024;
// Compact a partially-written output buffer once the dead prefix crosses
// this, so a slow reader cannot make the buffer grow without bound.
constexpr size_t kOutbufCompactBytes = 256 * 1024;

}  // namespace

NetServer::NetServer(NetDispatcher& dispatcher, NetServerOptions options)
    : dispatcher_(dispatcher), options_(std::move(options)) {
  if (options_.loop_threads < 1) {
    options_.loop_threads = 1;
  }
  if (options_.max_batch_commands < 1) {
    options_.max_batch_commands = 1;
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running()) {
    return FailedPrecondition("server already running");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return InvalidArgument("bad listen address '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status =
        Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 1024) != 0) {
    const Status status =
        Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  ARTHAS_RETURN_IF_ERROR(SetNonblocking(listen_fd_));

  // Build every loop before starting any thread, so a poller/pipe failure
  // rolls back cleanly.
  for (int i = 0; i < options_.loop_threads; i++) {
    auto loop = std::make_unique<Loop>();
    loop->poller = Poller::Make(options_.backend);
    if (loop->poller == nullptr) {
      Stop();
      return Internal("poller backend unavailable");
    }
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      Stop();
      return Internal(std::string("pipe: ") + std::strerror(errno));
    }
    loop->wakeup_read_fd = pipe_fds[0];
    loop->wakeup_write_fd = pipe_fds[1];
    (void)SetNonblocking(loop->wakeup_read_fd);
    (void)SetNonblocking(loop->wakeup_write_fd);
    ARTHAS_RETURN_IF_ERROR(loop->poller->Add(loop->wakeup_read_fd, false));
    loops_.push_back(std::move(loop));
  }
  // Loop 0 owns the listener.
  ARTHAS_RETURN_IF_ERROR(loops_[0]->poller->Add(listen_fd_, false));

  // Backpressure gauges for the sampler's timeline (probe-only: a probe's
  // series must not collide with a registry gauge of the same name, since
  // the sampler scrapes registry gauges too).
  outbuf_probe_ = ARTHAS_TELEMETRY_PROBE(
      "net.conn.outbuf_bytes", obs::ProbeKind::kGauge, [this]() {
        int64_t total = 0;
        for (const auto& loop : loops_) {
          total += loop->outbuf_bytes.load(std::memory_order_relaxed);
        }
        return static_cast<double>(total);
      });
  queue_probe_ = ARTHAS_TELEMETRY_PROBE(
      "net.loop.queue_depth", obs::ProbeKind::kGauge, [this]() {
        int64_t total = 0;
        for (const auto& loop : loops_) {
          total += loop->queue_depth.load(std::memory_order_relaxed);
        }
        return static_cast<double>(total);
      });

  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < loops_.size(); i++) {
    Loop* loop = loops_[i].get();
    const bool owns_listener = i == 0;
    loop->thread =
        std::thread([this, loop, owns_listener] { RunLoop(*loop, owns_listener); });
  }
  return OkStatus();
}

void NetServer::Stop() {
  running_.store(false, std::memory_order_release);
  // The probe lambdas walk loops_; detach them before any teardown.
  if (outbuf_probe_ != obs::kNoProbe) {
    ARTHAS_TELEMETRY_UNPROBE(outbuf_probe_);
    outbuf_probe_ = obs::kNoProbe;
  }
  if (queue_probe_ != obs::kNoProbe) {
    ARTHAS_TELEMETRY_UNPROBE(queue_probe_);
    queue_probe_ = obs::kNoProbe;
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      Wake(*loop);
      loop->thread.join();
    }
  }
  for (auto& loop : loops_) {
    for (auto& [fd, conn] : loop->connections) {
      // Connections torn down wholesale bypass CloseConnection: unwind
      // their accounted outbuf bytes here so the cell returns to baseline.
      ARTHAS_RESOURCE_ADD("net.outbuf.bytes", "bytes",
                          -static_cast<int64_t>(conn->outbuf_accounted));
      ::close(fd);
    }
    loop->connections.clear();
    for (const int fd : loop->mailbox) {
      ::close(fd);
    }
    loop->mailbox.clear();
    if (loop->wakeup_read_fd >= 0) {
      ::close(loop->wakeup_read_fd);
      ::close(loop->wakeup_write_fd);
    }
  }
  loops_.clear();
  connections_open_.store(0, std::memory_order_relaxed);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void NetServer::Wake(Loop& loop) {
  const char byte = 1;
  // EAGAIN means a wakeup is already pending — good enough.
  (void)!::write(loop.wakeup_write_fd, &byte, 1);
}

void NetServer::RunLoop(Loop& loop, bool owns_listener) {
  std::vector<PollerEvent> events;
  while (running_.load(std::memory_order_acquire)) {
    // The timeout is a liveness backstop only; all real work arrives as a
    // readiness event or a wakeup byte.
    (void)loop.poller->Wait(&events, 200);
    loop.queue_depth.store(static_cast<int64_t>(events.size()),
                           std::memory_order_relaxed);
    for (const PollerEvent& event : events) {
      if (event.fd == loop.wakeup_read_fd) {
        char drain[256];
        while (::read(loop.wakeup_read_fd, drain, sizeof(drain)) > 0) {
        }
        AdoptMailbox(loop);
        continue;
      }
      if (owns_listener && event.fd == listen_fd_) {
        AcceptReady(loop);
        continue;
      }
      auto it = loop.connections.find(event.fd);
      if (it == loop.connections.end()) {
        continue;  // already torn down earlier in this event sweep
      }
      Connection& conn = *it->second;
      if (event.readable) {
        if (!HandleReadable(loop, conn)) {
          continue;
        }
      }
      if (event.writable) {
        if (!FlushOutbuf(loop, conn)) {
          continue;
        }
      }
      if (event.closed && !event.readable) {
        // Hangup with nothing left to read: tear down. (When readable is
        // also set, HandleReadable consumed the final bytes and saw EOF.)
        CloseConnection(loop, event.fd);
      }
    }
  }
}

void NetServer::AcceptReady(Loop& listener_loop) {
  (void)listener_loop;
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EMFILE/ENFILE: out of descriptors; the backlog keeps the rest and
      // we retry on the next readiness event.
      break;
    }
    if (!SetNonblocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    Loop& target =
        *loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
                loops_.size()];
    {
      std::lock_guard<std::mutex> lock(target.mailbox_mutex);
      target.mailbox.push_back(fd);
    }
    Wake(target);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    ARTHAS_COUNTER_ADD("net.conn.accepted", 1);
  }
}

void NetServer::AdoptMailbox(Loop& loop) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(loop.mailbox_mutex);
    adopted.swap(loop.mailbox);
  }
  for (const int fd : adopted) {
    if (!loop.poller->Add(fd, false).ok()) {
      ::close(fd);
      continue;
    }
    loop.connections.emplace(
        fd, std::make_unique<Connection>(options_.max_line_bytes));
    loop.connections[fd]->fd = fd;
    connections_open_.fetch_add(1, std::memory_order_relaxed);
  }
  ARTHAS_GAUGE_SET("net.conn.open",
                   static_cast<int64_t>(
                       connections_open_.load(std::memory_order_relaxed)));
}

void NetServer::AccountOutbuf(Loop& loop, Connection& conn) {
  const size_t pending = conn.outbuf.size() - conn.outbuf_sent;
  if (pending != conn.outbuf_accounted) {
    const int64_t delta = static_cast<int64_t>(pending) -
                          static_cast<int64_t>(conn.outbuf_accounted);
    loop.outbuf_bytes.fetch_add(delta, std::memory_order_relaxed);
    // Capacity plane: process-wide pending-reply bytes across all loops
    // (delta-maintained; CloseConnection and Stop unwind).
    ARTHAS_RESOURCE_ADD("net.outbuf.bytes", "bytes", delta);
    conn.outbuf_accounted = pending;
  }
}

bool NetServer::HandleReadable(Loop& loop, Connection& conn) {
  const int64_t received_ns = ARTHAS_REQTRACE_NOW();
  std::vector<NetCommand> commands;
  char buf[kReadChunk];
  bool eof = false;
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.parser.Feed(buf, static_cast<size_t>(n), &commands);
      continue;
    }
    if (n == 0) {
      eof = true;  // peer closed; serve what completed, then tear down
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConnection(loop, conn.fd);
    return false;
  }

  // Nothing past a QUIT executes (the client said goodbye); the reply to
  // QUIT itself still goes out before the close.
  for (size_t i = 0; i < commands.size(); i++) {
    if (commands[i].op == NetOp::kQuit) {
      commands.resize(i + 1);
      conn.closing = true;
      break;
    }
  }

  // Execute the whole pipelined run in place, chunked so one read() can't
  // hold the request lock arbitrarily long.
  const std::span<const NetCommand> run(commands);
  for (size_t i = 0; i < run.size(); i += options_.max_batch_commands) {
    dispatcher_.ExecuteBatch(
        run.subspan(i, std::min(options_.max_batch_commands, run.size() - i)),
        &conn.outbuf, received_ns);
  }

  if (eof) {
    ARTHAS_REQTRACE_REPLY_FLUSHED();
    CloseConnection(loop, conn.fd);
    return false;
  }
  const bool alive = FlushOutbuf(loop, conn);
  // Replies (attempted) on the wire: finalize this read's request traces.
  ARTHAS_REQTRACE_REPLY_FLUSHED();
  return alive;
}

bool NetServer::FlushOutbuf(Loop& loop, Connection& conn) {
  while (conn.outbuf_sent < conn.outbuf.size()) {
    const ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.outbuf_sent,
                              conn.outbuf.size() - conn.outbuf_sent);
    if (n > 0) {
      conn.outbuf_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (conn.outbuf_sent >= kOutbufCompactBytes) {
        conn.outbuf.erase(0, conn.outbuf_sent);
        conn.outbuf_sent = 0;
      }
      if (!conn.want_write) {
        conn.want_write = true;
        (void)loop.poller->Update(conn.fd, true);
      }
      AccountOutbuf(loop, conn);
      return true;  // poll will tell us when the socket drains
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConnection(loop, conn.fd);
    return false;
  }
  conn.outbuf.clear();
  conn.outbuf_sent = 0;
  AccountOutbuf(loop, conn);
  if (conn.want_write) {
    conn.want_write = false;
    (void)loop.poller->Update(conn.fd, false);
  }
  if (conn.closing) {
    CloseConnection(loop, conn.fd);
    return false;
  }
  return true;
}

void NetServer::CloseConnection(Loop& loop, int fd) {
  auto it = loop.connections.find(fd);
  if (it == loop.connections.end()) {
    return;
  }
  loop.outbuf_bytes.fetch_sub(
      static_cast<int64_t>(it->second->outbuf_accounted),
      std::memory_order_relaxed);
  ARTHAS_RESOURCE_ADD(
      "net.outbuf.bytes", "bytes",
      -static_cast<int64_t>(it->second->outbuf_accounted));
  loop.poller->Remove(fd);
  ::close(fd);
  loop.connections.erase(it);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace net
}  // namespace arthas
