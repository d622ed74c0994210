#include "net/dispatcher.h"

#include <cstdlib>
#include <optional>

#include "obs/obs.h"
#include "obs/reqtrace.h"
#include "pmem/device.h"
#include "reactor/reactor_server.h"

namespace arthas {
namespace net {

NetDispatcher::NetDispatcher(PmSystemTarget& system, ReactorServer* reactor,
                             Options options)
    : system_(system), reactor_(reactor), options_(std::move(options)) {
  // The trace plane renders op bytes through the wire protocol's names but
  // must not link against the net layer; hand it the renderer here.
  obs::RequestTracePlane::InstallOpNamer(
      [](uint8_t op) { return NetOpName(static_cast<NetOp>(op)); });
}

void NetDispatcher::ExecuteBatch(std::span<const NetCommand> commands,
                                 std::string* out, int64_t received_ns) {
  if (commands.empty()) {
    return;
  }
  // Every trace-plane clock read below is gated on `traced`, so a disabled
  // plane reads none.
  const bool traced = ARTHAS_REQTRACE_BATCH_BEGIN(
      received_ns != 0 ? received_ns : ARTHAS_REQTRACE_NOW());
  bool saw_fault = false;
  {
    const int64_t lock_start_ns = ARTHAS_REQTRACE_NOW_IF(traced);
    std::lock_guard<std::mutex> lock(system_.request_mutex());
    const int64_t lock_end_ns = ARTHAS_REQTRACE_NOW_IF(traced);
    // Declared before the batch scope: FASE's SectionEnd drains the device
    // ahead of its commit record, so the batch's own drain (~BatchScope)
    // must already have run by then. Both live in optionals so the trace
    // plane can observe the close in that exact order.
    std::optional<SectionScope> section(std::in_place, system_);
    std::optional<PmemDevice::BatchScope> batch;
    if (options_.batch_persists) {
      batch.emplace(system_.pool().device());
    }
    // Command i ends where command i+1 begins: one clock read per boundary,
    // and the last one marks the end of execution.
    int64_t boundary_ns = ARTHAS_REQTRACE_NOW_IF(traced);
    for (const NetCommand& command : commands) {
      ARTHAS_REQTRACE_COMMAND_BEGIN(command.trace_id, command.origin_ns,
                                    command.op, boundary_ns);
      switch (command.op) {
        case NetOp::kGet:
        case NetOp::kSet:
        case NetOp::kDel:
        case NetOp::kAppend:
        case NetOp::kHold:
          ExecuteKv(command, out);
          break;
        case NetOp::kPing:
          EncodeSimple("PONG", out);
          break;
        case NetOp::kQuit:
          // The server closes the connection after flushing this reply.
          EncodeSimple("BYE", out);
          break;
        case NetOp::kStats:
        case NetOp::kHealth:
        case NetOp::kExplain:
        case NetOp::kCapacity:
          ExecuteReactor(command, out);
          break;
        case NetOp::kTrace:
          ExecuteTrace(command, out);
          break;
        case NetOp::kError:
          // Parse errors are the client's problem, never the system's: no
          // request reaches Handle(), so no fault can latch.
          EncodeError(command.text, out);
          break;
      }
      boundary_ns = ARTHAS_REQTRACE_NOW_IF(traced);
      ARTHAS_REQTRACE_COMMAND_END(boundary_ns,
                                  system_.last_fault().has_value());
    }
    saw_fault = system_.last_fault().has_value();
    batch.reset();    // the batch's one drain
    section.reset();  // substrate commit (FASE re-drains the log tail)
    ARTHAS_REQTRACE_BATCH_END(lock_start_ns, lock_end_ns, boundary_ns,
                              ARTHAS_REQTRACE_NOW_IF(traced));
  }
  ARTHAS_HISTOGRAM_RECORD("net.batch.size", commands.size());
  ARTHAS_COUNTER_ADD("net.req.count", commands.size());
  if (saw_fault) {
    MaybeRecover();
  }
}

void NetDispatcher::ExecuteKv(const NetCommand& command, std::string* out) {
  Request request;
  request.key = command.key;
  request.value = command.value;
  switch (command.op) {
    case NetOp::kGet:
      request.op = Request::Op::kGet;
      break;
    case NetOp::kSet:
      request.op = Request::Op::kPut;
      break;
    case NetOp::kDel:
      request.op = Request::Op::kDelete;
      break;
    case NetOp::kAppend:
      request.op = Request::Op::kAppend;
      break;
    case NetOp::kHold:
      request.op = Request::Op::kHold;
      break;
    default:
      EncodeError("not a KV command", out);
      return;
  }

  const Response response = system_.Handle(request);

  if (system_.last_fault().has_value()) {
    // The "process" died (this request or an earlier one — Handle
    // short-circuits once a fault is latched, so the whole tail of the
    // batch lands here).
    EncodeFault(response.status.message().empty() ? "server unavailable"
                                                  : response.status.message(),
                out);
    return;
  }
  if (!response.status.ok() &&
      response.status.code() != StatusCode::kNotFound) {
    EncodeError(response.status.message(), out);
    return;
  }

  ARTHAS_COUNTER_ADD("net.ops.ok", 1);
  switch (command.op) {
    case NetOp::kGet:
      if (response.found) {
        EncodeBulk(response.value, out);
      } else {
        EncodeNil(out);
      }
      break;
    case NetOp::kDel:
      EncodeInteger(response.found ? 1 : 0, out);
      break;
    default:
      EncodeSimple("OK", out);
      break;
  }
}

void NetDispatcher::ExecuteReactor(const NetCommand& command,
                                   std::string* out) {
  if (reactor_ == nullptr) {
    EncodeError("no reactor attached to this server", out);
    return;
  }
  std::string line;
  switch (command.op) {
    case NetOp::kStats:
      line = "stats " + command.text;
      break;
    case NetOp::kHealth:
      line = "health " + command.text;
      break;
    case NetOp::kCapacity:
      line = "capacity " + command.text;
      break;
    default:
      line = "explain " + command.text;
      break;
  }
  // ServeLine serializes internally (the reactor is shared with the
  // mitigation path and, in multi-system servers, other dispatchers).
  Result<std::string> reply = reactor_->ServeLine(line);
  if (!reply.ok()) {
    EncodeError(reply.status().message(), out);
    return;
  }
  EncodeBulk(*reply, out);
}

void NetDispatcher::ExecuteTrace(const NetCommand& command,
                                 std::string* out) {
  const uint64_t id = std::strtoull(command.text.c_str(), nullptr, 10);
  obs::RequestTrace trace;
  if (id == 0 || !obs::RequestTracePlane::Global().FindTrace(id, &trace)) {
    EncodeError("unknown trace id " + command.text, out);
    return;
  }
  EncodeBulk(obs::RequestTracePlane::Autopsy(trace), out);
}

void NetDispatcher::MaybeRecover() {
  if (!options_.on_fault) {
    return;
  }
  // recovery_mutex_ first (never taken with request_mutex held elsewhere),
  // then the request lock: mitigation is exclusive with request traffic,
  // and batches that queued behind the same fault find it already cleared.
  std::lock_guard<std::mutex> recovery(recovery_mutex_);
  std::lock_guard<std::mutex> requests(system_.request_mutex());
  if (!system_.last_fault().has_value()) {
    return;
  }
  const FaultInfo fault = *system_.last_fault();
  // The mitigation window marks let the trace plane reattribute queueing
  // overlap to kDetector/kReactor; the hook marks detector-fired itself.
  ARTHAS_REQTRACE_MITIGATION_BEGIN();
  options_.on_fault(fault);
  ARTHAS_REQTRACE_MITIGATION_END();
}

}  // namespace net
}  // namespace arthas
