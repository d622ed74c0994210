// Command execution for the network plane: one served PM system behind the
// wire protocol of net/protocol.h.
//
// The dispatcher is the bridge between the byte-oriented server loops and
// the in-process PM world: it maps NetCommands onto PmSystemTarget requests
// (serialized behind the system's coarse request lock, exactly like the
// closed-loop MultiThreadedDriver), routes STATS/HEALTH/EXPLAIN to the
// ReactorServer's existing wire formats, and — the perf point of this plane
// — executes a pipelined batch of commands under ONE lock acquisition, ONE
// failure-atomic section, and (optionally) ONE persist drain:
//
//   lock(request_mutex)                  amortized over the whole batch
//     SectionScope                       one SectionBegin/End per batch
//       BatchScope                       Persist() defers to a single Drain
//         Handle(cmd_0) ... Handle(cmd_n-1)
//       ~BatchScope                      the one sfence for the batch
//     ~SectionScope                      substrate commit (FASE drains see
//   unlock                               an already-drained device)
//
// The scope nesting is load-bearing: FaseSubstrate::SectionEnd drains the
// device before logging its commit record, so the BatchScope (whose dtor
// issues the batch's drain) must close before the SectionScope. The drain
// runs inside the request lock because it reads live-image bytes — no other
// thread may be writing the batch's lines while they are copied out.
//
// Fault semantics over the wire: when the served system latches a hard
// fault, the faulting command and every later command of the batch answer
// "-FAULT ..." (a dead process executes nothing further — Handle()
// short-circuits). After the batch, if an on_fault hook is installed the
// dispatcher runs it under the recovery mutex *while holding the request
// lock*, so mitigation (detector confirm -> reactor revert -> restart) is
// exclusive with request traffic; concurrent batches queue behind the lock
// and drain once the system is live again. That queueing IS the paper's
// Fig. 7 shape: offered load keeps arriving open-loop while served
// throughput collapses to zero until recovery completes.

#ifndef ARTHAS_NET_DISPATCHER_H_
#define ARTHAS_NET_DISPATCHER_H_

#include <functional>
#include <mutex>
#include <span>
#include <string>

#include "net/protocol.h"
#include "systems/pm_system.h"

namespace arthas {

class ReactorServer;

namespace net {

class NetDispatcher {
 public:
  struct Options {
    // Batch persists of a pipelined command run into one drain (the
    // BatchScope path). Off = one StripeGuard'd persist per store, exactly
    // the closed-loop drivers' behaviour (the A/B for bench_netplane).
    bool batch_persists = true;
    // Invoked (serialized, request lock held) after a batch during which
    // the served system latched a hard fault. The hook owns mitigation:
    // typically detector confirm + ReactorServer::Execute + restart. The
    // system stays "down" (every request answers -FAULT) until some hook
    // invocation clears the fault.
    std::function<void(const FaultInfo&)> on_fault;
  };

  // `reactor` may be null: STATS/HEALTH/EXPLAIN then answer -ERR. Both
  // referents must outlive the dispatcher.
  NetDispatcher(PmSystemTarget& system, ReactorServer* reactor,
                Options options);
  NetDispatcher(PmSystemTarget& system, ReactorServer* reactor)
      : NetDispatcher(system, reactor, Options()) {}

  // Executes a pipelined batch in arrival order and appends one reply per
  // command to `out` (same order — the client matches replies by position).
  // Thread-safe: concurrent batches serialize on the system's request lock.
  // `received_ns` is when the server read() returned the batch's bytes
  // (0 = now); it anchors each command's request trace. The traces are
  // built, and commands without a `*<id>` context get their server-side
  // trace id, when the caller reports the replies flushed
  // (ARTHAS_REQTRACE_REPLY_FLUSHED).
  void ExecuteBatch(std::span<const NetCommand> commands, std::string* out,
                    int64_t received_ns = 0);

  PmSystemTarget& system() { return system_; }

 private:
  // KV command -> PmSystemTarget request, reply encoded into `out`.
  void ExecuteKv(const NetCommand& command, std::string* out);
  // STATS/HEALTH/EXPLAIN -> ReactorServer::ServeLine under its own lock.
  void ExecuteReactor(const NetCommand& command, std::string* out);
  // TRACE <id> -> slow-request autopsy from the request trace plane.
  void ExecuteTrace(const NetCommand& command, std::string* out);
  // Runs options_.on_fault if the system is (still) faulted.
  void MaybeRecover();

  PmSystemTarget& system_;
  ReactorServer* reactor_;
  Options options_;
  // Serializes on_fault hooks: one mitigation at a time, later batches that
  // observed the same fault find it already cleared and return.
  std::mutex recovery_mutex_;
};

}  // namespace net
}  // namespace arthas

#endif  // ARTHAS_NET_DISPATCHER_H_
