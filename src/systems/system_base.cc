#include "systems/system_base.h"

#include <cassert>
#include <vector>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/reqtrace.h"
#include "substrate/substrate.h"
#include "systems/pm_system.h"

namespace arthas {

namespace {

// This thread's stack of open request scopes, one frame per system with an
// Enter/Exit imbalance. The depth count collapses nested demarcation sites
// (RequestGuard around Handle) so the substrate sees exactly one section
// per outermost scope. Frames for different systems interleave freely (a
// thread driving two systems keeps two frames).
struct SectionFrame {
  PmSystemTarget* system;
  uint32_t depth;
  uint64_t id;  // 0 = no substrate was attached when the scope opened
  bool aborted;
};
thread_local std::vector<SectionFrame> section_frames;

SectionFrame* FrameFor(PmSystemTarget* system) {
  for (auto it = section_frames.rbegin(); it != section_frames.rend(); ++it) {
    if (it->system == system) {
      return &*it;
    }
  }
  return nullptr;
}

}  // namespace

void PmSystemTarget::EnterSection() {
  if (SectionFrame* frame = FrameFor(this)) {
    frame->depth++;
    return;
  }
  // The trace plane is stamped only where the substrate section really
  // opens and closes: a nested scope (Handle() inside the dispatcher's
  // batch section) costs it nothing.
  ARTHAS_REQTRACE_SECTION_ENTER();
  SectionFrame frame{this, 1, 0, false};
  if (ConsistencySubstrate* sub = substrate()) {
    frame.id = sub->NextSectionId();
    sub->SectionBegin(frame.id);
  }
  section_frames.push_back(frame);
}

void PmSystemTarget::ExitSection() {
  for (auto it = section_frames.rbegin(); it != section_frames.rend(); ++it) {
    if (it->system != this) {
      continue;
    }
    if (--it->depth > 0) {
      return;
    }
    ARTHAS_REQTRACE_SECTION_EXIT();
    const SectionFrame frame = *it;
    section_frames.erase(std::next(it).base());
    if (frame.id != 0) {
      if (ConsistencySubstrate* sub = substrate()) {
        if (frame.aborted) {
          sub->SectionAbort(frame.id);
        } else {
          sub->SectionEnd(frame.id);
        }
      }
    }
    return;
  }
}

void PmSystemTarget::MarkSectionAborted() {
  if (SectionFrame* frame = FrameFor(this)) {
    frame->aborted = true;
  }
}

RequestGuard::RequestGuard(PmSystemTarget& system, const Request& request)
    : system_(system) {
  if (system.lock_mode() == RequestLockMode::kCoarse) {
    {
      ARTHAS_PROFILE(kLockWait);
      coarse_ = std::unique_lock<std::mutex>(system.request_mutex());
    }
    system_.EnterSection();
    return;
  }
  {
    // Deferred maintenance piggybacks on the next request; charge it as
    // bookkeeping, not lock wait (it does real structural work inside).
    ARTHAS_PROFILE(kBookkeeping);
    system.DrainPendingMaintenance();
  }
  {
    ARTHAS_PROFILE(kLockWait);
    if (!system.ShardableOp(request)) {
      exclusive_ =
          std::unique_lock<std::shared_mutex>(system.structural_gate());
    } else {
      shared_ = std::shared_lock<std::shared_mutex>(system.structural_gate());
      stripe_ = std::unique_lock<std::mutex>(
          system.request_stripe(system.RequestStripeOf(request.key)));
    }
  }
  system_.EnterSection();
}

RequestGuard::~RequestGuard() {
  // Runs before the member unlocks: the section closes while the locks
  // that made it atomic are still held.
  system_.ExitSection();
}

PmSystemBase::PmSystemBase(std::string name, size_t pool_size)
    : name_(std::move(name)) {
  auto pool = PmemPool::Create(name_, pool_size);
  assert(pool.ok());
  pool_ = std::move(*pool);
}

Status PmSystemBase::Restart() {
  fault_.reset();
  has_fault_.store(false, std::memory_order_release);
  recovery_accessed_.clear();
  ARTHAS_RETURN_IF_ERROR(pool_->CrashAndRecover());
  // The substrate recovers after the pool (its rollback must see a
  // consistent heap to step around metadata) and before the system's
  // recovery function (which must see the rolled-back state).
  if (ConsistencySubstrate* sub = substrate()) {
    ARTHAS_RETURN_IF_ERROR(sub->Recover());
  }
  return Recover();
}

void PmSystemBase::RaiseFault(FailureKind kind, Guid guid,
                              PmOffset fault_address, std::string message,
                              std::vector<std::string> stack) {
  FaultInfo fault;
  fault.kind = kind;
  fault.fault_guid = guid;
  fault.fault_address = fault_address;
  fault.exit_code = kind == FailureKind::kCrash     ? 139
                    : kind == FailureKind::kAssertion ? 134
                                                      : 0;
  fault.message = std::move(message);
  fault.stack = std::move(stack);
  fault.pm_used_bytes = pool_->stats().used_bytes;
  std::lock_guard<std::mutex> latch(fault_latch_);
  if (has_fault_.load(std::memory_order_relaxed)) {
    // A fault is already latched; the process is "dead". Drop this one.
    return;
  }
  ARTHAS_LOG(Info) << name_ << ": " << FailureKindName(kind) << " at guid "
                   << guid << ": " << fault.message;
  ARTHAS_FLIGHT_RECORD(obs::FrType::kFaultRaised, 0, fault.fault_address,
                       static_cast<uint64_t>(fault.exit_code), guid);
  fault_ = std::move(fault);
  has_fault_.store(true, std::memory_order_release);
  // This is the simulated process-death point: the section that was running
  // never commits, so a FASE-style substrate rolls it back at recovery.
  MarkSectionAborted();
}

}  // namespace arthas
