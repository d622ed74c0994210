#include "reactor/reactor.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "substrate/substrate.h"

namespace arthas {

Reactor::Reactor(const IrModule& model, const GuidRegistry& registry)
    : model_(model), registry_(registry) {
  const int64_t t0 = MonotonicNanos();
  pa_ = std::make_unique<PointerAnalysis>(model_);
  pa_->Run();
  pm_info_ = std::make_unique<PmVariableInfo>(model_, *pa_);
  const int64_t t1 = MonotonicNanos();
  pdg_ = std::make_unique<Pdg>(model_, *pa_);
  const int64_t t2 = MonotonicNanos();
  slicer_ = std::make_unique<Slicer>(*pdg_, *pm_info_);
  timings_.static_analysis_ns = t1 - t0;
  timings_.pdg_ns = t2 - t1;
}

std::vector<SeqNum> Reactor::ComputeReversionPlan(
    const FaultInfo& fault, Tracer& tracer, const CheckpointLog& log,
    const ReactorConfig& config,
    std::vector<CandidateDecision>* explanation) {
  return PlanCandidates(fault, tracer, log, config, explanation).seqs;
}

Reactor::Plan Reactor::PlanCandidates(
    const FaultInfo& fault, Tracer& tracer, const CheckpointLog& log,
    const ReactorConfig& config,
    std::vector<CandidateDecision>* explanation) {
  const IrInstruction* fault_inst = model_.FindByGuid(fault.fault_guid);
  if (fault_inst == nullptr) {
    return {};
  }
  const SliceResult slice = slicer_->BackwardPersistent(fault_inst);
  timings_.last_slicing_ns = slice.elapsed_ns;
  ARTHAS_PHASE_RECORD("reactor.slice.ns", kReactorSlice, slice.elapsed_ns,
                      slice.instructions.size());

  // Search phase: join the static slice against the dynamic trace and the
  // checkpoint log to build the candidate list (paper Section 4.4).
  ScopedTimer search_timer;
  // Every retained version of every entry overlapping an address a slice
  // node touched: the tracer returns those addresses sorted from one pass
  // over its address index, and the log joins them in one merge pass. Many
  // addresses land in one entry; the join returns it (and so its versions
  // and its realloc history) once.
  std::vector<Guid> slice_guids;
  size_t slice_rank = 0;
  for (const IrInstruction* node : slice.instructions) {
    if (slice_rank++ > config.max_slice_distance) {
      break;  // policy function: cap the node's rank in the slice
    }
    if (node->guid() != kNoGuid) {
      slice_guids.push_back(node->guid());
    }
  }
  std::sort(slice_guids.begin(), slice_guids.end());
  slice_guids.erase(std::unique(slice_guids.begin(), slice_guids.end()),
                    slice_guids.end());
  Plan plan;
  auto append_versions = [&plan](const CheckpointEntry& entry) {
    if (entry.versions.empty()) {
      return;
    }
    plan.entry_addresses.push_back(entry.address);
    for (const CheckpointVersion& version : entry.versions) {
      plan.seqs.push_back(version.seq_num);
    }
  };
  for (const CheckpointEntry* entry :
       log.OverlappingAny(tracer.AddressesForGuids(slice_guids))) {
    append_versions(*entry);
    // Follow reallocation links (Figure 5's old_entry field, detailed in the
    // technical report): a resized persistent block's earlier history lives
    // at its previous addresses.
    const CheckpointEntry* older = entry;
    for (int hops = 0; older->old_entry != kNullPmOffset && hops < 16;
         hops++) {
      older = log.Find(older->old_entry);
      if (older == nullptr) {
        break;
      }
      append_versions(*older);
    }
  }
  // Default policy function: sorted, de-duplicated, newest first so the
  // reversion walks backwards through time along the dependency chain.
  // Candidates recorded at the faulting PM address (when the failure
  // reported one, as a segfault's siginfo does) are tried first — they are
  // the most likely direct cause.
  std::vector<SeqNum>& seqs = plan.seqs;
  RadixSort(seqs, [](SeqNum s) { return ~s; });
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  std::vector<SeqNum> at_fault;
  if (config.prioritize_fault_address &&
      fault.fault_address != kNullPmOffset) {
    for (const CheckpointEntry* entry :
         log.Overlapping(fault.fault_address, 1)) {
      for (const CheckpointVersion& version : entry->versions) {
        at_fault.push_back(version.seq_num);
      }
    }
  }
  const size_t at_fault_count = static_cast<size_t>(
      std::stable_partition(seqs.begin(), seqs.end(),
                            [&at_fault](SeqNum s) {
                              return std::find(at_fault.begin(),
                                               at_fault.end(),
                                               s) != at_fault.end();
                            }) -
      seqs.begin());
  // Stamp one decision per candidate: why it made the plan (faulting
  // address vs dependency slice).
  for (size_t rank = 0; rank < seqs.size(); rank++) {
    const SeqNum s = seqs[rank];
    const obs::FrReason reason = rank < at_fault_count
                                     ? obs::FrReason::kAtFaultAddress
                                     : obs::FrReason::kSliceDependency;
    ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateAccept, 0, s, 0, rank,
                         reason);
    if (explanation != nullptr) {
      CandidateDecision decision;
      decision.seq = s;
      decision.rank = rank;
      decision.accepted = true;
      decision.reason = obs::FrReasonName(reason);
      explanation->push_back(std::move(decision));
    }
  }
  ARTHAS_PHASE_RECORD("reactor.search.ns", kReactorSearch,
                      search_timer.ElapsedNanos(), seqs.size());
  ARTHAS_COUNTER_ADD("reactor.candidates.count", seqs.size());
  return plan;
}

uint64_t Reactor::RevertCandidate(SeqNum seq, Tracer& tracer,
                                  CheckpointLog& log,
                                  const ReactorConfig& config) {
  uint64_t reverted = 0;
  // Transaction-level consistency (Section 4.6): revert the whole commit
  // unit the sequence number belongs to.
  std::vector<SeqNum> group = log.SeqsInSameTx(seq);
  std::sort(group.rbegin(), group.rend());
  // GUIDs of the instructions that touched a reverted address.
  std::set<Guid> reverted_guids;
  for (const SeqNum s : group) {
    auto located = log.LocateSeq(s);
    if (!located.has_value()) {
      continue;  // already reverted via a newer version of the same entry
    }
    const PmOffset address = located->first;
    if (log.RevertSeq(s).ok()) {
      reverted++;
      for (const Guid g : tracer.GuidsForRange(address, 1)) {
        reverted_guids.insert(g);
      }
    }
  }
  if (config.mode == ReversionMode::kPurge && config.purge_forward_pass) {
    // Purge consistency pass (Section 4.4): updates that *depend on* the
    // reverted state are reverted too, so dependent pairs stay consistent.
    // The static forward slice aliases to many dynamic sequence numbers;
    // only those close after the reverted update (the same request's
    // persists) are actually forward-dependent on the reverted value, so
    // the pass is bounded to that window.
    constexpr SeqNum kForwardWindow = 32;
    // Forward slices of different sites share nodes: collect each GUID once.
    std::set<Guid> forward_guids;
    for (const Guid guid : reverted_guids) {
      const IrInstruction* inst = model_.FindByGuid(guid);
      if (inst == nullptr) {
        continue;
      }
      for (const IrInstruction* node :
           slicer_->ForwardPersistent(inst).instructions) {
        if (node != inst && node->guid() != kNoGuid) {
          forward_guids.insert(node->guid());
        }
      }
    }
    // The window's retained versions, looked up by seq, whose entry a
    // forward GUID touched under the join's overlap rule: at most
    // kForwardWindow lookups instead of a join of every address the
    // forward slice touched.
    std::vector<SeqNum> forward;
    for (SeqNum s = seq + 1;
         !forward_guids.empty() && s <= seq + kForwardWindow; s++) {
      const auto located = log.LocateSeq(s);
      if (!located.has_value()) {
        continue;
      }
      const PmOffset address = located->first;
      for (const Guid g :
           tracer.GuidsForRange(address, log.ExtentAt(address))) {
        if (forward_guids.count(g) != 0) {
          forward.push_back(s);
          break;
        }
      }
    }
    // Newest first. RevertSeq fails on a version an earlier revert in this
    // pass already discarded.
    for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
      if (log.RevertSeq(*it).ok()) {
        reverted++;
      }
    }
  }
  return reverted;
}

MitigationOutcome Reactor::MitigateLeak(const FaultInfo& fault,
                                        CheckpointLog& log,
                                        PmSystemTarget& target,
                                        const ReexecuteFn& reexecute,
                                        VirtualClock& clock,
                                        const ReactorConfig& config) {
  MitigationOutcome outcome;
  const VirtualTime start = clock.Now();
  // Persistent leak workflow (Section 4.7): restart so the recovery
  // function runs and its PM accesses are captured, then free every object
  // that was never freed in the checkpoint log *and* was not retrieved
  // during recovery.
  (void)target.Restart();
  std::set<PmOffset> recovery_accessed(target.RecoveryAccessedObjects().begin(),
                                       target.RecoveryAccessedObjects().end());
  for (const AllocationRecord& record : log.UnfreedAllocations()) {
    if (recovery_accessed.count(record.offset) != 0) {
      continue;  // reachable state, not a leak
    }
    if (target.pool().Free(Oid{record.offset}).ok()) {
      log.OnFree(record.offset, record.size);
      outcome.freed_leak_objects++;
    }
  }
  clock.Advance(config.reexecution_delay);
  const RunObservation obs = reexecute();
  outcome.reexecutions = 1;
  outcome.recovered = !obs.fault.has_value();
  outcome.elapsed = clock.Now() - start;
  outcome.detail = "leak mitigation (" + std::string(FailureKindName(fault.kind)) +
                   "): freed " + std::to_string(outcome.freed_leak_objects) +
                   " unreachable persistent objects";
  return outcome;
}

MitigationOutcome Reactor::Mitigate(const FaultInfo& fault, Tracer& tracer,
                                    ConsistencySubstrate& substrate,
                                    PmSystemTarget& target,
                                    const ReexecuteFn& reexecute,
                                    VirtualClock& clock,
                                    const ReactorConfig& config) {
  CheckpointLog* log = substrate.checkpoint_log();
  if (substrate.revert_capable() && log != nullptr) {
    return Mitigate(fault, tracer, *log, target, reexecute, clock, config);
  }
  // No version history to revert: refuse reversion explicitly and fall
  // back to one plain restart. The substrate's own recovery (run inside
  // Restart) rolls back incomplete sections; if the symptom was torn
  // in-flight state it is gone, while a bug committed by an earlier
  // section recurs — consistency-by-construction cannot cure logic bugs,
  // which is exactly the comparison the FASE substrate exists to measure.
  MitigationOutcome outcome;
  outcome.reversion_refused = true;
  const VirtualTime start = clock.Now();
  clock.Advance(config.reexecution_delay);
  const RunObservation obs = reexecute();
  outcome.reexecutions = 1;
  outcome.recovered = !obs.fault.has_value();
  outcome.elapsed = clock.Now() - start;
  outcome.detail = std::string("reversion refused: substrate '") +
                   substrate.name() +
                   "' is not revert-capable; restarted and rolled back "
                   "incomplete sections instead";
  return outcome;
}

MitigationOutcome Reactor::Mitigate(const FaultInfo& fault, Tracer& tracer,
                                    CheckpointLog& log, PmSystemTarget& target,
                                    const ReexecuteFn& reexecute,
                                    VirtualClock& clock,
                                    const ReactorConfig& config) {
  if (fault.kind == FailureKind::kLeak ||
      fault.kind == FailureKind::kOutOfSpace) {
    return MitigateLeak(fault, log, target, reexecute, clock, config);
  }

  MitigationOutcome outcome;
  ARTHAS_SCOPED_PHASE("reactor.mitigate.ns", kReactorMitigate);
  const VirtualTime start = clock.Now();
  const Plan plan = PlanCandidates(fault, tracer, log, config, nullptr);
  if (plan.seqs.empty()) {
    // Detector false alarm or non-PM failure: abort to a simple restart
    // (Section 4.5).
    outcome.empty_plan = true;
    clock.Advance(config.reexecution_delay);
    const RunObservation obs = reexecute();
    outcome.reexecutions = 1;
    outcome.recovered = !obs.fault.has_value();
    outcome.elapsed = clock.Now() - start;
    outcome.detail = "empty reversion plan; resorted to restart";
    return outcome;
  }

  auto try_reexecution = [&](int reverted_since_check) -> bool {
    if (reverted_since_check == 0) {
      return false;
    }
    clock.Advance(config.reexecution_delay);
    outcome.reexecutions++;
    ScopedTimer reexec_timer;
    const RunObservation obs = reexecute();
    ARTHAS_PHASE_RECORD("reactor.reexecute.ns", kReactorReexecute,
                        reexec_timer.ElapsedNanos(), 0);
    return !obs.fault.has_value();
  };

  auto out_of_budget = [&]() {
    if (clock.Now() - start > config.mitigation_timeout) {
      outcome.timed_out = true;
      return true;
    }
    return outcome.reexecutions >= config.max_attempts;
  };

  int pending = 0;  // reversions not yet validated by a re-execution
  // Round 1 walks the candidate list; rounds 2..max_versions walk older
  // versions of the same addresses (Section 4.5).
  for (int round = 1; round <= config.max_versions; round++) {
    std::vector<SeqNum> round_plan;
    if (round == 1) {
      round_plan = plan.seqs;
    } else {
      for (const PmOffset address : plan.entry_addresses) {
        const SeqNum s = log.NewestSeqAt(address);
        if (s != kNoSeq) {
          round_plan.push_back(s);
        }
      }
      // An entry both joined and reached by a realloc link is listed twice.
      std::sort(round_plan.rbegin(), round_plan.rend());
      round_plan.erase(std::unique(round_plan.begin(), round_plan.end()),
                       round_plan.end());
    }
    size_t i = 0;
    while (i < round_plan.size()) {
      int batch_size = 1;
      if (config.batch) {
        batch_size = config.batch_limit;
      } else if (config.exponential_probing) {
        // Tech-report reduction: grow the per-step reversion count
        // exponentially while re-executions keep failing.
        batch_size = 1 << std::min(outcome.reexecutions, 12);
      }
      ScopedTimer revert_timer;
      // Candidates whose reversion took effect in this batch; the verdict
      // of the next re-execution (cure vs no cure) is stamped on each.
      std::vector<SeqNum> batch_reverted;
      for (int b = 0; b < batch_size && i < round_plan.size(); b++, i++) {
        if (config.mode == ReversionMode::kRollback) {
          // Undo the chosen candidate itself (divergence-aware), then
          // conservatively revert every other update at or after it in
          // time order (paper Fig. 7b / Section 6.5). When the divergence
          // rule fired, the state was corrupted *outside* program order —
          // no later update was built on the bad value — so the restore of
          // the checkpointed good version is the whole reversion.
          bool diverged = false;
          bool reverted_any = false;
          if (!log.LocateSeq(round_plan[i]).has_value()) {
            ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateReject, 0,
                                 round_plan[i], 0, static_cast<uint64_t>(i),
                                 obs::FrReason::kVersionEvicted);
          } else {
            auto reverted = log.RevertSeq(round_plan[i]);
            if (reverted.ok()) {
              outcome.reverted_updates++;
              pending++;
              diverged = *reverted;
              reverted_any = true;
            } else {
              ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateReject, 0,
                                   round_plan[i], 0,
                                   static_cast<uint64_t>(i),
                                   obs::FrReason::kRevertFailed);
            }
          }
          if (!diverged) {
            auto discarded = log.RollbackToSeq(round_plan[i]);
            if (discarded.ok()) {
              outcome.reverted_updates += *discarded;
              pending += static_cast<int>(*discarded);
              reverted_any |= *discarded > 0;
            }
          }
          if (reverted_any) {
            batch_reverted.push_back(round_plan[i]);
          }
        } else {
          const uint64_t n =
              RevertCandidate(round_plan[i], tracer, log, config);
          outcome.reverted_updates += n;
          pending += static_cast<int>(n);
          if (n > 0) {
            batch_reverted.push_back(round_plan[i]);
          } else {
            ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateReject, 0,
                                 round_plan[i], 0, static_cast<uint64_t>(i),
                                 obs::FrReason::kVersionEvicted);
          }
        }
      }
      ARTHAS_PHASE_RECORD("reactor.revert.ns", kReactorRevert,
                          revert_timer.ElapsedNanos(), 0);
      ARTHAS_COUNTER_ADD("reactor.revert_attempts.count", 1);
      const bool attempted = pending > 0;
      if (try_reexecution(pending)) {
        for (const SeqNum s : batch_reverted) {
          (void)s;
          ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateAccept, 0, s, 0,
                               static_cast<uint64_t>(round),
                               obs::FrReason::kRecovered);
        }
        outcome.recovered = true;
        outcome.elapsed = clock.Now() - start;
        outcome.detail = "recovered after " +
                         std::to_string(outcome.reverted_updates) +
                         " reverted updates in round " + std::to_string(round);
        return outcome;
      }
      if (attempted) {
        for (const SeqNum s : batch_reverted) {
          (void)s;
          ARTHAS_FLIGHT_RECORD(obs::FrType::kCandidateReject, 0, s, 0,
                               static_cast<uint64_t>(round),
                               obs::FrReason::kNoCure);
        }
      }
      pending = 0;
      if (out_of_budget()) {
        outcome.elapsed = clock.Now() - start;
        outcome.detail = "mitigation budget exhausted";
        return outcome;
      }
    }
  }
  outcome.elapsed = clock.Now() - start;
  outcome.detail = "candidate list and version retries exhausted";
  return outcome;
}

}  // namespace arthas
