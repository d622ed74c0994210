// The Arthas reactor (paper Sections 4.4–4.7 and 5).
//
// Given a fault instruction, the reactor derives a reversion plan from four
// inputs: the static PDG, the GUID metadata, the dynamic PM address trace,
// and the checkpoint log. It computes the backward slice of the fault
// instruction, keeps nodes with persistent operands, joins slice nodes with
// the trace to find the dynamic addresses they touched, collects the
// checkpoint sequence numbers recorded at those addresses, and applies a
// policy function (sort + de-duplicate, optional maximum slice distance) to
// produce the candidate list.
//
// Reversion then loops: revert a candidate (respecting transaction units and
// realloc links), invoke the re-execution script, and check whether the
// failure symptom is gone; retry with older versions when the candidate list
// is exhausted. Two strategies are implemented (Section 4.4): conservative
// time-ordered *rollback* and fine-grained *purge* with a forward-dependency
// consistency pass. One-by-one and batched reversion are both supported
// (Section 6.5), as are the persistent-leak mitigation workflow (Section
// 4.7) and the exponential-probing candidate reduction from the technical
// report.
//
// Mirroring the client-server split of Section 5, the constructor does the
// expensive static work (pointer analysis, PDG) once. A Mitigate() call
// still does more than slicing on its critical path: the slice costs about
// 0.1 ms, but the plan's join with the trace and the checkpoint log covers
// every address the slice's instructions touched. The tracer hands over
// those addresses already sorted, from one pass over its (address, GUID)
// index, and the log answers them in one merge pass over its address view,
// so the join itself sorts nothing; the sorts left on the path (the two
// indexes, when first queried after new traffic, and the candidate order)
// are radix sorts. A purge forward pass looks up the few seqs of its window
// instead of joining the forward slice (DESIGN.md §3b items 6 and 7).

#ifndef ARTHAS_REACTOR_REACTOR_H_
#define ARTHAS_REACTOR_REACTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pdg.h"
#include "analysis/pm_variables.h"
#include "analysis/pointer_analysis.h"
#include "analysis/slicer.h"
#include "checkpoint/checkpoint_log.h"
#include "common/clock.h"
#include "systems/pm_system.h"
#include "trace/guid_registry.h"
#include "trace/tracer.h"

namespace arthas {

class ConsistencySubstrate;

enum class ReversionMode {
  kPurge,     // revert only dependent updates (fine-grained, default)
  kRollback,  // revert everything at or after each candidate (conservative)
};

struct ReactorConfig {
  ReversionMode mode = ReversionMode::kPurge;

  // Batched reversion (Section 6.5): revert up to batch_limit candidates
  // between re-executions instead of one.
  bool batch = false;
  int batch_limit = 5;

  // Re-execution budget and cost model. Each reversion attempt restarts the
  // target and waits for initialization + bug check, which the paper
  // measures at 3–5 seconds; the harness charges it on the virtual clock.
  int max_attempts = 200;
  VirtualTime reexecution_delay = 4 * kSecond;
  VirtualTime mitigation_timeout = 10 * kMinute;

  // Purge mode's second pass: also revert forward-dependent updates of each
  // reverted state (Section 4.4). Disabling this is an ablation.
  bool purge_forward_pass = true;

  // Retry depth through older checkpoint versions (paper default 3).
  int max_versions = 3;

  // Policy function: cap a node's rank in the persistent backward slice,
  // whose nodes are listed in BFS order from the fault instruction (rank
  // 0). Nodes of rank <= max_slice_distance are used, so the cap keeps
  // max_slice_distance + 1 nodes; it is not a hop count, so two nodes the
  // same number of hops away have different ranks and the cap can keep one
  // and drop the other. SIZE_MAX keeps everything.
  size_t max_slice_distance = static_cast<size_t>(-1);

  // Try candidates recorded at the faulting PM address first (available
  // from siginfo on a real crash). Disabling reproduces the paper's purely
  // dependency-ordered reversion, which needs more attempts.
  bool prioritize_fault_address = true;

  // Tech-report extension: when one slice node aliases to many dynamic
  // sequence numbers, probe exponentially growing prefixes (1, 2, 4, ...)
  // instead of reverting all of them before the first re-execution.
  bool exponential_probing = false;
};

struct MitigationOutcome {
  bool recovered = false;
  // The reversion plan was empty: the failure is not caused by bad PM
  // values; the reactor aborted to a simple restart (Section 4.5).
  bool empty_plan = false;
  // Reversion was refused outright: the active consistency substrate keeps
  // no version history to revert (e.g. FASE). The reactor fell back to one
  // plain restart, whose recovery rolled back incomplete sections.
  bool reversion_refused = false;
  bool timed_out = false;
  int reexecutions = 0;
  uint64_t reverted_updates = 0;
  uint64_t freed_leak_objects = 0;
  VirtualTime elapsed = 0;
  std::string detail;
};

// One entry per candidate the planner considered, in plan order. `reason`
// is a stable token (flight-recorder reason name): why the candidate made
// the plan ("at_fault_address", "slice_dependency"). Every candidate is
// read off a version the log still retains, so at plan time each one is
// accepted; a candidate a later reversion discards is rejected in the
// flight recorder ("version_evicted") when the mitigation loop reaches it.
struct CandidateDecision {
  SeqNum seq = 0;
  uint64_t rank = 0;  // 0-based position in the plan
  bool accepted = false;
  std::string reason;
};

// Invoked to re-run the target with the same arguments as the prior run;
// returns what the detector observed (fault recurrence, PM usage, items).
using ReexecuteFn = std::function<RunObservation()>;

struct ReactorTimings {
  int64_t static_analysis_ns = 0;  // pointer analysis + PM identification
  int64_t pdg_ns = 0;
  int64_t last_slicing_ns = 0;
};

class Reactor {
 public:
  // "Server start": runs the static analysis and builds the PDG for the
  // target's IR model. Reused across mitigations until the code changes.
  Reactor(const IrModule& model, const GuidRegistry& registry);

  // Derives the candidate sequence-number list for a fault (newest first).
  // Empty result means the failure does not trace back to checkpointed PM
  // state. When `explanation` is non-null it receives one decision per
  // candidate (the reactor-server `explain` request and the forensics
  // report surface these); each decision is also stamped into the flight
  // recorder.
  std::vector<SeqNum> ComputeReversionPlan(
      const FaultInfo& fault, Tracer& tracer, const CheckpointLog& log,
      const ReactorConfig& config,
      std::vector<CandidateDecision>* explanation = nullptr);

  // Full mitigation loop. `target` is used for the leak workflow (freeing
  // leaked objects, reading recovery-accessed annotations); `reexecute`
  // restarts the target and probes the failure.
  MitigationOutcome Mitigate(const FaultInfo& fault, Tracer& tracer,
                             CheckpointLog& log, PmSystemTarget& target,
                             const ReexecuteFn& reexecute,
                             VirtualClock& clock,
                             const ReactorConfig& config = {});

  // Substrate-aware entry point: delegates to the checkpoint-log loop when
  // the substrate is revert-capable, and otherwise refuses reversion
  // cleanly — the outcome carries reversion_refused, an explicit detail,
  // and the single restart-and-probe attempt the refusal falls back to.
  MitigationOutcome Mitigate(const FaultInfo& fault, Tracer& tracer,
                             ConsistencySubstrate& substrate,
                             PmSystemTarget& target,
                             const ReexecuteFn& reexecute,
                             VirtualClock& clock,
                             const ReactorConfig& config = {});

  const ReactorTimings& timings() const { return timings_; }
  const Pdg& pdg() const { return *pdg_; }
  const PmVariableInfo& pm_info() const { return *pm_info_; }

 private:
  // A reversion plan: the candidates in plan order, and the address of
  // every entry they were read from (an entry that held a version at plan
  // time; an address may repeat), which the older-version retry rounds
  // revisit.
  struct Plan {
    std::vector<SeqNum> seqs;
    std::vector<PmOffset> entry_addresses;
  };

  // ComputeReversionPlan, keeping the candidates' entry addresses.
  Plan PlanCandidates(
      const FaultInfo& fault, Tracer& tracer, const CheckpointLog& log,
      const ReactorConfig& config,
      std::vector<CandidateDecision>* explanation);

  // Reverts `seq` plus its transaction group (Section 4.6); in purge mode
  // optionally follows forward dependencies (Section 4.4). Returns the
  // number of updates reverted.
  uint64_t RevertCandidate(SeqNum seq, Tracer& tracer, CheckpointLog& log,
                           const ReactorConfig& config);

  MitigationOutcome MitigateLeak(const FaultInfo& fault, CheckpointLog& log,
                                 PmSystemTarget& target,
                                 const ReexecuteFn& reexecute,
                                 VirtualClock& clock,
                                 const ReactorConfig& config);

  const IrModule& model_;
  const GuidRegistry& registry_;
  std::unique_ptr<PointerAnalysis> pa_;
  std::unique_ptr<PmVariableInfo> pm_info_;
  std::unique_ptr<Pdg> pdg_;
  std::unique_ptr<Slicer> slicer_;
  ReactorTimings timings_;
};

}  // namespace arthas

#endif  // ARTHAS_REACTOR_REACTOR_H_
