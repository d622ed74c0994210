// Client-server reactor deployment (paper Section 5).
//
// Computing the PDG and the pointer analysis takes long for large programs,
// and the PM trace grows continuously; doing either on the mitigation
// critical path would delay recovery. The paper therefore runs the reactor
// as a server: it starts as soon as the target's code is available,
// computes the PDG in the background, re-uses it until the code changes,
// and incrementally parses the trace file; the detector contacts it over
// RPC when a hard failure is suspected, and the server answers with a
// reversion plan quickly (the paper puts only slicing on the critical path
// — Table 9; the trace ⋈ checkpoint join is on it too, see reactor.h).
//
// This facade reproduces that split in-process: requests and responses are
// plain serializable structs (the RPC boundary), the server owns the
// precomputed Reactor and an incrementally-ingested trace copy, and
// repeated requests against the same code version reuse all static state.

#ifndef ARTHAS_REACTOR_REACTOR_SERVER_H_
#define ARTHAS_REACTOR_REACTOR_SERVER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/resource/growth_analyzer.h"
#include "obs/resource/resource_accountant.h"
#include "obs/timeseries.h"
#include "reactor/reactor.h"

namespace arthas {

// What the detector sends over the wire.
struct MitigationRequest {
  FaultInfo fault;
  ReactorConfig config;

  // Wire format: "kind guid address exit_code" (the stack and message are
  // diagnostic-only and elided).
  std::string Serialize() const;
  static Result<MitigationRequest> Parse(const std::string& text);
};

// What the server answers with before execution: the reversion plan, for
// operator inspection (the paper presents the plan for confirmation).
struct PlanResponse {
  std::vector<SeqNum> candidates;
  bool empty_plan = false;
  int64_t slicing_ns = 0;

  std::string Serialize() const;
  static Result<PlanResponse> Parse(const std::string& text);
};

// Answer to an `explain` request: the plan annotated with why each
// candidate was accepted into (or rejected from) the reversion plan, plus
// the active consistency substrate and — when the substrate cannot revert —
// the explicit refusal reason (the plan is then empty by construction).
struct ExplainResponse {
  std::string substrate = "arthas";  // active substrate's stable token
  bool revert_capable = true;
  // Stable token naming why reversion was refused; "-" when it was not.
  std::string refusal_reason = "-";
  std::vector<CandidateDecision> candidates;

  // Wire format: "substrate revert_capable refusal_reason" then one
  // "seq rank accepted reason" token group per candidate.
  std::string Serialize() const;
  static Result<ExplainResponse> Parse(const std::string& text);
};

// `stats` request: poll the live telemetry plane of a running reactor
// deployment — which series to return and how many tail points of each.
struct StatsRequest {
  // Series-name prefix filter; empty selects every series.
  std::string prefix;
  // Newest points returned per series.
  uint64_t tail_points = 32;

  // Wire format: "prefix tail_points", with "-" standing in for the empty
  // prefix (metric names never contain spaces or a bare "-").
  std::string Serialize() const;
  static Result<StatsRequest> Parse(const std::string& text);
};

struct StatsResponse {
  int requests_served = 0;
  bool sampler_running = false;
  uint64_t samples_taken = 0;
  std::vector<obs::SeriesSnapshot> series;

  // Wire format: "requests running samples nseries" then, per series,
  // "name kind total_points npoints (t_ns value)*".
  std::string Serialize() const;
  static Result<StatsResponse> Parse(const std::string& text);
};

// `health` request: ask a live reactor "are you healthy?".
struct HealthRequest {
  // The throughput series the verdict is computed over.
  std::string throughput_series = "harness.op.count";

  std::string Serialize() const;
  static Result<HealthRequest> Parse(const std::string& text);
};

enum class HealthVerdict {
  kHealthy,     // no fault in the sampling window, or throughput recovered
  kRecovering,  // fault seen and the detector/reactor is working on it
  kDegraded,    // fault seen, no detection or recovery progress yet
};
const char* HealthVerdictName(HealthVerdict verdict);

struct HealthResponse {
  HealthVerdict verdict = HealthVerdict::kHealthy;
  bool sampler_running = false;
  bool has_fault = false;
  // -1 where the timeline does not (yet) contain the phase.
  int64_t time_to_detect_ns = -1;
  int64_t time_to_recover_ns = -1;
  double pre_fault_rate_ops_per_sec = 0;
  // Active consistency substrate token; "-" when the server has none set.
  std::string substrate = "-";
  // SLO burn state from SloTracker::Global(): -1 when no tracker is
  // configured, else 0/1. A sustained breach (burn > 1 on every window of
  // some target) degrades an otherwise-healthy verdict to kDegraded.
  int slo_breached = -1;
  double slo_worst_burn = 0;

  // Wire format: "verdict running has_fault ttd ttr pre_rate substrate
  // slo_breached slo_worst_burn" (the trailing substrate and SLO tokens
  // are accepted missing, for older peers).
  std::string Serialize() const;
  static Result<HealthResponse> Parse(const std::string& text);
};

// `capacity` request: the accountant's byte-exact cell snapshot plus the
// growth verdicts fitted over the matching sampler series — the wire face
// of the capacity plane (ROADMAP item 6's "will it fit tomorrow" loop).
struct CapacityRequest {
  // Sampler-series prefix the growth verdicts are fitted over. The default
  // selects the accountant's own published series.
  std::string prefix = "resource.";

  // Wire format: "prefix", with "-" standing in for the default.
  std::string Serialize() const;
  static Result<CapacityRequest> Parse(const std::string& text);
};

struct CapacityResponse {
  bool accountant_enabled = true;
  std::vector<obs::ResourceCellSnapshot> cells;
  std::vector<obs::GrowthVerdict> verdicts;

  // Wire format: "enabled ncells nverdicts" then, per cell,
  // "name unit value budget", then, per verdict,
  // "series class slope_per_sec last_value budget time_to_budget_sec
  //  points window_ns".
  std::string Serialize() const;
  static Result<CapacityResponse> Parse(const std::string& text);
};

class ReactorServer {
 public:
  // "Server start": runs static analysis + PDG construction for the
  // target's code. Reused across mitigations until the code changes.
  ReactorServer(const IrModule& model, const GuidRegistry& registry);

  // Incremental trace ingestion (the paper's background trace parser):
  // appends new serialized trace lines to the server-side copy.
  Status IngestTrace(const std::string& trace_lines);

  // Plan computation (the fast path: slicing + trace join only).
  PlanResponse ComputePlan(const MitigationRequest& request,
                           const CheckpointLog& log);

  // `explain` request: same plan computation, but the answer carries the
  // accept/reject decision and reason for every candidate considered.
  ExplainResponse Explain(const MitigationRequest& request,
                          const CheckpointLog& log);

  // Substrate-aware `explain`: when the substrate is revert-capable this
  // is the plan computation over its checkpoint log; otherwise the
  // response is an explicit clean refusal (revert_capable = false,
  // refusal_reason set, empty plan).
  ExplainResponse Explain(const MitigationRequest& request,
                          const ConsistencySubstrate& substrate);

  // Full mitigation on behalf of a confirmed request.
  MitigationOutcome Execute(const MitigationRequest& request,
                            CheckpointLog& log, PmSystemTarget& target,
                            const ReexecuteFn& reexecute, VirtualClock& clock);

  // Substrate-aware mitigation: delegates to the reactor's substrate entry
  // point, which refuses reversion (one restart probe) when the substrate
  // keeps no version history.
  MitigationOutcome Execute(const MitigationRequest& request,
                            ConsistencySubstrate& substrate,
                            PmSystemTarget& target,
                            const ReexecuteFn& reexecute, VirtualClock& clock);

  // Which consistency substrate the served deployment runs under; Health
  // and Explain responses report it. Null resets to "unset".
  void set_active_substrate(const ConsistencySubstrate* substrate) {
    active_substrate_ = substrate;
  }
  const ConsistencySubstrate* active_substrate() const {
    return active_substrate_;
  }

  // Text transport entry point for the network plane (src/net): one request
  // line in, one serialized response body out. Lines are the wire formats
  // above prefixed by a verb — "stats <StatsRequest>", "health
  // <HealthRequest>", "explain <MitigationRequest>", "capacity
  // <CapacityRequest>". `explain` answers against the active substrate and
  // fails cleanly when none is set.
  // Thread-safe: ServeLine, IngestTrace and the Execute overloads serialize
  // on one internal mutex (socket loop threads share this server with the
  // mitigation path); the typed methods below stay lock-free for the
  // existing single-threaded callers and must not be mixed with concurrent
  // ServeLine traffic.
  Result<std::string> ServeLine(const std::string& line);

  // Live introspection (paper Section 5's operator loop): the current
  // telemetry-sampler tail and a health verdict derived from the timeline.
  // Both read TelemetrySampler::Global() — the same plane the benches and
  // harness publish into — and work (returning empty/healthy) when the
  // sampler is stopped or the obs layer is compiled out.
  StatsResponse Stats(const StatsRequest& request);
  HealthResponse Health(const HealthRequest& request);
  // Capacity plane: ResourceAccountant::Global()'s cells plus
  // GrowthAnalyzer verdicts over TelemetrySampler::Global() series under
  // the request prefix, with budgets joined from the cells.
  CapacityResponse Capacity(const CapacityRequest& request);

  const ReactorTimings& timings() const { return reactor_->timings(); }
  // Number of mitigation plans served from the same precomputed PDG.
  int requests_served() const { return requests_served_; }

 private:
  std::unique_ptr<Reactor> reactor_;
  Tracer trace_copy_;
  int requests_served_ = 0;
  const ConsistencySubstrate* active_substrate_ = nullptr;
  // Serializes ServeLine / IngestTrace / Execute (see ServeLine's comment).
  std::mutex serve_mutex_;
};

}  // namespace arthas

#endif  // ARTHAS_REACTOR_REACTOR_SERVER_H_
