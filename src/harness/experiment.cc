#include "harness/experiment.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "faults/study.h"
#include "harness/artifacts.h"
#include "obs/forensics.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "systems/cceh.h"
#include "systems/memcached_mini.h"
#include "systems/pelikan_mini.h"
#include "systems/pmemkv_mini.h"
#include "systems/redis_mini.h"
#include "workload/ycsb.h"

namespace arthas {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return h;
}

// Finds `n` distinct keys hashing to the same bucket (mod `buckets`).
std::vector<std::string> CollidingKeys(uint64_t buckets, int n,
                                       const std::string& seed_key) {
  std::vector<std::string> keys = {seed_key};
  const uint64_t target = Fnv1a(seed_key) % buckets;
  for (int i = 0; static_cast<int>(keys.size()) < n; i++) {
    std::string candidate = "c" + std::to_string(i);
    if (Fnv1a(candidate) % buckets == target) {
      keys.push_back(candidate);
    }
  }
  return keys;
}

Request MakePut(const std::string& k, const std::string& v) {
  Request r;
  r.op = Request::Op::kPut;
  r.key = k;
  r.value = v;
  return r;
}

Request MakeGet(const std::string& k, bool must_exist = false) {
  Request r;
  r.op = Request::Op::kGet;
  r.key = k;
  r.must_exist = must_exist;
  return r;
}

Request MakeOp(Request::Op op, const std::string& k,
               const std::string& v = "") {
  Request r;
  r.op = op;
  r.key = k;
  r.value = v;
  return r;
}

}  // namespace

const char* SolutionName(Solution solution) {
  switch (solution) {
    case Solution::kArthas:
      return "Arthas";
    case Solution::kPmCriu:
      return "pmCRIU";
    case Solution::kArCkpt:
      return "ArCkpt";
  }
  return "?";
}

FaultExperiment::FaultExperiment(ExperimentConfig config)
    : config_(config), rng_(config.seed) {}

FaultExperiment::~FaultExperiment() = default;

uint64_t FaultExperiment::CurrentSeconds() const {
  return static_cast<uint64_t>(clock_.Now() / kSecond);
}

void FaultExperiment::BuildScript() {
  const FaultId fault = config_.fault;
  trigger_at_ = config_.run_duration / 2;
  value_check_ = [] { return OkStatus(); };

  // --- Memcached faults (f1-f5) ---------------------------------------------
  if (fault == FaultId::kF1RefcountOverflow ||
      fault == FaultId::kF2FlushAllLogic ||
      fault == FaultId::kF3HashtableLockRace ||
      fault == FaultId::kF4AppendIntOverflow ||
      fault == FaultId::kF5RehashFlagBitflip) {
    MemcachedOptions options;
    if (fault == FaultId::kF5RehashFlagBitflip) {
      options.hashtable_buckets = 16;  // expand early so the rehash flag has
                                       // a checkpointed history
    } else {
      // Production-sized table: the workload's keys do not share buckets
      // with the fault's keys.
      options.hashtable_buckets = 1024;
    }
    auto mc = std::make_unique<MemcachedMini>(options);
    MemcachedMini* sys = mc.get();
    system_ = std::move(mc);

    YcsbConfig wl;
    // f5 uses a small uniform key space so the table expands early (giving
    // the rehash flag a checkpointed history).
    wl.key_space = fault == FaultId::kF5RehashFlagBitflip ? 200 : 100;
    wl.uniform = fault == FaultId::kF5RehashFlagBitflip;
    auto workload =
        std::make_shared<YcsbWorkload>(wl, config_.seed ^ 0x9999);
    workload_op_ = [this, sys, workload] {
      sys->SetTime(static_cast<int64_t>(CurrentSeconds()));
      Request req = workload->Next();
      if (req.op == Request::Op::kPut) {
        expected_[req.key] = req.value;
      }
      sys->Handle(req);
    };

    switch (fault) {
      case FaultId::kF1RefcountOverflow: {
        auto keys = CollidingKeys(options.hashtable_buckets, 3, "f1seed");
        trigger_ = [this, sys, keys] {
          sys->Handle(MakePut(keys[0], "vvvv"));
          sys->Handle(MakePut(keys[1], "vvvv"));
          for (int i = 0; i < 255; i++) {
            sys->Handle(MakeOp(Request::Op::kHold, keys[0]));
          }
          sys->Handle(MakePut(keys[2], "vv"));
        };
        bug_check_ = [this, sys, keys] { sys->Handle(MakeGet(keys[0])); };
        break;
      }
      case FaultId::kF2FlushAllLogic: {
        trigger_ = [this, sys] {
          Request flush = MakeOp(Request::Op::kFlushAll, "");
          flush.int_arg = 600;  // scheduled 10 minutes into the future
          sys->Handle(flush);
        };
        bug_check_ = [this, sys] {
          if (!expected_.empty()) {
            sys->Handle(MakeGet(expected_.begin()->first, true));
          }
        };
        break;
      }
      case FaultId::kF3HashtableLockRace: {
        // The race happens naturally, early in the run.
        trigger_at_ = kSecond * static_cast<int64_t>(20 + rng_.NextBelow(35));
        auto keys = CollidingKeys(options.hashtable_buckets, 3, "f3seed");
        trigger_ = [this, sys, keys] {
          sys->Handle(MakePut(keys[0], "base"));
          sys->OpenRaceWindow();
          sys->Handle(MakePut(keys[1], "dropped"));
          sys->Handle(MakePut(keys[2], "winner"));
        };
        bug_check_ = [this, sys, keys] {
          sys->Handle(MakeGet(keys[1], true));
        };
        break;
      }
      case FaultId::kF4AppendIntOverflow: {
        bug_check_every_ops_ = 1;  // the appending client reads back at once
        trigger_ = [this, sys] {
          // Appendee and victim land in the same size class, making them
          // buddy-adjacent in the heap; the overrunning copy clobbers the
          // victim's item fields.
          const std::string victim_value(210, 'v');
          sys->Handle(MakePut("appendee", std::string(200, 'a')));
          sys->Handle(MakePut("f4victim", victim_value));
          sys->Handle(
              MakeOp(Request::Op::kAppend, "appendee", std::string(100, 'b')));
          expected_["f4victim"] = victim_value;
        };
        bug_check_ = [this, sys] { sys->Handle(MakeGet("f4victim")); };
        value_check_ = [this, sys] {
          // A missing victim is data loss (a coarse restore may predate
          // it); a *wrong* value is an inconsistency.
          Response r = sys->Handle(MakeGet("f4victim"));
          if (r.found && r.value != std::string(210, 'v')) {
            return Corruption("victim value damaged");
          }
          return OkStatus();
        };
        break;
      }
      case FaultId::kF5RehashFlagBitflip: {
        // Every lookup goes through the flag: wrongful misses surface fast.
        bug_check_every_ops_ = 120;
        // The flip usually lands in the first minute, before pmCRIU's first
        // snapshot (paper: 1/10 success probability for pmCRIU).
        trigger_at_ = rng_.NextBool(0.9)
                          ? kSecond * static_cast<int64_t>(
                                          15 + rng_.NextBelow(40))
                          : kSecond * static_cast<int64_t>(
                                          70 + rng_.NextBelow(80));
        trigger_ = [sys] { sys->InjectRehashFlagBitFlip(); };
        bug_check_ = [this, sys] {
          if (!expected_.empty()) {
            sys->Handle(MakeGet(expected_.begin()->first, true));
          }
        };
        break;
      }
      default:
        break;
    }
    return;
  }

  // --- Redis faults (f6-f8) ---------------------------------------------------
  if (fault == FaultId::kF6ListpackOverflow ||
      fault == FaultId::kF7RefcountLogicBug ||
      fault == FaultId::kF8SlowlogLeak) {
    RedisOptions options;
    if (fault == FaultId::kF6ListpackOverflow) {
      options.dict_buckets = 256;  // production-sized dict
    }
    if (fault == FaultId::kF8SlowlogLeak) {
      // Leak rate relative to the snapshot interval: with probability ~0.7
      // the pool fills before pmCRIU's first snapshot (paper: 4/10
      // successes).
      options.pool_size =
          rng_.NextBool(0.71) ? 160 * 1024 : 1 * 1024 * 1024;
    }
    auto rd = std::make_unique<RedisMini>(options);
    RedisMini* sys = rd.get();
    system_ = std::move(rd);

    YcsbConfig wl;
    // f8 bounds the live-item space so the leak dominates pool usage; the
    // other Redis faults run a production-sized key space.
    wl.key_space = fault == FaultId::kF8SlowlogLeak ? 50 : 250;
    wl.value_size = fault == FaultId::kF8SlowlogLeak ? 400 : 16;
    auto workload =
        std::make_shared<YcsbWorkload>(wl, config_.seed ^ 0x7777);
    auto push_count = std::make_shared<int>(0);
    workload_op_ = [this, sys, workload, push_count, fault] {
      if (fault == FaultId::kF6ListpackOverflow && *push_count < 45 &&
          rng_.NextBool(0.1)) {
        (*push_count)++;
        sys->Handle(
            MakeOp(Request::Op::kListPush, "biglist", std::string(88, 'x')));
        return;
      }
      Request req = workload->Next();
      if (req.op == Request::Op::kPut) {
        expected_[req.key] = req.value;
      }
      sys->Handle(req);
    };

    switch (fault) {
      case FaultId::kF6ListpackOverflow: {
        // Clients read the list periodically.
        bug_check_every_ops_ = 800;
        trigger_ = [this, sys] {
          // One more large element pushes the listpack across the 4 KiB
          // boundary; the insertion succeeds but the size header is
          // corrupted (paper 2.3). Nothing reads the listpack yet.
          sys->Handle(MakeOp(Request::Op::kListPush, "biglist",
                             std::string(200, 'y')));
        };
        bug_check_ = [this, sys] {
          sys->Handle(MakeOp(Request::Op::kListRead, "biglist"));
        };
        break;
      }
      case FaultId::kF7RefcountLogicBug: {
        // The shared object is long-lived production state created during
        // the workload (so coarse snapshots contain it); the trigger is
        // only the delete request.
        auto setup_done = std::make_shared<bool>(false);
        auto base_op = workload_op_;
        workload_op_ = [this, sys, setup_done, base_op] {
          if (!*setup_done) {
            *setup_done = true;
            sys->Handle(MakePut("f7shared", "sharedval"));
            (void)sys->Share("f7shared", "f7alias");
          }
          base_op();
        };
        trigger_ = [this, sys] {
          sys->Handle(MakeOp(Request::Op::kDelete, "f7shared"));
        };
        bug_check_ = [this, sys] { sys->Handle(MakeGet("f7alias", true)); };
        value_check_ = [this, sys] {
          Response r = sys->Handle(MakeGet("f7alias"));
          if (r.found && r.value != "sharedval") {
            return Corruption("shared value damaged after recovery");
          }
          return OkStatus();
        };
        break;
      }
      case FaultId::kF8SlowlogLeak: {
        // Happens naturally: every large put is slow-logged and pruning
        // leaks. No external trigger.
        trigger_at_ = config_.run_duration + 1;  // never fires
        leak_fault_ = true;
        leak_guid_ = kGuidRdSlowlogAlloc;
        trigger_ = [] {};
        // Re-run the failing request: a slow put that must allocate both a
        // value object and a slowlog entry.
        bug_check_ = [this, sys] {
          sys->Handle(MakePut("user0", std::string(400, 'v')));
        };
        break;
      }
      default:
        break;
    }
    return;
  }

  // --- CCEH (f9) ---------------------------------------------------------------
  if (fault == FaultId::kF9DirectoryDoubling) {
    auto cc = std::make_unique<Cceh>();
    Cceh* sys = cc.get();
    system_ = std::move(cc);

    auto inserts = std::make_shared<InsertWorkload>("cckey", 8,
                                                    config_.seed ^ 0x3333);
    workload_op_ = [sys, inserts] { sys->Handle(inserts->Next()); };
    // The workload is pure insertion: the very next requests after the
    // crash walk into the inconsistent directory.
    bug_check_every_ops_ = 1;
    trigger_ = [this, sys, inserts] {
      // The untimely crash: inside the crash window the doubling's global-
      // depth clwb has not executed yet. Drive insertions until a doubling
      // happens, then crash-restart: the stale durable depth now governs.
      sys->OpenCrashWindow();
      const uint64_t depth = sys->global_depth();
      for (int i = 0; i < 20000 && sys->global_depth() == depth; i++) {
        sys->Handle(inserts->Next());
      }
      for (int i = 0; i < 5; i++) {
        sys->Handle(inserts->Next());
      }
      sys->CloseCrashWindow();
      (void)system_->Restart();
    };
    bug_check_ = [sys] {
      // The production workload eventually inserts into a full segment
      // whose local depth exceeds the stale global depth; fast-forward by
      // filling exactly those inconsistent segments until one is full (or
      // the structure proves consistent).
      for (int i = 0; i < 12 && !sys->last_fault().has_value(); i++) {
        auto stuck = sys->FindKeyForInconsistentSegment(/*require_full=*/true);
        if (stuck.ok()) {
          sys->Handle(MakePut(*stuck, "p"));
          return;
        }
        auto filler =
            sys->FindKeyForInconsistentSegment(/*require_full=*/false);
        if (!filler.ok()) {
          sys->Handle(MakePut("ccprobe", "p"));  // structure is consistent
          return;
        }
        sys->Handle(MakePut(*filler, "p"));
      }
    };
    return;
  }

  // --- Pelikan (f10, f11) -------------------------------------------------------
  if (fault == FaultId::kF10ValueLenOverflow ||
      fault == FaultId::kF11NullStats) {
    auto pl = std::make_unique<PelikanMini>();
    PelikanMini* sys = pl.get();
    system_ = std::move(pl);

    auto inserts = std::make_shared<InsertWorkload>("plkey", 24,
                                                    config_.seed ^ 0x5555);
    workload_op_ = [this, sys, inserts] {
      Request req = inserts->Next();
      expected_[req.key] = req.value;
      sys->Handle(req);
    };

    if (fault == FaultId::kF10ValueLenOverflow) {
      bug_check_every_ops_ = 1;  // the oversized put's client reads back
      trigger_ = [this, sys] {
        // Same size class -> buddy-adjacent blocks.
        const std::string victim_value(90, 'v');
        sys->Handle(MakePut("pl_a", std::string(90, 'a')));
        sys->Handle(MakePut("pl_victim", victim_value));
        sys->Handle(MakeOp(Request::Op::kDelete, "pl_a"));
        // Reuses pl_a's freed block whole (the wrapped length under-sizes
        // the request); the 300-byte copy overruns into pl_victim.
        sys->Handle(MakePut("pl_big", std::string(300, 'b')));
        expected_["pl_victim"] = victim_value;
      };
      bug_check_ = [this, sys] { sys->Handle(MakeGet("pl_victim")); };
      value_check_ = [this, sys] {
        Response r = sys->Handle(MakeGet("pl_victim"));
        if (r.found && r.value != std::string(90, 'v')) {
          return Corruption("victim value damaged");
        }
        return OkStatus();
      };
    } else {
      trigger_ = [this, sys] {
        sys->Handle(MakeOp(Request::Op::kStats, "reset"));
      };
      bug_check_ = [this, sys] {
        sys->Handle(MakeOp(Request::Op::kStats, "show"));
      };
    }
    return;
  }

  // --- PMEMKV (f12) --------------------------------------------------------------
  if (fault == FaultId::kF12AsyncLazyFree) {
    auto kv = std::make_unique<PmemkvMini>();
    PmemkvMini* sys = kv.get();
    system_ = std::move(kv);
    leak_fault_ = true;
    leak_guid_ = kGuidKvAllocSite;

    auto counter = std::make_shared<uint64_t>(0);
    workload_op_ = [this, sys, counter] {
      // Put/delete churn: every deleted entry waits on the volatile
      // deferred-free queue that never runs with f12 armed.
      const uint64_t i = (*counter)++;
      const std::string key = "kvchurn" + std::to_string(i);
      sys->Handle(MakePut(key, std::string(96, 'v')));
      sys->Handle(MakeOp(Request::Op::kDelete, key));
      if (i % 50 == 0) {
        // Periodic restarts lose the queue even if the worker were to run.
        (void)system_->Restart();
      }
    };
    trigger_at_ = config_.run_duration + 1;  // manifests on its own
    trigger_ = [] {};
    bug_check_ = [this, sys] {
      sys->Handle(MakePut("kvprobe", std::string(96, 'p')));
      sys->Handle(MakeOp(Request::Op::kDelete, "kvprobe"));
    };
    return;
  }

  assert(false && "unhandled fault id");
}

void FaultExperiment::WorkloadStep() {
  workload_op_();
  // The live-telemetry throughput series: the sampler scrapes this counter
  // into per-tick deltas, which is the recovery curve the TimelineAnalyzer
  // reads (throughput_series = "harness.op.count").
  ARTHAS_COUNTER_ADD("harness.op.count", 1);
}

void FaultExperiment::ApplyTrigger() {
  RecordFaultInjection(DescriptorFor(config_.fault));
  ARTHAS_TIMELINE_MARK("fault_injected");
  trigger_();
  triggered_ = true;
}

void FaultExperiment::BugCheck() { bug_check_(); }

RunObservation FaultExperiment::Reexecute() {
  RunObservation obs;
  (void)system_->Restart();
  if (!system_->last_fault().has_value()) {
    BugCheck();
  }
  if (!system_->last_fault().has_value() && leak_fault_) {
    auto leak = detector_.CheckPmUsage(system_->pool(), leak_guid_);
    if (leak.has_value()) {
      obs.fault = leak;
    }
  }
  if (system_->last_fault().has_value()) {
    obs.fault = system_->last_fault();
  }
  obs.pm_used_bytes = system_->pool().stats().used_bytes;
  obs.item_count = system_->ItemCount();
  return obs;
}

bool FaultExperiment::EvaluateConsistency() {
  // (1) Pool-level checks (the pmempool-check analogue) and the system's
  // domain invariants.
  if (Status s = system_->CheckConsistency(); !s.ok()) {
    ARTHAS_LOG(Debug) << "consistency: domain check failed: " << s.ToString();
    return false;
  }
  // (2) Value verification for the keys the fault touched.
  if (Status s = value_check_(); !s.ok()) {
    ARTHAS_LOG(Debug) << "consistency: value check failed: " << s.ToString();
    return false;
  }
  // (3) Stability workload: 20 virtual minutes of mixed requests, including
  // deletions of pre-existing keys (this is where f4's wrapped slab size
  // occasionally aborts under purge mode).
  std::vector<std::string> known;
  for (const auto& [key, value] : expected_) {
    known.push_back(key);
  }
  for (int i = 0; i < 200; i++) {
    clock_.Advance(6 * kSecond);
    if (auto* mc = dynamic_cast<MemcachedMini*>(system_.get())) {
      mc->SetTime(static_cast<int64_t>(CurrentSeconds()));
    }
    if (!known.empty() && rng_.NextBool(0.1)) {
      const std::string& key = known[rng_.NextBelow(known.size())];
      system_->Handle(MakeOp(Request::Op::kDelete, key));
    } else {
      const std::string key = "stab" + std::to_string(i);
      system_->Handle(MakePut(key, "stabval"));
      system_->Handle(MakeGet(key));
    }
    if (system_->last_fault().has_value()) {
      ARTHAS_LOG(Debug) << "consistency: stability workload faulted: "
                        << system_->last_fault()->message;
      return false;
    }
  }
  if (Status s = system_->CheckConsistency(); !s.ok()) {
    ARTHAS_LOG(Debug) << "consistency: post-stability check failed: "
                      << s.ToString();
    return false;
  }
  return true;
}

ExperimentResult FaultExperiment::Run() {
  const obs::RegistrySnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  ARTHAS_SCOPED_PHASE("harness.cell.ns", kHarnessCell);
  ARTHAS_COUNTER_ADD("harness.cell.count", 1);

  ExperimentResult result = RunInner();

  if (checkpoint_ != nullptr) {
    // Exercise the checkpoint log's persistence path once per cell so its
    // serialize latency (Section 6.4 overhead accounting) always has
    // samples; Serialize() records checkpoint.serialize.ns itself.
    const std::vector<uint8_t> image = checkpoint_->Serialize();
    ARTHAS_GAUGE_SET("checkpoint.image.bytes", image.size());
  }

  CellRecord record;
  record.fault = DescriptorFor(config_.fault).label;
  record.solution = SolutionName(config_.solution);
  record.substrate = SubstrateKindName(config_.substrate);
  record.recovered = result.recovered;
  record.attempts = result.attempts;
  record.mitigation_time_us = result.mitigation_time;
  // Post-mortem: replay the flight recorder against this cell's device and
  // publish the report (the artifact writer picks up the latest one). With
  // the recorder compiled out or no crash in the cell, present stays false.
  obs::ForensicsReport forensics =
      obs::AnalyzeCrash(system_->pool().device());
  if (forensics.present) {
    record.forensics_lost_lines = forensics.lost_lines.size();
    record.forensics_open_txs = forensics.open_txs.size();
    record.forensics_open_sections = forensics.open_sections.size();
    record.forensics_summary = forensics.summary;
    obs::SetLatestForensics(std::move(forensics));
  }
  record.counter_deltas =
      obs::CounterDeltas(before, obs::MetricsRegistry::Global().Snapshot());
  RecordCell(std::move(record));
  return result;
}

ExperimentResult FaultExperiment::RunInner() {
  ExperimentResult result;
  result.fault = config_.fault;
  result.solution = config_.solution;

  BuildScript();
  system_->ArmFault(config_.fault);

  // Substrate selection. pmCRIU cells under the default substrate keep
  // today's uninstrumented run (whole-image snapshots need no checkpoint
  // log); every other combination attaches the configured substrate, and
  // checkpoint_ borrows its log (null under FASE — consumers that need a
  // log refuse instead of reaching for one that does not exist).
  if (config_.substrate != SubstrateKind::kArthasCheckpoint ||
      config_.solution != Solution::kPmCriu) {
    SubstrateOptions options;
    options.checkpoint_max_versions = config_.reactor.max_versions;
    substrate_ = MakeSubstrate(config_.substrate, options);
    if (Status s = substrate_->Attach(system_->pool()); !s.ok()) {
      result.detail = "substrate attach failed: " + s.ToString();
      return result;
    }
    system_->set_substrate(substrate_.get());
    checkpoint_ = substrate_->checkpoint_log();
  }
  if (config_.solution == Solution::kPmCriu) {
    pmcriu_ =
        std::make_unique<PmCriu>(system_->pool().device(), config_.pmcriu);
  }

  // Live-telemetry probes, evaluated on the sampler thread each tick. Both
  // read lock-free / latch-protected state, so they are safe against the
  // single-threaded experiment loop. The RAII guard unregisters them on
  // every exit path (after UnregisterProbe returns, the sampler never
  // calls the lambdas again, so the captured pointers cannot dangle).
  struct ProbeGuard {
    obs::ProbeId pending = obs::kNoProbe;
    obs::ProbeId fault = obs::kNoProbe;
    ~ProbeGuard() {
      ARTHAS_TELEMETRY_UNPROBE(pending);
      ARTHAS_TELEMETRY_UNPROBE(fault);
    }
  } probes;
  probes.pending = ARTHAS_TELEMETRY_PROBE(
      "harness.pending.lines", obs::ProbeKind::kGauge,
      [device = &system_->pool().device()] {
        return static_cast<double>(device->PendingLineCount());
      });
  probes.fault = ARTHAS_TELEMETRY_PROBE(
      "harness.fault.latched", obs::ProbeKind::kGauge,
      [system = system_.get()] {
        return system->last_fault().has_value() ? 1.0 : 0.0;
      });

  // --- Run the workload; trigger half-way; detect the failure. ---------------
  std::optional<FaultInfo> first_fault;
  while (clock_.Now() < config_.run_duration) {
    clock_.Advance(config_.op_interval);
    if (pmcriu_ != nullptr) {
      pmcriu_->MaybeSnapshot(clock_.Now(), system_->ItemCount());
    }
    if (!triggered_ && clock_.Now() >= trigger_at_) {
      ApplyTrigger();
      result.triggered = true;
    }
    if (!system_->last_fault().has_value()) {
      WorkloadStep();
      if (triggered_) {
        op_index_++;  // ops since the trigger drive the bug-check cadence
      }
    }
    if (triggered_ && !system_->last_fault().has_value() &&
        op_index_ % bug_check_every_ops_ == 0) {
      BugCheck();
    }
    if (!system_->last_fault().has_value() && leak_fault_) {
      auto leak = detector_.CheckPmUsage(system_->pool(), leak_guid_);
      if (leak.has_value()) {
        first_fault = leak;
        if (!triggered_) {
          ARTHAS_TIMELINE_MARK("fault_injected");  // manifested on its own
        }
        result.triggered = true;
        break;
      }
    }
    if (system_->last_fault().has_value()) {
      first_fault = system_->last_fault();
      if (!triggered_) {
        ARTHAS_TIMELINE_MARK("fault_injected");  // manifested on its own
      }
      result.triggered = true;  // natural faults count as triggered
      break;
    }
  }
  if (!first_fault.has_value()) {
    result.detail = "failure did not manifest";
    return result;
  }
  result.items_before = system_->ItemCount();
  const uint64_t persists_at_failure =
      system_->pool().device().stats().persists;
  if (checkpoint_ != nullptr) {
    result.checkpoint_updates_total = checkpoint_->stats().records;
  }

  // Detection + hard-failure confirmation: the symptom must recur across a
  // restart with a similar fingerprint (Section 4.3).
  (void)detector_.Observe(first_fault);
  ARTHAS_TIMELINE_MARK("detector_fired");
  result.detected = true;
  RunObservation confirm = Reexecute();
  if (detector_.Observe(confirm.fault) !=
      Detector::Assessment::kSuspectedHardFailure) {
    // The restart cleared it: a soft failure after all.
    result.recovered = !confirm.fault.has_value();
    result.detail = "failure did not recur; plain restart sufficed";
    return result;
  }
  const FaultInfo hard_fault = *confirm.fault;

  // --- Mitigate. ---------------------------------------------------------------
  auto reexecute = [this]() { return Reexecute(); };
  const uint64_t reverted_before =
      checkpoint_ != nullptr ? checkpoint_->stats().reverted_updates.load()
                             : 0;

  switch (config_.solution) {
    case Solution::kArthas: {
      reactor_ = std::make_unique<Reactor>(system_->ir_model(),
                                           system_->guid_registry());
      MitigationOutcome outcome =
          reactor_->Mitigate(hard_fault, system_->tracer(), *substrate_,
                             *system_, reexecute, clock_, config_.reactor);
      result.recovered = outcome.recovered;
      result.timed_out = outcome.timed_out;
      result.empty_plan = outcome.empty_plan;
      result.reversion_refused = outcome.reversion_refused;
      result.attempts = outcome.reexecutions;
      result.mitigation_time = outcome.elapsed;
      result.leaked_objects_freed = outcome.freed_leak_objects;
      result.detail = outcome.detail;
      break;
    }
    case Solution::kPmCriu: {
      PmCriuOutcome outcome = pmcriu_->Mitigate(reexecute, clock_);
      result.recovered = outcome.recovered;
      result.attempts = outcome.restores;
      result.mitigation_time = outcome.elapsed;
      result.detail = outcome.recovered
                          ? "restored snapshot"
                          : "no snapshot restored the system";
      if (outcome.recovered && persists_at_failure > 0) {
        // Coarse restore discards every state update made after the
        // restored image was taken.
        const uint64_t kept =
            std::min(outcome.restored_persist_count, persists_at_failure);
        result.discarded_fraction =
            static_cast<double>(persists_at_failure - kept) /
            static_cast<double>(persists_at_failure);
      }
      break;
    }
    case Solution::kArCkpt: {
      if (checkpoint_ == nullptr) {
        // Time-ordered reversion needs the checkpoint log's history; under
        // FASE there is none. Refuse cleanly and probe one plain restart
        // (whose recovery already rolled incomplete sections back).
        result.reversion_refused = true;
        clock_.Advance(config_.reactor.reexecution_delay);
        const RunObservation obs = reexecute();
        result.attempts = 1;
        result.recovered = !obs.fault.has_value();
        result.mitigation_time = config_.reactor.reexecution_delay;
        result.detail = "reversion refused: substrate '" +
                        std::string(substrate_->name()) +
                        "' keeps no checkpoint log";
        break;
      }
      ArCkpt arckpt(config_.arckpt);
      ArCkptOutcome outcome = arckpt.Mitigate(*checkpoint_, reexecute, clock_);
      result.recovered = outcome.recovered;
      result.timed_out = outcome.timed_out;
      result.attempts = outcome.reexecutions;
      result.mitigation_time = outcome.elapsed;
      result.detail =
          outcome.timed_out ? "timed out in time-ordered reversion" : "";
      break;
    }
  }

  if (result.recovered) {
    ARTHAS_TIMELINE_MARK("reversion_done");
  }

  result.items_after = system_->ItemCount();
  if (checkpoint_ != nullptr) {
    result.checkpoint_updates_discarded =
        checkpoint_->stats().reverted_updates - reverted_before;
    if (result.checkpoint_updates_total > 0) {
      result.discarded_fraction =
          static_cast<double>(result.checkpoint_updates_discarded) /
          static_cast<double>(result.checkpoint_updates_total);
    }
  }

  if (result.recovered && config_.post_recovery_ops > 0) {
    // Throughput-recovery tail for the live telemetry plane: keep serving
    // the production workload so the sampler watches the rate climb back
    // to (and sustain) the pre-fault level.
    for (int i = 0; i < config_.post_recovery_ops &&
                    !system_->last_fault().has_value();
         i++) {
      clock_.Advance(config_.op_interval);
      WorkloadStep();
    }
  }

  if (config_.evaluate_consistency && result.recovered) {
    result.consistent = EvaluateConsistency();
  }
  return result;
}

ExperimentResult RunCell(FaultId fault, Solution solution, uint64_t seed,
                         ReversionMode mode, bool evaluate_consistency,
                         SubstrateKind substrate) {
  ExperimentConfig config;
  config.fault = fault;
  config.solution = solution;
  config.seed = seed;
  config.reactor.mode = mode;
  config.evaluate_consistency = evaluate_consistency;
  config.substrate = substrate;
  FaultExperiment experiment(config);
  return experiment.Run();
}

}  // namespace arthas
