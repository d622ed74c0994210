// Unit tests for the reactor: reversion-plan derivation, fault-address
// prioritization, transaction grouping, purge's forward pass, the empty-
// plan soft-failure path, and the version-retry rounds — exercised against
// a small purpose-built PM program rather than the full target systems.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "analysis/slicer.h"
#include "checkpoint/checkpoint_log.h"
#include "common/crc32.h"
#include "obs/flight_recorder.h"
#include "reactor/reactor.h"
#include "reactor/reactor_server.h"
#include "systems/memcached_mini.h"
#include "systems/redis_mini.h"
#include "systems/system_base.h"

namespace arthas {
namespace {

constexpr Guid kGuidFlagStore = 901;
constexpr Guid kGuidDataStore = 902;
constexpr Guid kGuidOtherStore = 903;
constexpr Guid kGuidFaultSite = 904;

// A tiny system: a persistent flag and a data word; reading crashes when
// the flag holds a bad value. A third, independent field exists to verify
// it is never reverted. The IR model wires flag -> read (memory dep) and
// flag -> data (the data store is control-dependent on the flag).
class TinyTarget : public PmSystemBase {
 public:
  TinyTarget() : PmSystemBase("tiny", 128 * 1024) {
    root_ = *pool_->Zalloc(192);
    BuildModel();
  }

  struct Layout {
    uint64_t flag;    // field 0
    uint64_t data;    // field 1
    uint64_t other;   // field 2
  };

  Layout* state() { return pool_->Direct<Layout>(root_); }
  Oid root() const { return root_; }

  void StoreFlag(uint64_t v) {
    state()->flag = v;
    TracedPersist(root_, offsetof(Layout, flag), 8, kGuidFlagStore);
  }
  void StoreData(uint64_t v) {
    state()->data = v;
    TracedPersist(root_, offsetof(Layout, data), 8, kGuidDataStore);
  }
  void StoreOther(uint64_t v) {
    state()->other = v;
    TracedPersist(root_, offsetof(Layout, other), 8, kGuidOtherStore);
  }
  // The data store at another dynamic address: word `slot` after the
  // layout's fields.
  void StoreDataSlot(size_t slot, uint64_t v) {
    const size_t offset = sizeof(Layout) + 8 * slot;
    std::memcpy(pool_->Direct<uint8_t>(root_) + offset, &v, sizeof(v));
    TracedPersist(root_, offset, sizeof(v), kGuidDataStore);
  }

  // The "request": crashes while the flag is bad.
  bool Read() {
    if (state()->flag == 0xbad) {
      RaiseFault(FailureKind::kCrash, kGuidFaultSite,
                 root_.off + offsetof(Layout, flag), "bad flag", {"read"});
      return false;
    }
    return true;
  }

  Response HandleRequest(const Request&) override { return Response{}; }
  uint64_t ItemCount() override { return 1; }
  Status CheckConsistency() override { return OkStatus(); }

 protected:
  Status Recover() override {
    RecoveryTouch(root_.off);
    return OkStatus();
  }

 private:
  void BuildModel() {
    model_ = std::make_unique<IrModule>("tiny");
    IrBuilder b(*model_);
    IrGlobal* g = model_->CreateGlobal("g_state");

    IrFunction* init = model_->CreateFunction("init", 0);
    b.SetInsertPoint(init->CreateBlock("entry"));
    IrInstruction* s = b.PmMapFile("s");
    b.Store(s, g);
    b.Ret();

    IrFunction* update = model_->CreateFunction("update", 2);
    IrBasicBlock* entry = update->CreateBlock("entry");
    IrBasicBlock* then_b = update->CreateBlock("then");
    IrBasicBlock* done = update->CreateBlock("done");
    b.SetInsertPoint(entry);
    IrInstruction* s1 = b.Load(g, "s");
    b.Store(update->arg(0), b.FieldAddr(s1, 0, "flag_addr"), kGuidFlagStore);
    IrInstruction* flag = b.Load(b.FieldAddr(s1, 0, "flag_addr2"), "flag");
    b.CondBr(b.Cmp(flag, b.Const(0), "c"), then_b, done);
    b.SetInsertPoint(then_b);
    b.Store(update->arg(1), b.FieldAddr(s1, 1, "data_addr"), kGuidDataStore);
    b.Br(done);
    b.SetInsertPoint(done);
    b.Ret();

    IrFunction* touch_other = model_->CreateFunction("touch_other", 1);
    b.SetInsertPoint(touch_other->CreateBlock("entry"));
    IrInstruction* s2 = b.Load(g, "s");
    b.Store(touch_other->arg(0), b.FieldAddr(s2, 2, "other_addr"),
            kGuidOtherStore);
    b.Ret();

    IrFunction* read = model_->CreateFunction("read", 0);
    b.SetInsertPoint(read->CreateBlock("entry"));
    IrInstruction* s3 = b.Load(g, "s");
    IrInstruction* f = b.Load(b.FieldAddr(s3, 0, "flag_addr"), "f");
    f->set_guid(kGuidFaultSite);
    b.Ret(f);

    for (const IrInstruction* inst : model_->AllInstructions()) {
      if (inst->guid() != kNoGuid) {
        (void)registry_.Register(inst->guid(), name_, "tiny.cc",
                                 inst->ToString());
      }
    }
  }

  Oid root_;
};

class ReactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    target_ = std::make_unique<TinyTarget>();
    log_ = std::make_unique<CheckpointLog>(target_->pool());
  }

  FaultInfo TriggerFault() {
    target_->StoreFlag(0xbad);
    EXPECT_FALSE(target_->Read());
    return *target_->last_fault();
  }

  ReexecuteFn MakeReexecute() {
    return [this]() {
      RunObservation obs;
      (void)target_->Restart();
      if (!target_->Read()) {
        obs.fault = target_->last_fault();
      }
      obs.item_count = 1;
      return obs;
    };
  }

  std::unique_ptr<TinyTarget> target_;
  std::unique_ptr<CheckpointLog> log_;
  VirtualClock clock_;
};

TEST_F(ReactorTest, PlanContainsOnlyDependentUpdates) {
  target_->StoreFlag(1);
  target_->StoreData(10);
  target_->StoreOther(99);
  FaultInfo fault = TriggerFault();

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  ReactorConfig config;
  auto plan = reactor.ComputeReversionPlan(fault, target_->tracer(), *log_,
                                           config);
  ASSERT_FALSE(plan.empty());
  // The independent `other` store must not be a candidate.
  const SeqNum other_seq = log_->NewestSeqAt(
      target_->root().off + offsetof(TinyTarget::Layout, other));
  for (const SeqNum seq : plan) {
    EXPECT_NE(seq, other_seq);
  }
}

TEST_F(ReactorTest, FaultAddressCandidatesComeFirst) {
  target_->StoreFlag(1);
  target_->StoreData(10);  // newer than the flag store
  FaultInfo fault = TriggerFault();

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  ReactorConfig config;
  auto plan = reactor.ComputeReversionPlan(fault, target_->tracer(), *log_,
                                           config);
  ASSERT_GE(plan.size(), 2u);
  // With the hint, the flag-address candidates lead despite newer data
  // stores existing.
  auto at_flag = log_->NewestSeqAt(target_->root().off);
  EXPECT_EQ(plan.front(), at_flag);

  config.prioritize_fault_address = false;
  auto unordered = reactor.ComputeReversionPlan(fault, target_->tracer(),
                                                *log_, config);
  // Without the hint the plan is strictly newest-first.
  EXPECT_EQ(unordered.front(), log_->LatestSeq());
}

TEST_F(ReactorTest, MitigationRevertsBadFlagAndRecovers) {
  target_->StoreFlag(1);
  target_->StoreData(10);
  FaultInfo fault = TriggerFault();

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_GE(outcome.reexecutions, 1);
  EXPECT_EQ(target_->state()->flag, 1u);   // previous good value
  EXPECT_EQ(target_->state()->other, 0u);  // untouched
  EXPECT_GT(outcome.elapsed, 0);
}

TEST_F(ReactorTest, EmptyPlanAbortsToRestart) {
  // A fault whose guid is not in the model: the reactor must prune it as a
  // non-PM failure and resort to a plain restart (Section 4.5).
  target_->StoreFlag(1);
  FaultInfo fault;
  fault.kind = FailureKind::kCrash;
  fault.fault_guid = 7777;  // unknown instruction

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  EXPECT_TRUE(outcome.empty_plan);
  EXPECT_TRUE(outcome.recovered);  // the flag was never bad
  EXPECT_EQ(outcome.reverted_updates, 0u);
}

TEST_F(ReactorTest, VersionRoundsReachOlderState) {
  // Three bad flag stores in a row: round 1 reverts to the 2nd-newest (also
  // bad), further rounds walk back to the good original.
  target_->StoreFlag(0xbad);
  target_->StoreFlag(0xbad);
  FaultInfo fault = TriggerFault();  // third 0xbad store

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_GE(outcome.reexecutions, 2);
  EXPECT_NE(target_->state()->flag, 0xbadu);
}

TEST_F(ReactorTest, DivergenceRestoresCheckpointedVersion) {
  // The flag is corrupted *outside* the persistence path (bit flip written
  // back quietly): reverting restores the last checkpointed good value.
  target_->StoreFlag(7);
  target_->state()->flag = 0xbad;
  target_->pool().device().PersistQuiet(target_->root().off, 8);
  FaultInfo fault;
  fault.kind = FailureKind::kCrash;
  fault.fault_guid = kGuidFaultSite;
  fault.fault_address = target_->root().off;

  Reactor reactor(target_->ir_model(), target_->guid_registry());
  MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_EQ(target_->state()->flag, 7u);  // the checkpointed good version
}

// Every entry whose recorded range contains `address`, by a scan of all
// entries.
std::vector<const CheckpointEntry*> LinearOverlapping(const CheckpointLog& log,
                                                      PmOffset address) {
  std::vector<const CheckpointEntry*> out;
  log.ForEachEntry([&out, address](const CheckpointEntry& entry) {
    const size_t extent = std::max(entry.original.size(),
                                   entry.versions.empty()
                                       ? size_t{0}
                                       : entry.versions.back().data.size());
    if (entry.address <= address && address < entry.address + extent) {
      out.push_back(&entry);
    }
  });
  return out;
}

// Purge's forward pass (Section 4.4) on the edges of its window: after the
// bad flag version at seq S is reverted, the retained versions in
// (S, S + 32] whose entry holds an address the flag store's forward slice
// touched are reverted too, newest first, and nothing else. Checked
// against a brute force that joins every such address with a scan of the
// log.
TEST_F(ReactorTest, PurgeForwardPassRevertsExactlyItsWindow) {
  target_->StoreFlag(1);
  target_->StoreFlag(0xbad);
  const SeqNum bad = log_->LatestSeq();
  target_->StoreDataSlot(0, 11);  // S + 1: reverted
  target_->StoreDataSlot(1, 12);  // S + 2: leaves its ring below
  for (int i = 0; i < 29; i++) {
    target_->StoreOther(100 + i);  // S + 3 .. S + 31: independent
  }
  target_->StoreDataSlot(2, 13);  // S + 32: reverted
  target_->StoreDataSlot(3, 14);  // S + 33: past the window, kept
  for (int i = 0; i < 3; i++) {
    target_->StoreDataSlot(1, 20 + i);  // evicts S + 2
  }
  ASSERT_EQ(log_->LatestSeq(), bad + 36);
  ASSERT_FALSE(log_->LocateSeq(bad + 2).has_value());
  ASSERT_TRUE(log_->LocateSeq(bad + 31).has_value());
  ASSERT_FALSE(target_->Read());
  const FaultInfo fault = *target_->last_fault();
  Reactor reactor(target_->ir_model(), target_->guid_registry());

  // Brute force: the forward slices of every GUID that touched the flag,
  // every address their GUIDs touched, every entry overlapping one, and
  // those entries' retained versions in the window. The flag's revert
  // changes none of those entries, so they are read before mitigating.
  const PmOffset flag = target_->root().off;
  const Slicer slicer(reactor.pdg(), reactor.pm_info());
  std::set<Guid> forward_guids;
  for (const TraceEvent& e : target_->tracer().Events()) {
    const IrInstruction* inst = target_->ir_model().FindByGuid(e.guid);
    if (e.address != flag || inst == nullptr) {
      continue;
    }
    for (const IrInstruction* node :
         slicer.ForwardPersistent(inst).instructions) {
      if (node != inst && node->guid() != kNoGuid) {
        forward_guids.insert(node->guid());
      }
    }
  }
  std::set<SeqNum> forward;
  for (const Guid guid : forward_guids) {
    for (const PmOffset address : target_->tracer().AddressesForGuid(guid)) {
      for (const CheckpointEntry* entry : LinearOverlapping(*log_, address)) {
        for (const CheckpointVersion& version : entry->versions) {
          if (version.seq_num > bad && version.seq_num <= bad + 32) {
            forward.insert(version.seq_num);
          }
        }
      }
    }
  }
  ASSERT_EQ(forward, (std::set<SeqNum>{bad + 1, bad + 32}));
  // The reverts in order, and the root object they leave: each reverted
  // version's undo bytes written over the image, in that order.
  std::vector<SeqNum> reverts = {bad};
  reverts.insert(reverts.end(), forward.rbegin(), forward.rend());
  const PmemDevice& device = target_->pool().device();
  auto root_image = [&device, flag]() {
    return std::vector<uint8_t>(device.Durable(flag),
                                device.Durable(flag) + 192);
  };
  std::vector<uint8_t> expected = root_image();
  for (const SeqNum seq : reverts) {
    log_->ForEachEntry([&expected, flag, seq](const CheckpointEntry& entry) {
      for (const CheckpointVersion& version : entry.versions) {
        if (version.seq_num == seq) {
          std::copy(version.pre.begin(), version.pre.end(),
                    expected.begin() +
                        static_cast<ptrdiff_t>(entry.address - flag));
        }
      }
    });
  }

#ifndef ARTHAS_OBS_DISABLED
  obs::FlightRecorder::Global().Clear();
#endif
  const MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  ASSERT_TRUE(outcome.recovered) << outcome.detail;
  EXPECT_EQ(outcome.reexecutions, 1);
  EXPECT_EQ(outcome.reverted_updates, reverts.size());
  EXPECT_EQ(root_image(), expected);
  EXPECT_TRUE(log_->LocateSeq(bad + 31).has_value());
  EXPECT_TRUE(log_->LocateSeq(bad + 33).has_value());
#ifndef ARTHAS_OBS_DISABLED
  std::vector<SeqNum> recorded;
  for (const obs::FlightRecord& r : obs::FlightRecorder::Global().Snapshot()) {
    if (r.device_id == device.device_id() &&
        r.type == obs::FrType::kCheckpointRevert) {
      recorded.push_back(r.arg);
    }
  }
  EXPECT_EQ(recorded, reverts);
#endif
}

TEST_F(ReactorTest, LeakMitigationFreesUnreachableOnly) {
  // Two allocations: one reachable from recovery (the root), one leaked.
  auto leaked = *target_->pool().Zalloc(64);
  (void)leaked;
  FaultInfo fault;
  fault.kind = FailureKind::kLeak;
  fault.fault_guid = kGuidFaultSite;

  const uint64_t live_before = target_->pool().stats().live_objects;
  Reactor reactor(target_->ir_model(), target_->guid_registry());
  MitigationOutcome outcome =
      reactor.Mitigate(fault, target_->tracer(), *log_, *target_,
                       MakeReexecute(), clock_);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_EQ(outcome.freed_leak_objects, 1u);
  EXPECT_EQ(target_->pool().stats().live_objects, live_before - 1);
}

// The reversion plan by brute force, straight from its definition: the
// fault's persistent backward slice (capped at max_slice_distance), each
// slice GUID's traced addresses, every checkpoint entry overlapping one of
// them (found by scanning all entries), and the retained versions of those
// entries and of the entries their old_entry links reach. De-duplicated;
// candidates at the fault address first, each group newest first.
struct ReferencePlan {
  std::vector<SeqNum> seqs;
  size_t at_fault = 0;  // seqs[0, at_fault) sit at the fault address
};

ReferencePlan BruteForcePlan(const Reactor& reactor, const IrModule& model,
                             const FaultInfo& fault, Tracer& tracer,
                             const CheckpointLog& log,
                             const ReactorConfig& config) {
  ReferencePlan plan;
  const IrInstruction* fault_inst = model.FindByGuid(fault.fault_guid);
  if (fault_inst == nullptr) {
    return plan;
  }
  std::vector<const CheckpointEntry*> entries;
  log.ForEachEntry(
      [&entries](const CheckpointEntry& entry) { entries.push_back(&entry); });
  auto overlapping = [&entries](PmOffset address) {
    std::vector<const CheckpointEntry*> out;
    for (const CheckpointEntry* entry : entries) {
      const size_t extent =
          std::max(entry->original.size(),
                   entry->versions.empty()
                       ? size_t{0}
                       : entry->versions.back().data.size());
      if (entry->address <= address && address < entry->address + extent) {
        out.push_back(entry);
      }
    }
    return out;
  };
  std::set<SeqNum> candidates;
  const Slicer slicer(reactor.pdg(), reactor.pm_info());
  size_t distance = 0;
  for (const IrInstruction* node :
       slicer.BackwardPersistent(fault_inst).instructions) {
    if (distance++ > config.max_slice_distance) {
      break;
    }
    if (node->guid() == kNoGuid) {
      continue;
    }
    for (const PmOffset address : tracer.AddressesForGuid(node->guid())) {
      for (const CheckpointEntry* entry : overlapping(address)) {
        // The entry itself, then up to 16 realloc hops.
        for (int hop = 0; entry != nullptr && hop <= 16; hop++) {
          for (const CheckpointVersion& version : entry->versions) {
            candidates.insert(version.seq_num);
          }
          entry = entry->old_entry == kNullPmOffset
                      ? nullptr
                      : log.Find(entry->old_entry);
        }
      }
    }
  }
  std::set<SeqNum> at_fault;
  if (config.prioritize_fault_address &&
      fault.fault_address != kNullPmOffset) {
    for (const CheckpointEntry* entry : overlapping(fault.fault_address)) {
      for (const CheckpointVersion& version : entry->versions) {
        if (candidates.count(version.seq_num) != 0) {
          at_fault.insert(version.seq_num);
        }
      }
    }
  }
  plan.seqs.assign(at_fault.rbegin(), at_fault.rend());
  plan.at_fault = plan.seqs.size();
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    if (at_fault.count(*it) == 0) {
      plan.seqs.push_back(*it);
    }
  }
  return plan;
}

// The plan and its decision list (what EXPLAIN serves) both equal the
// brute-force join, which is returned.
ReferencePlan ExpectPlanMatchesBruteForce(Reactor& reactor,
                                          const IrModule& model,
                                          const FaultInfo& fault,
                                          Tracer& tracer,
                                          const CheckpointLog& log,
                                          const ReactorConfig& config) {
  const ReferencePlan expected =
      BruteForcePlan(reactor, model, fault, tracer, log, config);
  std::vector<CandidateDecision> decisions;
  EXPECT_EQ(reactor.ComputeReversionPlan(fault, tracer, log, config,
                                         &decisions),
            expected.seqs);
  EXPECT_EQ(decisions.size(), expected.seqs.size());
  for (size_t i = 0; i < decisions.size() && i < expected.seqs.size(); i++) {
    EXPECT_EQ(decisions[i].seq, expected.seqs[i]);
    EXPECT_EQ(decisions[i].rank, i);
    EXPECT_TRUE(decisions[i].accepted);
    EXPECT_EQ(decisions[i].reason, i < expected.at_fault
                                       ? "at_fault_address"
                                       : "slice_dependency");
  }
  return expected;
}

TEST_F(ReactorTest, PlanMatchesBruteForceJoin) {
  for (int i = 0; i < 4; i++) {
    target_->StoreFlag(1 + i);
    target_->StoreData(10 + i);
    target_->StoreOther(99 + i);
  }
  const FaultInfo fault = TriggerFault();
  Reactor reactor(target_->ir_model(), target_->guid_registry());
  ReactorConfig config;
  const ReferencePlan hinted = ExpectPlanMatchesBruteForce(
      reactor, target_->ir_model(), fault, target_->tracer(), *log_, config);
  EXPECT_GT(hinted.at_fault, 0u);
  config.prioritize_fault_address = false;
  EXPECT_EQ(ExpectPlanMatchesBruteForce(reactor, target_->ir_model(), fault,
                                        target_->tracer(), *log_, config)
                .at_fault,
            0u);
  config.max_slice_distance = 0;
  ExpectPlanMatchesBruteForce(reactor, target_->ir_model(), fault,
                              target_->tracer(), *log_, config);
}

Request Op(Request::Op op, const std::string& key, const std::string& value) {
  Request r;
  r.op = op;
  r.key = key;
  r.value = value;
  return r;
}

const std::string kVictimValue(210, 'v');

MemcachedOptions F4Options() {
  MemcachedOptions options;
  options.pool_size = 8 * 1024 * 1024;
  options.hashtable_buckets = 1024;
  return options;
}

// The benchmark's f4 recipe, in process: two buddy items, a write history
// over other keys, then an append that overruns into the victim, whose GET
// faults.
class MemcachedF4Test : public ::testing::Test {
 protected:
  MemcachedF4Test() : mc(F4Options()), log(mc.pool()) {}

  void SetUp() override {
    mc.ArmFault(FaultId::kF4AppendIntOverflow);
    ASSERT_TRUE(
        mc.Handle(Op(Request::Op::kPut, "appendee", std::string(200, 'a')))
            .status.ok());
    ASSERT_TRUE(mc.Handle(Op(Request::Op::kPut, "f4victim", kVictimValue))
                    .status.ok());
    for (int i = 0; i < 600; i++) {
      const std::string key = "k" + std::to_string(i % 97);
      ASSERT_TRUE(
          mc.Handle(Op(Request::Op::kPut, key,
                       std::string(232, static_cast<char>('a' + i % 26))))
              .status.ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(
            mc.Handle(Op(Request::Op::kAppend, key, std::string(8, 'z')))
                .status.ok());
      }
    }
    ASSERT_TRUE(
        mc.Handle(Op(Request::Op::kAppend, "appendee", std::string(100, 'b')))
            .status.ok());
    (void)mc.Handle(Op(Request::Op::kGet, "f4victim", ""));
    ASSERT_TRUE(mc.last_fault().has_value());
    fault = *mc.last_fault();
  }

  MemcachedMini mc;
  CheckpointLog log;
  FaultInfo fault;
};

TEST_F(MemcachedF4Test, PlanAndExplainMatchBruteForceJoin) {
  Reactor reactor(mc.ir_model(), mc.guid_registry());
  const ReferencePlan expected = ExpectPlanMatchesBruteForce(
      reactor, mc.ir_model(), fault, mc.tracer(), log, ReactorConfig{});
  ASSERT_GT(expected.seqs.size(), 100u);

  // EXPLAIN serves the same decisions from the trace file it ingested.
  ReactorServer server(mc.ir_model(), mc.guid_registry());
  ASSERT_TRUE(server.IngestTrace(mc.tracer().Serialize()).ok());
  MitigationRequest request;
  request.fault = fault;
  const ExplainResponse explain = server.Explain(request, log);
  ASSERT_EQ(explain.candidates.size(), expected.seqs.size());
  for (size_t i = 0; i < expected.seqs.size(); i++) {
    EXPECT_EQ(explain.candidates[i].seq, expected.seqs[i]);
    EXPECT_EQ(explain.candidates[i].reason, i < expected.at_fault
                                                ? "at_fault_address"
                                                : "slice_dependency");
  }
}

TEST_F(MemcachedF4Test, MitigationLeavesPinnedDurableImage) {
  auto reexecute = [this]() {
    RunObservation obs;
    (void)mc.Restart();
    (void)mc.Handle(Op(Request::Op::kGet, "f4victim", ""));
    obs.fault = mc.last_fault();
    obs.item_count = mc.ItemCount();
    return obs;
  };
  Reactor reactor(mc.ir_model(), mc.guid_registry());
  VirtualClock clock;
  const MitigationOutcome outcome =
      reactor.Mitigate(fault, mc.tracer(), log, mc, reexecute, clock);
  ASSERT_TRUE(outcome.recovered) << outcome.detail;
  EXPECT_EQ(outcome.reexecutions, 2);
  EXPECT_EQ(outcome.reverted_updates, 2u);
  // The whole durable image after mitigation, pinned: a plan that reverts
  // other updates, or the same ones in another order, changes it.
  const PmemDevice& device = mc.pool().device();
  EXPECT_EQ(Crc32c(device.Durable(0), device.size()), 0x68457797u);
  const Response victim = mc.Handle(Op(Request::Op::kGet, "f4victim", ""));
  ASSERT_TRUE(victim.status.ok());
  EXPECT_EQ(victim.value, kVictimValue);
}

TEST(ReactorPlanTest, MemcachedF2HintedPlanMatchesBruteForceJoin) {
  // A flush_all cutoff in the future hides every item; the GET that must
  // find one reports the cutoff's address, so the plan puts the cutoff's
  // versions first and the newer dependency candidates after them.
  MemcachedMini mc;
  CheckpointLog log(mc.pool());
  mc.ArmFault(FaultId::kF2FlushAllLogic);
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(mc.Handle(Op(Request::Op::kPut, "k" + std::to_string(i % 13),
                             std::string(16 + i, 'x')))
                    .status.ok());
  }
  Request flush;
  flush.op = Request::Op::kFlushAll;
  flush.int_arg = 600;
  ASSERT_TRUE(mc.Handle(flush).status.ok());
  // Updates newer than the cutoff, so the hint reorders the plan.
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(mc.Handle(Op(Request::Op::kPut, "n" + std::to_string(i),
                             std::string(24, 'y')))
                    .status.ok());
  }
  Request get = Op(Request::Op::kGet, "k1", "");
  get.must_exist = true;
  (void)mc.Handle(get);
  ASSERT_TRUE(mc.last_fault().has_value());
  Reactor reactor(mc.ir_model(), mc.guid_registry());
  const ReferencePlan expected =
      ExpectPlanMatchesBruteForce(reactor, mc.ir_model(), *mc.last_fault(),
                                  mc.tracer(), log, ReactorConfig{});
  EXPECT_GT(expected.at_fault, 0u);
  EXPECT_GT(expected.seqs.size(), expected.at_fault + 1);
}

TEST(ReactorPlanTest, ReallocChainPlanMatchesBruteForceJoin) {
  // Listpack growth reallocates. With the trace cleared after the growth,
  // the listpack's earlier addresses are reachable only through old_entry
  // links, so the join must follow them.
  RedisMini rd;
  CheckpointLog log(rd.pool());
  for (int i = 0; i < 24; i++) {
    ASSERT_TRUE(rd.Handle(Op(Request::Op::kListPush, "list",
                             std::string(40, static_cast<char>('a' + i))))
                    .status.ok());
  }
  rd.tracer().Clear();
  ASSERT_TRUE(
      rd.Handle(Op(Request::Op::kListPush, "list", std::string(40, 'z')))
          .status.ok());
  std::set<PmOffset> old_addresses;
  log.ForEachEntry([&old_addresses](const CheckpointEntry& entry) {
    if (entry.old_entry != kNullPmOffset) {
      old_addresses.insert(entry.old_entry);
    }
  });
  ASSERT_FALSE(old_addresses.empty()) << "no reallocation was recorded";
  FaultInfo fault;
  fault.kind = FailureKind::kCrash;
  fault.fault_guid = kGuidRdLpRead;
  Reactor reactor(rd.ir_model(), rd.guid_registry());
  const ReferencePlan expected = ExpectPlanMatchesBruteForce(
      reactor, rd.ir_model(), fault, rd.tracer(), log, ReactorConfig{});
  bool reaches_old = false;
  for (const SeqNum seq : expected.seqs) {
    auto located = log.LocateSeq(seq);
    reaches_old |= located.has_value() && old_addresses.count(located->first);
  }
  EXPECT_TRUE(reaches_old);
}

TEST_F(ReactorTest, StaticAnalysisTimingsPopulated) {
  Reactor reactor(target_->ir_model(), target_->guid_registry());
  EXPECT_GT(reactor.timings().static_analysis_ns, 0);
  EXPECT_GT(reactor.timings().pdg_ns, 0);
  EXPECT_GT(reactor.pdg().stats().edges, 0u);
}

}  // namespace
}  // namespace arthas
