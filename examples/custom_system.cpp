// Enrolling a brand-new, user-written PM system with Arthas.
//
// This is the path a downstream adopter follows (paper Section 3.2: the
// support effort for a new framework or system is identifying the calls to
// intercept). The example builds a tiny persistent task queue, gives it an
// IR model and GUID metadata, injects a logic bug ("priority written into
// the wrong field"), and lets the full detector/reactor pipeline recover
// it.
//
// Build & run:  ./example_custom_system

#include <cstdio>

#include "checkpoint/checkpoint_log.h"
#include "detector/detector.h"
#include "reactor/reactor.h"
#include "systems/system_base.h"

using namespace arthas;

// GUIDs for the task queue's PM instructions.
constexpr Guid kGuidTaskInit = 9101;
constexpr Guid kGuidHeadStore = 9102;
constexpr Guid kGuidPrioStore = 9103;
constexpr Guid kGuidPopSite = 9104;

// A persistent FIFO of tasks with priorities. The injected bug writes a
// task's priority over the *next pointer* of the head task (a classic
// wrong-field logic error), leaving a dangling link in PM.
class TaskQueue : public PmSystemBase {
 public:
  TaskQueue() : PmSystemBase("task_queue", 256 * 1024) {
    root_ = *pool_->Root(sizeof(QueueRoot));
    BuildModel();
  }

  struct QueueRoot {
    PmOffset head;
    uint64_t count;
  };
  struct Task {
    PmOffset next;
    uint64_t priority;
    uint64_t payload;
  };

  Status Push(uint64_t payload, uint64_t priority, bool buggy) {
    auto oid = pool_->Zalloc(sizeof(Task));
    ARTHAS_RETURN_IF_ERROR(oid.status());
    Task* task = pool_->Direct<Task>(*oid);
    task->payload = payload;
    QueueRoot* r = root();
    task->next = r->head;
    TracedPersist(*oid, 0, sizeof(Task), kGuidTaskInit);
    r->head = oid->off;
    TracedPersist(root_, offsetof(QueueRoot, head), 8, kGuidHeadStore);
    r->count++;
    pool_->Persist(root_, offsetof(QueueRoot, count), 8);

    // Set the priority on the task *behind* the new head (say, an aging
    // policy). The bug writes it to field 0 (the next pointer) instead of
    // field 1.
    if (task->next != 0) {
      const PmOffset target =
          task->next + (buggy ? offsetof(Task, next) : offsetof(Task, priority));
      *reinterpret_cast<uint64_t*>(pool_->device().Live(target)) = priority;
      TracedPersistRange(target, 8, kGuidPrioStore);
    }
    return OkStatus();
  }

  Result<uint64_t> Pop() {
    QueueRoot* r = root();
    if (r->head == 0) {
      return Status(StatusCode::kNotFound, "empty");
    }
    if (r->head + sizeof(Task) > pool_->device().size() ||
        !pool_->UsableSize(Oid{r->head}).ok()) {
      RaiseFault(FailureKind::kCrash, kGuidPopSite, r->head,
                 "head points at a non-task address", {"TaskQueue::Pop"});
      return Internal(fault_->message);
    }
    Task* task = pool_->Direct<Task>(Oid{r->head});
    const uint64_t payload = task->payload;
    const PmOffset old = r->head;
    if (task->next != 0 && (task->next + sizeof(Task) > pool_->device().size() ||
                            !pool_->UsableSize(Oid{task->next}).ok())) {
      RaiseFault(FailureKind::kCrash, kGuidPopSite, old,
                 "task's next pointer is dangling (priority overwrote it)",
                 {"TaskQueue::Pop"});
      return Internal(fault_->message);
    }
    r->head = task->next;
    TracedPersist(root_, offsetof(QueueRoot, head), 8, kGuidHeadStore);
    r->count--;
    pool_->Persist(root_, offsetof(QueueRoot, count), 8);
    (void)pool_->Free(Oid{old});
    return payload;
  }

  // PmSystemTarget surface.
  Response HandleRequest(const Request&) override { return Response{}; }
  uint64_t ItemCount() override { return root()->count; }
  Status CheckConsistency() override { return pool_->CheckIntegrity(); }

 protected:
  Status Recover() override {
    QueueRoot* r = root();
    PmOffset cur = r->head;
    uint64_t budget = 4096;
    while (cur != 0 && budget-- > 0) {
      if (!pool_->UsableSize(Oid{cur}).ok()) {
        RaiseFault(FailureKind::kCrash, kGuidPopSite, cur,
                   "recovery found dangling task link", {"recover"});
        return OkStatus();
      }
      RecoveryTouch(cur);
      cur = pool_->Direct<Task>(Oid{cur})->next;
    }
    return OkStatus();
  }

 private:
  QueueRoot* root() { return pool_->Direct<QueueRoot>(root_); }

  void BuildModel() {
    model_ = std::make_unique<IrModule>("task_queue");
    IrBuilder b(*model_);
    IrGlobal* g_root = model_->CreateGlobal("g_root");

    IrFunction* init = model_->CreateFunction("init", 0);
    b.SetInsertPoint(init->CreateBlock("entry"));
    IrInstruction* r = b.PmMapFile("root");
    b.Store(r, g_root);
    b.Ret();

    // push(payload, prio): the prio store goes through a byte-offset
    // cursor, so the analysis sees it may clobber any field.
    IrFunction* push = model_->CreateFunction("push", 2);
    b.SetInsertPoint(push->CreateBlock("entry"));
    IrInstruction* r1 = b.Load(g_root, "r");
    IrInstruction* t = b.PmAlloc(b.Const(24), "t");
    b.Store(push->arg(0), b.FieldAddr(t, 2, "payload_addr"), kGuidTaskInit);
    IrInstruction* head_addr = b.FieldAddr(r1, 0, "head_addr");
    IrInstruction* head = b.Load(head_addr, "head");
    b.Store(head, b.FieldAddr(t, 0, "next_addr"));
    b.Store(t, head_addr, kGuidHeadStore);
    IrInstruction* cursor = b.IndexAddr(head, push->arg(1), "cursor");
    b.Store(push->arg(1), cursor, kGuidPrioStore);
    b.Ret();

    IrFunction* pop = model_->CreateFunction("pop", 0);
    b.SetInsertPoint(pop->CreateBlock("entry"));
    IrInstruction* r2 = b.Load(g_root, "r");
    IrInstruction* head2 = b.Load(b.FieldAddr(r2, 0, "head_addr"), "head");
    IrInstruction* nxt = b.Load(b.FieldAddr(head2, 0, "next_addr"), "nxt");
    nxt->set_guid(kGuidPopSite);
    b.Store(nxt, b.FieldAddr(r2, 0, "head_addr2"));
    b.Ret(nxt);

    for (const IrInstruction* inst : model_->AllInstructions()) {
      if (inst->guid() != kNoGuid) {
        (void)registry_.Register(inst->guid(), name_, "task_queue.cc",
                                 inst->ToString());
      }
    }
  }

  Oid root_;
};

int main() {
  std::printf("=== Arthas demo: enrolling a custom PM system ===\n\n");
  TaskQueue queue;
  CheckpointLog checkpoint(queue.pool());

  // Healthy pushes, then one buggy push that overwrites a next pointer.
  for (uint64_t i = 0; i < 20; i++) {
    (void)queue.Push(i, /*priority=*/5, /*buggy=*/false);
  }
  (void)queue.Push(99, /*priority=*/7, /*buggy=*/true);
  std::printf("queued %lu tasks (one push corrupted a next pointer with the "
              "priority value)\n",
              queue.ItemCount());

  // Pops crash when they reach the dangling link — and the crash is hard.
  Detector detector;
  std::optional<FaultInfo> fault;
  for (int i = 0; i < 25 && !fault.has_value(); i++) {
    auto popped = queue.Pop();
    if (!popped.ok() && queue.last_fault().has_value()) {
      fault = queue.last_fault();
    }
  }
  if (!fault.has_value()) {
    std::printf("bug did not manifest?\n");
    return 1;
  }
  (void)detector.Observe(fault);
  (void)queue.Restart();
  std::printf("fault: %s\n", fault->message.c_str());
  std::printf("hard fault confirmed: %s\n",
              queue.last_fault().has_value() ? "yes (recovery crashes too)"
                                             : "no");

  // Reactor recovery.
  Reactor reactor(queue.ir_model(), queue.guid_registry());
  VirtualClock clock;
  auto reexecute = [&]() {
    RunObservation obs;
    (void)queue.Restart();
    if (!queue.last_fault().has_value()) {
      (void)queue.Pop();  // re-run the failing request
    }
    if (queue.last_fault().has_value()) {
      obs.fault = queue.last_fault();
    }
    obs.item_count = queue.ItemCount();
    return obs;
  };
  MitigationOutcome outcome = reactor.Mitigate(
      *fault, queue.tracer(), checkpoint, queue, reexecute, clock);
  std::printf("mitigation: recovered=%s, %lu updates reverted, %d "
              "re-executions (%s)\n",
              outcome.recovered ? "yes" : "no", outcome.reverted_updates,
              outcome.reexecutions, outcome.detail.c_str());

  int drained = 0;
  while (queue.Pop().ok()) {
    drained++;
  }
  std::printf("drained %d surviving tasks after recovery\n", drained);
  return outcome.recovered ? 0 : 1;
}
