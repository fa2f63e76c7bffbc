// ShotQueue: every task the scheduler has not handed out yet, grouped into
// shots ("camera cuts split an animation into independent shots"). A shot
// is a contiguous [base_frame, base_frame + frame_count) slice of the global
// frame space with its own FIFO of tasks. A solo render is one tenant-less
// shot; the multi-tenant service admits one tenant-owned shot per submit.
//
// It also owns the weighted-fair policy: stride scheduling across tenants
// (the runnable tenant with the lowest pass goes next), per-tenant quotas
// on in-flight tasks, and shot affinity. Tenant-less shots sit outside it:
// served first, in admission order, never charged, logged or finished.
// A pure object (no Context, no tracer), tested in tests/shot_queue_test.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/par/jobqueue.h"
#include "src/par/protocol.h"

namespace now {

/// Per-tenant accounting of the weighted-fair scheduler (service mode).
struct TenantSummary {
  std::string name;
  double weight = 1.0;
  std::int32_t quota = 0;  // 0 = unlimited
  std::int64_t tasks_assigned = 0;
  /// Pixel-frames granted — the unit the stride scheduler charges, so
  /// fairness gates compare units, not task counts.
  std::int64_t units_assigned = 0;
  std::int64_t frames_committed = 0;
  /// High-water mark of concurrently in-flight tasks (gate: <= quota).
  std::int32_t peak_inflight = 0;
};

/// One admitted shot's final state (service mode).
struct ShotSummary {
  std::int32_t shot_id = -1;
  std::string tenant;
  std::string label;
  std::int32_t scene_id = 0;
  std::int32_t scene_first_frame = 0;
  std::int32_t frame_count = 0;
  /// First global frame in the scheduler's concatenated frame space.
  std::int32_t base_frame = 0;
  ShotPhase phase = ShotPhase::kActive;
  std::int32_t frames_done = 0;
};

/// One weighted-fair grant, in order (service mode; bounded log for
/// fairness gates: the contended-window share of each tenant's units must
/// track its weight).
struct ServiceAssignment {
  std::int32_t tenant = -1;
  std::int32_t shot_id = -1;
  std::int64_t units = 0;  // pixel-frames granted
};

class ShotQueue {
 public:
  /// Weighted-fair admission state for one tenant.
  struct Tenant : TenantSummary {
    std::int32_t inflight = 0;
    double pass = 0.0;
    Counter* frames_counter = nullptr;   // tenant.<name>.frames_committed
    Counter* assigns_counter = nullptr;  // tenant.<name>.tasks_assigned
  };

  /// One admitted shot and its private task queue.
  struct Shot : ShotSummary {
    int tenant_id = -1;  // index into tenants(); -1 = tenant-less
    int client_rank = -1;
    /// Pixel-frames across the admitted tasks (the shot's total work — the
    /// affinity quantum in pick_tenant).
    std::int64_t units_total = 0;
    std::deque<RenderTask> queue;
  };

  /// Caller-supplied view of the commit state, used by next():
  /// `committed` — every region-frame of the task is already committed, so
  /// it is dropped; `blocked` — the task cannot run yet, so it stays queued.
  using TaskFilter = std::function<bool(const RenderTask&)>;

  enum class PickKind {
    kTask,  // `task` was taken off its shot's queue
    kHeld,  // nothing runnable, but blocked tasks wait for their condition
    kNone,  // nothing runnable
  };
  struct Pick {
    PickKind kind = PickKind::kNone;
    RenderTask task;
    int shot = -1;
  };

  /// `metrics` (nullable) receives the per-tenant counters.
  explicit ShotQueue(MetricsRegistry* metrics = nullptr) : metrics_(metrics) {}

  /// Find-or-create a tenant. The first call fixes the tenant's weight and
  /// quota; its stride pass starts at the minimum existing pass so a late
  /// arrival cannot monopolize the farm back-paying "missed" grants.
  int tenant_for(const std::string& name, double weight, std::int32_t quota);

  /// Admit `shot` (tenant_id, client, label, scene mapping and frame range
  /// filled in) with its initial tasks, in global frames. Returns the new
  /// shot id.
  int admit(Shot shot, std::vector<RenderTask> tasks);

  /// Queue `task` at the back of the shot whose frame range holds its first
  /// frame. Returns false (and drops it) when that shot is no longer active.
  bool requeue(const RenderTask& task);

  /// Next task to dispatch: tenant-less shots first, in admission order,
  /// then the weighted-fair tenant pick. Within a shot the task is the first
  /// one neither committed nor blocked; committed tasks ahead of it are
  /// erased, blocked ones kept.
  Pick next(const TaskFilter& committed, const TaskFilter& blocked);

  /// A tenant has runnable work and quota headroom (backlog preemption).
  bool tenant_backlog(const TaskFilter& committed, const TaskFilter& blocked);

  /// Drop committed tasks from the head of every active shot; true when no
  /// active shot still queues anything.
  bool drained(const TaskFilter& committed);

  /// Charge the grant in `pick` to its shot's tenant: quota slot, stride
  /// pass, affinity, grant log. Returns the tenant (-1: a tenant-less shot,
  /// not charged).
  int charge(const Pick& pick);
  /// Give back a quota slot taken by charge (tenant < 0 is a no-op).
  void release(int tenant);

  /// A global frame completed: credit its shot and tenant. Returns the shot
  /// id when that finished a tenant's active shot (now kDone), else -1.
  /// Tenant-less shots never finish.
  int credit_frame(std::int32_t frame);

  /// Cancel an active shot: its queue is dropped and requeues are refused.
  void cancel(int shot);

  /// Shot owning a global frame (-1 when none).
  int shot_of_frame(std::int32_t frame) const;
  /// Tasks queued across every shot.
  std::int64_t depth() const;
  /// Every queued task, shots in admission order, each shot's queue in
  /// order (the scheduler checkpoint's pending table).
  std::vector<RenderTask> tasks() const;

  const std::vector<Tenant>& tenants() const { return tenants_; }
  const std::vector<Shot>& shots() const { return shots_; }
  const std::vector<ServiceAssignment>& grants() const { return grants_; }
  std::vector<TenantSummary> tenant_summaries() const {
    return {tenants_.begin(), tenants_.end()};
  }
  /// Tenant shots only: a tenant-less shot has nobody to report to.
  std::vector<ShotSummary> shot_summaries() const;

 private:
  using TaskIter = std::deque<RenderTask>::iterator;

  /// First task of `shot` that is neither committed nor blocked (end() when
  /// none); erases committed tasks ahead of it and sets *held when it skips
  /// a blocked one.
  TaskIter find_runnable(Shot& shot, const TaskFilter& committed,
                         const TaskFilter& blocked, bool* held);
  /// First active shot of `tenant` (admission order) with a runnable task.
  int runnable_shot(int tenant, const TaskFilter& committed,
                    const TaskFilter& blocked, bool* held);
  /// Lowest-pass tenant with a runnable shot and quota headroom (-1: none),
  /// with shot affinity: the last-served tenant keeps the grant while its
  /// stride lead stays under one shot's worth of units, so a shot's tasks
  /// finish near each other and its frames complete (and flush) promptly.
  /// Pure per-task rotation would scatter each shot's tiles across the
  /// whole schedule, bunching frame completions into master-side write
  /// stalls exactly when every worker is asking for its next task.
  int pick_tenant(const TaskFilter& committed, const TaskFilter& blocked,
                  bool* held);
  Pick take(Shot& shot, TaskIter it);

  MetricsRegistry* metrics_;
  std::vector<Tenant> tenants_;
  /// Last tenant granted work (shot affinity in pick_tenant); -1 = none.
  int affinity_tenant_ = -1;
  std::vector<Shot> shots_;  // shot_id == index, base order
  std::vector<ServiceAssignment> grants_;
};

}  // namespace now
