#include "src/par/shot_queue.h"

#include <algorithm>
#include <cassert>

namespace now {

namespace {

/// Stride-scheduling scale: pass advances by units * kStrideScale / weight
/// per grant, so a tenant with twice the weight accrues pass half as fast
/// and receives twice the units over any contended window.
constexpr double kStrideScale = 65536.0;

std::int64_t task_units(const RenderTask& task) {
  return static_cast<std::int64_t>(task.region.area()) * task.frame_count;
}

}  // namespace

int ShotQueue::tenant_for(const std::string& name, double weight,
                          std::int32_t quota) {
  for (int id = 0; id < static_cast<int>(tenants_.size()); ++id) {
    if (tenants_[id].name == name) return id;
  }
  Tenant t;
  t.name = name;
  t.weight = weight;
  t.quota = quota;
  // A late-arriving tenant starts at the minimum live pass: stride fairness
  // is forward-looking, never a back-payment that would let a newcomer
  // monopolize the farm to "catch up" on time before it existed.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (i == 0 || tenants_[i].pass < t.pass) t.pass = tenants_[i].pass;
  }
  if (metrics_ != nullptr) {
    t.frames_counter =
        &metrics_->counter("tenant." + name + ".frames_committed");
    t.assigns_counter =
        &metrics_->counter("tenant." + name + ".tasks_assigned");
  }
  tenants_.push_back(std::move(t));
  return static_cast<int>(tenants_.size()) - 1;
}

int ShotQueue::admit(Shot shot, std::vector<RenderTask> tasks) {
  shot.shot_id = static_cast<std::int32_t>(shots_.size());
  if (shot.tenant_id >= 0) shot.tenant = tenants_[shot.tenant_id].name;
  for (const RenderTask& task : tasks) shot.units_total += task_units(task);
  shot.queue.assign(tasks.begin(), tasks.end());
  shots_.push_back(std::move(shot));
  return shots_.back().shot_id;
}

bool ShotQueue::requeue(const RenderTask& task) {
  const int sid = shot_of_frame(task.first_frame);
  if (sid < 0 || shots_[sid].phase != ShotPhase::kActive) return false;
  shots_[sid].queue.push_back(task);
  return true;
}

ShotQueue::TaskIter ShotQueue::find_runnable(Shot& shot,
                                             const TaskFilter& committed,
                                             const TaskFilter& blocked,
                                             bool* held) {
  // A speculation winner (or reclaim overlap) may have covered a task
  // entirely while it waited: drop it instead of paying a worker to render
  // duplicates.
  auto it = shot.queue.begin();
  while (it != shot.queue.end()) {
    if (committed(*it)) {
      it = shot.queue.erase(it);
    } else if (blocked(*it)) {
      *held = true;
      ++it;
    } else {
      break;
    }
  }
  return it;
}

int ShotQueue::runnable_shot(int tenant, const TaskFilter& committed,
                             const TaskFilter& blocked, bool* held) {
  for (Shot& shot : shots_) {
    if (shot.tenant_id != tenant || shot.phase != ShotPhase::kActive) {
      continue;
    }
    if (find_runnable(shot, committed, blocked, held) != shot.queue.end()) {
      return shot.shot_id;
    }
  }
  return -1;
}

int ShotQueue::pick_tenant(const TaskFilter& committed,
                           const TaskFilter& blocked, bool* held) {
  int best = -1;
  for (int t = 0; t < static_cast<int>(tenants_.size()); ++t) {
    const Tenant& tenant = tenants_[t];
    if (tenant.quota > 0 && tenant.inflight >= tenant.quota) continue;
    if (runnable_shot(t, committed, blocked, held) < 0) continue;
    // Strict < keeps ties on the lowest tenant id: deterministic scan order.
    if (best < 0 || tenant.pass < tenants_[best].pass) best = t;
  }
  // Shot affinity (deficit-round-robin quantum on top of the stride queue):
  // keep serving the last-served tenant while its pass lead over the
  // lowest-pass contender stays under one shot's units. Bounded unfairness
  // — at most one shot's worth of work — in exchange for a shot's tiles
  // finishing together, so frames complete steadily instead of in waves
  // that stall dispatch behind the master's frame writes.
  if (best >= 0 && affinity_tenant_ >= 0 && affinity_tenant_ != best) {
    const Tenant& kept = tenants_[affinity_tenant_];
    if (kept.quota <= 0 || kept.inflight < kept.quota) {
      const int sid =
          runnable_shot(affinity_tenant_, committed, blocked, held);
      if (sid >= 0) {
        const double lead_cap =
            static_cast<double>(shots_[sid].units_total) * kStrideScale /
            kept.weight;
        if (kept.pass - tenants_[best].pass < lead_cap) {
          return affinity_tenant_;
        }
      }
    }
  }
  return best;
}

ShotQueue::Pick ShotQueue::take(Shot& shot, TaskIter it) {
  const Pick pick{PickKind::kTask, *it, shot.shot_id};
  shot.queue.erase(it);
  return pick;
}

ShotQueue::Pick ShotQueue::next(const TaskFilter& committed,
                                const TaskFilter& blocked) {
  bool held = false;
  for (Shot& shot : shots_) {
    if (shot.tenant_id >= 0 || shot.phase != ShotPhase::kActive) continue;
    const TaskIter it = find_runnable(shot, committed, blocked, &held);
    if (it != shot.queue.end()) return take(shot, it);
  }
  const int tenant = pick_tenant(committed, blocked, &held);
  if (tenant >= 0) {
    Shot& shot = shots_[runnable_shot(tenant, committed, blocked, &held)];
    return take(shot, find_runnable(shot, committed, blocked, &held));
  }
  return Pick{held ? PickKind::kHeld : PickKind::kNone, {}, -1};
}

bool ShotQueue::tenant_backlog(const TaskFilter& committed,
                               const TaskFilter& blocked) {
  bool held = false;
  return pick_tenant(committed, blocked, &held) >= 0;
}

bool ShotQueue::drained(const TaskFilter& committed) {
  for (Shot& shot : shots_) {
    if (shot.phase != ShotPhase::kActive) continue;
    while (!shot.queue.empty() && committed(shot.queue.front())) {
      shot.queue.pop_front();
    }
    if (!shot.queue.empty()) return false;
  }
  return true;
}

int ShotQueue::charge(const Pick& pick) {
  const int tenant = shots_[pick.shot].tenant_id;
  if (tenant < 0) return -1;
  Tenant& t = tenants_[tenant];
  ++t.inflight;
  t.peak_inflight = std::max(t.peak_inflight, t.inflight);
  ++t.tasks_assigned;
  const std::int64_t units = task_units(pick.task);
  t.units_assigned += units;
  t.pass += units * kStrideScale / t.weight;
  affinity_tenant_ = tenant;
  if (t.assigns_counter != nullptr) t.assigns_counter->inc();
  ServiceAssignment grant;
  grant.tenant = tenant;
  grant.shot_id = pick.shot;
  grant.units = units;
  grants_.push_back(grant);
  return tenant;
}

void ShotQueue::release(int tenant) {
  if (tenant < 0) return;
  --tenants_[tenant].inflight;
  assert(tenants_[tenant].inflight >= 0);
}

int ShotQueue::credit_frame(std::int32_t frame) {
  const int sid = shot_of_frame(frame);
  assert(sid >= 0 && "completed frame belongs to no shot");
  if (sid < 0) return -1;
  Shot& shot = shots_[sid];
  ++shot.frames_done;
  if (shot.tenant_id < 0) return -1;
  Tenant& tenant = tenants_[shot.tenant_id];
  ++tenant.frames_committed;
  if (tenant.frames_counter != nullptr) tenant.frames_counter->inc();
  if (shot.phase != ShotPhase::kActive ||
      shot.frames_done < shot.frame_count) {
    return -1;
  }
  shot.phase = ShotPhase::kDone;
  return sid;
}

void ShotQueue::cancel(int shot) {
  shots_[shot].phase = ShotPhase::kCancelled;
  shots_[shot].queue.clear();
}

int ShotQueue::shot_of_frame(std::int32_t frame) const {
  for (const Shot& shot : shots_) {
    if (frame >= shot.base_frame &&
        frame < shot.base_frame + shot.frame_count) {
      return shot.shot_id;
    }
  }
  return -1;
}

std::int64_t ShotQueue::depth() const {
  std::int64_t depth = 0;
  for (const Shot& shot : shots_) {
    depth += static_cast<std::int64_t>(shot.queue.size());
  }
  return depth;
}

std::vector<RenderTask> ShotQueue::tasks() const {
  std::vector<RenderTask> out;
  for (const Shot& shot : shots_) {
    out.insert(out.end(), shot.queue.begin(), shot.queue.end());
  }
  return out;
}

std::vector<ShotSummary> ShotQueue::shot_summaries() const {
  std::vector<ShotSummary> out;
  for (const Shot& shot : shots_) {
    if (shot.tenant_id >= 0) out.push_back(shot);
  }
  return out;
}

}  // namespace now
