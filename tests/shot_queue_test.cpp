// ShotQueue policy, row by row: the pure queue object is driven directly —
// no actor, no runtime — and each row checks one rule of the weighted-fair
// dispatch choice, the tenant-less shot, requeue routing, or the
// committed/blocked task filters.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/par/shot_queue.h"

namespace now {
namespace {

const PixelRect kTile{0, 0, 4, 4};  // 16 pixels: one frame of it = 16 units

const ShotQueue::TaskFilter kNever = [](const RenderTask&) { return false; };

/// Tasks one frame long over kTile, ids from `first_id`, at global frames
/// [base, base + count).
std::vector<RenderTask> frame_tasks(int first_id, int base, int count) {
  std::vector<RenderTask> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({first_id + i, kTile, base + i, 1});
  }
  return out;
}

/// Admit a shot of `tenant` (-1: tenant-less) over global frames
/// [base, base + count), one single-frame task per frame.
int admit(ShotQueue& q, int tenant, int base, int count, int first_id) {
  ShotQueue::Shot shot;
  shot.tenant_id = tenant;
  shot.base_frame = base;
  shot.frame_count = count;
  return q.admit(shot, frame_tasks(first_id, base, count));
}

/// Dispatch and charge the next task; returns the granted tenant (-1 for a
/// tenant-less pick), or -2 when nothing was dispatched.
int grant(ShotQueue& q) {
  const ShotQueue::Pick pick = q.next(kNever, kNever);
  if (pick.kind != ShotQueue::PickKind::kTask) return -2;
  return q.charge(pick);
}

void weighted_pair_unit_share() {
  ShotQueue q;
  const int heavy = q.tenant_for("heavy", 2.0, 0);
  const int light = q.tenant_for("light", 1.0, 0);
  // Single-task shots keep the affinity quantum at one task, so the window
  // shows the stride ratio itself.
  for (int s = 0; s < 40; ++s) {
    admit(q, heavy, 2 * s, 1, 2 * s);
    admit(q, light, 2 * s + 1, 1, 2 * s + 1);
  }
  // Contended window: both tenants still have shots queued throughout.
  std::int64_t units[2] = {0, 0};
  for (int i = 0; i < 30; ++i) {
    const int t = grant(q);
    ASSERT_GE(t, 0);
    units[t] += kTile.area();
  }
  ASSERT_GT(units[light], 0);
  const double ratio = static_cast<double>(units[heavy]) / units[light];
  EXPECT_GE(ratio, 1.8);
  EXPECT_LE(ratio, 2.2);
  EXPECT_EQ(q.tenants()[heavy].units_assigned, units[heavy]);
  EXPECT_EQ(q.grants().size(), 30u);
}

void quota_skips_and_freezes_pass() {
  ShotQueue q;
  const int capped = q.tenant_for("capped", 4.0, 1);
  const int greedy = q.tenant_for("greedy", 1.0, 0);
  admit(q, capped, 0, 4, 0);
  admit(q, greedy, 4, 3, 4);
  ASSERT_EQ(grant(q), capped);
  const double frozen = q.tenants()[capped].pass;
  // At quota: every grant goes to the other tenant, and the capped tenant's
  // pass does not move while it waits — even with nothing else to run.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(grant(q), greedy);
  EXPECT_EQ(grant(q), -2);
  EXPECT_FALSE(q.tenant_backlog(kNever, kNever));
  EXPECT_EQ(q.tenants()[capped].pass, frozen);
  EXPECT_EQ(q.tenants()[capped].inflight, 1);
  EXPECT_EQ(q.tenants()[capped].peak_inflight, 1);
  q.release(capped);
  EXPECT_EQ(grant(q), capped);
}

void late_tenant_starts_at_min_pass() {
  ShotQueue q;
  const int a = q.tenant_for("a", 1.0, 0);
  const int b = q.tenant_for("b", 3.0, 0);
  admit(q, a, 0, 4, 0);
  admit(q, b, 4, 4, 4);
  for (int i = 0; i < 5; ++i) ASSERT_GE(grant(q), 0);
  const double min_pass =
      std::min(q.tenants()[a].pass, q.tenants()[b].pass);
  ASSERT_GT(min_pass, 0.0);
  const int late = q.tenant_for("late", 1.0, 0);
  EXPECT_EQ(q.tenants()[late].pass, min_pass);
  // The first submit fixes weight and quota; a later one changes nothing.
  EXPECT_EQ(q.tenant_for("late", 9.0, 5), late);
  EXPECT_EQ(q.tenants()[late].weight, 1.0);
  EXPECT_EQ(q.tenants()[late].quota, 0);
}

void affinity_lead_cap() {
  ShotQueue q;
  const int a = q.tenant_for("a", 1.0, 0);
  const int b = q.tenant_for("b", 1.0, 0);
  admit(q, a, 0, 2, 0);   // cap while this shot runs: 2 tasks' worth
  admit(q, a, 2, 2, 2);
  admit(q, b, 4, 4, 4);   // cap: 4 tasks' worth
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) order.push_back(grant(q));
  // a keeps the grant through its first shot even though b has the lower
  // pass; at a lead of one shot it yields, and b then holds the grant up to
  // its own (larger) cap. Pure stride would alternate a, b, a, b, ...
  EXPECT_EQ(order, (std::vector<int>{a, a, b, b, b, b, a, a}));
}

void tenantless_shot_in_admission_order() {
  ShotQueue q;
  const int t = q.tenant_for("t", 1.0, 0);
  admit(q, t, 0, 2, 0);
  const int s1 = admit(q, -1, 2, 2, 10);
  const int s2 = admit(q, -1, 4, 2, 20);
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    const ShotQueue::Pick pick = q.next(kNever, kNever);
    ASSERT_EQ(pick.kind, ShotQueue::PickKind::kTask);
    EXPECT_EQ(pick.shot, i < 2 ? s1 : s2);
    EXPECT_EQ(q.charge(pick), -1);
    ids.push_back(pick.task.task_id);
  }
  EXPECT_EQ(ids, (std::vector<int>{10, 11, 20, 21}));
  // Invisible to the fair-share policy: no grant, no summary, no finish.
  EXPECT_TRUE(q.grants().empty());
  EXPECT_EQ(q.shot_summaries().size(), 1u);
  EXPECT_EQ(q.credit_frame(2), -1);
  EXPECT_EQ(q.credit_frame(3), -1);
  EXPECT_EQ(q.shots()[s1].phase, ShotPhase::kActive);
  EXPECT_EQ(q.shots()[s1].frames_done, 2);
  // The tenant's shot is served once the tenant-less work is gone, and
  // finishes on its last frame.
  EXPECT_EQ(grant(q), t);
  EXPECT_EQ(q.credit_frame(0), -1);
  EXPECT_EQ(q.credit_frame(1), 0);
  EXPECT_EQ(q.shots()[0].phase, ShotPhase::kDone);
  EXPECT_EQ(q.tenants()[t].frames_committed, 2);
}

void requeue_into_cancelled_shot_is_dropped() {
  ShotQueue q;
  const int t = q.tenant_for("t", 1.0, 0);
  const int victim = admit(q, t, 0, 4, 0);
  const int keeper = admit(q, t, 4, 4, 4);
  q.cancel(victim);
  EXPECT_EQ(q.shots()[victim].phase, ShotPhase::kCancelled);
  EXPECT_TRUE(q.shots()[victim].queue.empty());
  EXPECT_EQ(q.depth(), 4);
  EXPECT_FALSE(q.requeue({100, kTile, 2, 2}));
  EXPECT_FALSE(q.requeue({101, kTile, 99, 1}));  // no shot owns the frame
  EXPECT_TRUE(q.requeue({102, kTile, 6, 2}));
  EXPECT_EQ(q.depth(), 5);
  EXPECT_EQ(q.shots()[keeper].queue.back().task_id, 102);
  EXPECT_EQ(q.shot_of_frame(6), keeper);
  EXPECT_EQ(q.shot_of_frame(8), -1);
}

void committed_pruned_blocked_skipped() {
  ShotQueue q;
  const int shot = admit(q, -1, 0, 4, 0);
  std::set<int> committed{0, 2};
  std::set<int> blocked{1};
  const ShotQueue::TaskFilter is_committed = [&](const RenderTask& task) {
    return committed.count(task.task_id) > 0;
  };
  const ShotQueue::TaskFilter is_blocked = [&](const RenderTask& task) {
    return blocked.count(task.task_id) > 0;
  };
  ShotQueue::Pick pick = q.next(is_committed, is_blocked);
  ASSERT_EQ(pick.kind, ShotQueue::PickKind::kTask);
  EXPECT_EQ(pick.task.task_id, 3);
  // Committed tasks ahead of the pick were erased; the blocked one stays.
  ASSERT_EQ(q.shots()[shot].queue.size(), 1u);
  EXPECT_EQ(q.shots()[shot].queue.front().task_id, 1);
  EXPECT_EQ(q.next(is_committed, is_blocked).kind,
            ShotQueue::PickKind::kHeld);
  EXPECT_EQ(q.depth(), 1);
  EXPECT_FALSE(q.drained(is_committed));
  blocked.clear();
  pick = q.next(is_committed, is_blocked);
  ASSERT_EQ(pick.kind, ShotQueue::PickKind::kTask);
  EXPECT_EQ(pick.task.task_id, 1);
  EXPECT_EQ(q.next(is_committed, is_blocked).kind,
            ShotQueue::PickKind::kNone);
  EXPECT_TRUE(q.drained(is_committed));
}

struct QueueCase {
  const char* name;
  void (*run)();
};

void PrintTo(const QueueCase& c, std::ostream* os) { *os << c.name; }

class ShotQueueTable : public ::testing::TestWithParam<QueueCase> {};

TEST_P(ShotQueueTable, Policy) { GetParam().run(); }

INSTANTIATE_TEST_SUITE_P(
    Rows, ShotQueueTable,
    ::testing::Values(
        QueueCase{"weighted_pair_unit_share", weighted_pair_unit_share},
        QueueCase{"quota_skips_and_freezes_pass",
                  quota_skips_and_freezes_pass},
        QueueCase{"late_tenant_starts_at_min_pass",
                  late_tenant_starts_at_min_pass},
        QueueCase{"affinity_lead_cap", affinity_lead_cap},
        QueueCase{"tenantless_shot_in_admission_order",
                  tenantless_shot_in_admission_order},
        QueueCase{"requeue_into_cancelled_shot_is_dropped",
                  requeue_into_cancelled_shot_is_dropped},
        QueueCase{"committed_pruned_blocked_skipped",
                  committed_pruned_blocked_skipped}),
    [](const ::testing::TestParamInfo<QueueCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace now
