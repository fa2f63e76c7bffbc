// WorkerTable, Lease and ShardTable, row by row: the pure worker lifecycle
// and shard liveness are driven directly — no actor, no runtime — and each
// row checks one guarded transition, one digest-chain rule, one lease
// verdict, or one shard fence decision.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "src/par/worker_table.h"

namespace now {
namespace {

using Admit = WorkerTable::Admit;
using Advance = WorkerTable::Advance;
using Verdict = Lease::Verdict;
using Fence = ShardTable::Fence;

const PixelRect kTile{0, 0, 4, 4};

/// Unsharded map over 16 frames.
ShardMap one_store() {
  ShardMap map;
  map.worker_count = 2;
  map.frame_count = 16;
  return map;
}

/// Two shards: frames [0, 8) and [8, 16).
ShardMap two_shards() {
  ShardMap map = one_store();
  map.shard_count = 2;
  return map;
}

CommitDigest digest(int worker, std::int32_t task, std::int32_t frame,
                    CommitKind kind = CommitKind::kFresh) {
  CommitDigest d;
  d.worker = worker;
  d.task_id = task;
  d.frame = frame;
  d.rect = kTile;
  d.kind = kind;
  return d;
}

/// Hello, then dispatch `task` to `w` off the idle queue.
void hello_and_assign(WorkerTable& t, int w, const RenderTask& task) {
  ASSERT_EQ(t.admit(w, /*hello=*/true, 0.0), Admit::kReady);
  t.make_idle(w);
  ASSERT_EQ(t.idle_front(), w);
  t.pop_idle();
  t.assign(w, task);
}

void hello_assign_and_finish() {
  WorkerTable t(2, one_store());
  EXPECT_EQ(t[1].phase, WorkerPhase::kUnknown);
  EXPECT_EQ(t.idle_front(), -1);
  ASSERT_EQ(t.admit(1, /*hello=*/true, 0.0), Admit::kReady);
  EXPECT_EQ(t[1].phase, WorkerPhase::kIdle);
  t.make_idle(1);
  t.make_idle(1);  // queued once
  EXPECT_EQ(t.idle_live(), 1);
  ASSERT_EQ(t.idle_front(), 1);
  t.pop_idle();
  EXPECT_FALSE(t[1].queued);
  EXPECT_EQ(t.idle_front(), -1);
  t.assign(1, {7, kTile, 2, 2});
  EXPECT_TRUE(t.holds(1, 7));
  EXPECT_FALSE(t.holds(1, 8));
  EXPECT_EQ(t.busy_count(), 1);
  EXPECT_EQ(t.holder(7), 1);
  EXPECT_EQ(t.advance(digest(1, 7, 2), 1.0), Advance::kProgressed);
  EXPECT_EQ(t[1].lease.last_progress, 1.0);
  EXPECT_EQ(t.advance(digest(1, 7, 3), 2.0), Advance::kDone);
  EXPECT_EQ(t[1].next_expected, 4);
  // Finished and fully reported: a request just goes idle.
  EXPECT_EQ(t.admit(1, /*hello=*/false, 3.0), Admit::kReady);
  t.make_idle(1);
  EXPECT_EQ(t[1].phase, WorkerPhase::kIdle);
  EXPECT_FALSE(t.holds(1, 7));
  EXPECT_STREQ(to_string(t[1].phase), "idle");
}

void nack_requeues_verbatim() {
  WorkerTable t(2, one_store());
  hello_and_assign(t, 1, {4, kTile, 3, 5});
  t.charge(1, 2);
  EXPECT_EQ(t.take_charge(1), 2);
  EXPECT_EQ(t.take_charge(1), -1);  // released once
  const RenderTask back = t.nack(1);
  EXPECT_EQ(back.task_id, 4);
  EXPECT_EQ(back.first_frame, 3);
  EXPECT_EQ(back.frame_count, 5);
  EXPECT_EQ(back.region, kTile);
  // Idle but not queued: the worker asks again when its other work is done.
  EXPECT_EQ(t[1].phase, WorkerPhase::kIdle);
  EXPECT_FALSE(t[1].queued);
  EXPECT_FALSE(t.holds(1, 4));
}

void cancel_reclaims_undelivered_remainder() {
  WorkerTable t(2, two_shards());
  hello_and_assign(t, 1, {5, kTile, 6, 4});  // frames 6..9 span both shards
  EXPECT_EQ(t.advance(digest(1, 5, 6), 1.0), Advance::kProgressed);
  EXPECT_EQ(t.advance(digest(1, 5, 8), 1.0), Advance::kDeferred);
  const RenderTask rest = t.cancel(1);
  EXPECT_EQ(rest.task_id, -1);
  EXPECT_EQ(rest.first_frame, 7);
  EXPECT_EQ(rest.frame_count, 3);
  EXPECT_EQ(t[1].phase, WorkerPhase::kCancelled);
  EXPECT_TRUE(t[1].assigned());
  EXPECT_TRUE(t[1].deferred_frames.empty());
  EXPECT_FALSE(t.holds(1, 5));
  EXPECT_EQ(t.in_flight().size(), 0u);
  EXPECT_STREQ(to_string(t[1].phase), "cancelled");
  // The copy stops at what it delivered; a shrink goes out once.
  EXPECT_TRUE(t.stop_at_delivered(1));
  EXPECT_EQ(t[1].end_frame, 7);
  t.shrink_sent(1);
  EXPECT_FALSE(t.stop_at_delivered(1));
}

void request_with_results_missing() {
  // Unsharded: per-sender FIFO means the missing results were lost.
  WorkerTable one(2, one_store());
  hello_and_assign(one, 1, {1, kTile, 0, 3});
  EXPECT_EQ(one.admit(1, /*hello=*/false, 1.0), Admit::kLost);
  // Sharded: digests may still be in flight; the request is parked until
  // the chain finishes or the task is written off.
  WorkerTable two(2, two_shards());
  hello_and_assign(two, 1, {1, kTile, 0, 3});
  EXPECT_EQ(two.admit(1, /*hello=*/false, 1.0), Admit::kParked);
  EXPECT_TRUE(two[1].request_pending);
  EXPECT_TRUE(two.holds(1, 1));
  two.cancel(1);  // write-off completes the parked idle transition
  EXPECT_EQ(two[1].phase, WorkerPhase::kIdle);
  EXPECT_FALSE(two[1].request_pending);
  EXPECT_EQ(two.idle_front(), 1);
}

void death_and_rejoin_while_still_queued() {
  WorkerTable t(2, two_shards());
  hello_and_assign(t, 1, {3, kTile, 0, 4});
  hello_and_assign(t, 2, {9, kTile, 8, 4});
  // Worker 1 parks a request, is written off (queued again) and dies with
  // its idle-queue entry still in place.
  ASSERT_EQ(t.admit(1, /*hello=*/false, 1.0), Admit::kParked);
  t.cancel(1);
  ASSERT_TRUE(t[1].queued);
  t.declare_dead(1);
  EXPECT_TRUE(t.dead(1));
  EXPECT_FALSE(t[1].assigned());
  EXPECT_STREQ(to_string(t[1].phase), "dead");
  EXPECT_TRUE(t.any_alive());
  EXPECT_EQ(t.idle_live(), 0);
  // A dead rank's request is ignored and its heartbeat is not renewed.
  EXPECT_EQ(t.admit(1, /*hello=*/false, 2.0), Admit::kIgnored);
  t.heard(1, 2.0);
  EXPECT_EQ(t[1].lease.last_heard, 0.0);
  // Its hello re-admits it with a clean slate, keeping the queue entry.
  EXPECT_EQ(t.admit(1, /*hello=*/true, 3.0), Admit::kRejoined);
  EXPECT_EQ(t[1].phase, WorkerPhase::kIdle);
  EXPECT_TRUE(t[1].queued);
  EXPECT_EQ(t[1].lease.last_heard, 3.0);
  EXPECT_EQ(t[1].lease.last_progress, 3.0);
  t.make_idle(1);  // no second entry
  EXPECT_EQ(t.idle_live(), 1);
  ASSERT_EQ(t.idle_front(), 1);
  t.pop_idle();
  EXPECT_EQ(t.idle_front(), -1);
  // Dispatch drops a dead rank's stale entry.
  t.assign(1, {10, kTile, 4, 4});
  t.cancel(2);
  t.make_idle(2);
  t.declare_dead(2);
  EXPECT_EQ(t.idle_front(), -1);
  EXPECT_FALSE(t[2].queued);
}

void late_result_after_reassign_is_ignored() {
  WorkerTable t(2, one_store());
  hello_and_assign(t, 1, {3, kTile, 0, 6});
  EXPECT_EQ(t.advance(digest(1, 3, 0), 1.0), Advance::kProgressed);
  t.shrink_sent(1);
  t.cancel(1);  // task 3 written off
  t.make_idle(1);
  t.pop_idle();
  t.assign(1, {11, kTile, 8, 4});
  // Late traffic for the written-off task: ignored by the task-id match.
  EXPECT_EQ(t.advance(digest(1, 3, 1), 2.0), Advance::kIgnored);
  EXPECT_EQ(t.advance(digest(1, 3, 1, CommitKind::kChainReject), 2.0),
            Advance::kIgnored);
  EXPECT_EQ(t[1].next_expected, 8);
  t.shrink_sent(1);
  ShrinkAck ack;
  ack.task_id = 3;
  ack.honored_end_frame = 2;
  EXPECT_FALSE(t.shrink_ack(1, ack).has_value());
  EXPECT_FALSE(t[1].awaiting_ack);
  EXPECT_EQ(t[1].end_frame, 12);
  EXPECT_TRUE(t.holds(1, 11));
  EXPECT_EQ(t.advance(digest(1, 11, 8), 3.0), Advance::kProgressed);
}

void shrink_ack_steals_honored_range() {
  WorkerTable t(2, one_store());
  hello_and_assign(t, 1, {2, kTile, 0, 8});
  t.shrink_sent(1);
  ShrinkAck ack;
  ack.task_id = 2;
  ack.honored_end_frame = 5;
  const std::optional<RenderTask> stolen = t.shrink_ack(1, ack);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->task_id, -1);
  EXPECT_EQ(stolen->first_frame, 5);
  EXPECT_EQ(stolen->frame_count, 3);
  EXPECT_EQ(t[1].end_frame, 5);
  // Nothing left to steal, or no shorter end: no range.
  ack.honored_end_frame = -1;
  EXPECT_FALSE(t.shrink_ack(1, ack).has_value());
  ack.honored_end_frame = 5;
  EXPECT_FALSE(t.shrink_ack(1, ack).has_value());
}

void digest_chain_orders() {
  WorkerTable t(2, two_shards());
  hello_and_assign(t, 1, {6, kTile, 6, 5});  // frames 6..10
  // In order.
  EXPECT_EQ(t.advance(digest(1, 6, 6), 1.0), Advance::kProgressed);
  // Cross-shard reordering: shard 1's frames overtake shard 0's frame 7.
  EXPECT_EQ(t.advance(digest(1, 6, 8), 2.0), Advance::kDeferred);
  EXPECT_EQ(t.advance(digest(1, 6, 9), 2.0), Advance::kDeferred);
  EXPECT_EQ(t[1].lease.last_progress, 1.0);
  // Catch-up drains the reorder buffer.
  EXPECT_EQ(t.advance(digest(1, 6, 7), 3.0), Advance::kProgressed);
  EXPECT_EQ(t[1].next_expected, 10);
  EXPECT_TRUE(t[1].deferred_frames.empty());
  // Stale: a frame the chain already passed.
  EXPECT_EQ(t.advance(digest(1, 6, 8, CommitKind::kDuplicate), 4.0),
            Advance::kStale);
  EXPECT_EQ(t.advance(digest(1, 6, 10), 5.0), Advance::kDone);

  // A gap within one shard is loss, not reordering.
  hello_and_assign(t, 2, {12, kTile, 0, 4});
  EXPECT_EQ(t.advance(digest(2, 12, 2), 1.0), Advance::kGap);
  EXPECT_EQ(t[2].next_expected, 0);
  // So is a store's chain reject, even for the expected frame.
  EXPECT_EQ(t.advance(digest(2, 12, 0, CommitKind::kChainReject), 1.0),
            Advance::kGap);
  // Unsharded, any gap is loss.
  WorkerTable one(2, one_store());
  hello_and_assign(one, 1, {6, kTile, 6, 5});
  EXPECT_EQ(one.advance(digest(1, 6, 9), 1.0), Advance::kGap);
}

void split_victim_and_checkpoint_views() {
  WorkerTable t(2, one_store());
  hello_and_assign(t, 1, {1, kTile, 0, 6});
  hello_and_assign(t, 2, {2, kTile, 6, 4});
  const std::map<std::int32_t, std::int32_t> none;
  EXPECT_EQ(t.split_victim(none, nullptr), 1);
  // Paired tasks and workers mid-shrink are never victims.
  EXPECT_EQ(t.split_victim({{1, 9}, {9, 1}}, nullptr), 2);
  t.shrink_sent(2);
  EXPECT_EQ(t.split_victim({{1, 9}, {9, 1}}, nullptr), -1);
  // Ranked by expected time: worker 2's four frames at 10 s beat worker
  // 1's six at 1 s.
  StragglerDetector straggler;
  for (int i = 0; i < 8; ++i) {
    straggler.observe(1, 1.0);
    straggler.observe(2, 10.0);
  }
  ShrinkAck ack;
  ack.task_id = 2;
  t.shrink_ack(2, ack);
  EXPECT_EQ(t.split_victim(none, &straggler), 2);
  const auto views = t.in_flight();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].worker, 1);
  EXPECT_EQ(views[0].task_id, 1);
  EXPECT_EQ(views[0].next_expected, 0);
  EXPECT_EQ(views[0].end_frame, 6);
  EXPECT_EQ(views[1].rect, kTile);
}

void progress_lease_verdicts() {
  Lease lease;  // kProgress
  lease.length = 10.0;
  lease.restart(0.0);
  double renew_in = 0.0;
  // Messages without progress do not move a progress lease's expiry.
  lease.last_heard = 8.0;
  EXPECT_EQ(lease.judge(4.0, false, &renew_in), Verdict::kRenew);
  EXPECT_DOUBLE_EQ(renew_in, 6.0);
  EXPECT_EQ(lease.judge(10.0, false, &renew_in), Verdict::kPing);
  EXPECT_EQ(lease.ping_time, 10.0);
  // Silent through the grace period.
  EXPECT_EQ(lease.judge(12.0, true, &renew_in), Verdict::kSilent);
  // A pong without progress: answered (the worker is stuck).
  lease.last_heard = 11.0;
  EXPECT_EQ(lease.judge(12.0, true, &renew_in), Verdict::kAnswered);
  EXPECT_EQ(lease.ping_time, -1.0);
  // A grace check with no ping outstanding pings first.
  EXPECT_EQ(lease.judge(13.0, true, &renew_in), Verdict::kPing);
  // Progress renews.
  lease.progressed(13.5);
  EXPECT_EQ(lease.ping_time, -1.0);
  EXPECT_EQ(lease.judge(14.0, true, &renew_in), Verdict::kRenew);
  EXPECT_DOUBLE_EQ(renew_in, 9.5);
}

void liveness_lease_verdicts() {
  Lease lease{Lease::Kind::kLiveness};
  lease.length = 5.0;
  lease.restart(0.0);
  double renew_in = 0.0;
  // Any message renews a liveness lease.
  lease.last_heard = 3.0;
  EXPECT_EQ(lease.judge(6.0, false, &renew_in), Verdict::kRenew);
  EXPECT_DOUBLE_EQ(renew_in, 2.0);
  EXPECT_EQ(lease.judge(8.0, false, &renew_in), Verdict::kPing);
  EXPECT_EQ(lease.judge(9.0, true, &renew_in), Verdict::kSilent);
  lease.last_heard = 8.5;  // the pong (still expired at 9.0 + grace)
  EXPECT_EQ(lease.judge(14.0, true, &renew_in), Verdict::kAnswered);
  EXPECT_EQ(lease.ping_time, -1.0);
}

void shard_fence_resets_once_per_death() {
  // Two shards at ranks 3 and 4 (workers are ranks 1 and 2).
  ShardTable t(two_shards(), 5.0, 0.0);
  EXPECT_EQ(t.fence(4), Fence::kApply);
  ASSERT_TRUE(t.declare_dead(1));
  EXPECT_FALSE(t.declare_dead(1));
  // The dead incarnation is still talking: one reset, then silence.
  EXPECT_EQ(t.fence(4), Fence::kReset);
  EXPECT_EQ(t.fence(4), Fence::kDrop);
  EXPECT_EQ(t.fence(4), Fence::kDrop);
  EXPECT_EQ(t.fence(3), Fence::kApply);  // the live shard is untouched
  // A rebuilt incarnation's hello: its digests apply again.
  t.rejoin(1, 7.0);
  EXPECT_FALSE(t.dead(1));
  EXPECT_EQ(t.fence(4), Fence::kApply);
  // The next death fences afresh.
  ASSERT_TRUE(t.declare_dead(1));
  EXPECT_EQ(t.fence(4), Fence::kReset);
  EXPECT_EQ(t.fence(4), Fence::kDrop);
}

void shard_liveness_lookup_and_dispatch_hold() {
  ShardTable t(two_shards(), 5.0, 0.0);
  EXPECT_EQ(t.size(), 2);
  EXPECT_EQ(t.index_of(0), -1);  // the scheduler
  EXPECT_EQ(t.index_of(2), -1);  // a worker
  EXPECT_EQ(t.index_of(3), 0);
  EXPECT_EQ(t.index_of(4), 1);
  EXPECT_EQ(t.index_of(5), -1);
  t.heard(4, 3.0);
  ASSERT_NE(t.live_lease(1), nullptr);
  EXPECT_EQ(t.live_lease(1)->kind, Lease::Kind::kLiveness);
  EXPECT_EQ(t.last_heard(1), 3.0);
  EXPECT_EQ(t.live_lease(2), nullptr);
  // Shard 0 owns frames [0, 8). Once it is dead, its frames are held from
  // dispatch and its messages renew nothing.
  ASSERT_TRUE(t.declare_dead(0));
  t.heard(3, 4.0);
  EXPECT_EQ(t.last_heard(0), 0.0);
  EXPECT_EQ(t.live_lease(0), nullptr);
  EXPECT_TRUE(t.blocks({1, kTile, 7, 2}));
  EXPECT_FALSE(t.blocks({1, kTile, 8, 2}));
  t.rejoin(0, 6.0);
  EXPECT_FALSE(t.blocks({1, kTile, 7, 2}));
  EXPECT_EQ(t.last_heard(0), 6.0);
  // Liveness off: an empty table where every shard reads alive.
  ShardTable off;
  EXPECT_EQ(off.index_of(3), -1);
  EXPECT_FALSE(off.dead(0));
  EXPECT_EQ(off.fence(3), Fence::kApply);
  EXPECT_EQ(off.live_lease(0), nullptr);
  EXPECT_FALSE(off.blocks({1, kTile, 0, 16}));
}

struct TableCase {
  const char* name;
  void (*run)();
};

void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

class WorkerTableTable : public ::testing::TestWithParam<TableCase> {};

TEST_P(WorkerTableTable, Lifecycle) { GetParam().run(); }

INSTANTIATE_TEST_SUITE_P(
    Rows, WorkerTableTable,
    ::testing::Values(
        TableCase{"hello_assign_and_finish", hello_assign_and_finish},
        TableCase{"nack_requeues_verbatim", nack_requeues_verbatim},
        TableCase{"cancel_reclaims_undelivered_remainder",
                  cancel_reclaims_undelivered_remainder},
        TableCase{"request_with_results_missing",
                  request_with_results_missing},
        TableCase{"death_and_rejoin_while_still_queued",
                  death_and_rejoin_while_still_queued},
        TableCase{"late_result_after_reassign_is_ignored",
                  late_result_after_reassign_is_ignored},
        TableCase{"shrink_ack_steals_honored_range",
                  shrink_ack_steals_honored_range},
        TableCase{"digest_chain_orders", digest_chain_orders},
        TableCase{"split_victim_and_checkpoint_views",
                  split_victim_and_checkpoint_views},
        TableCase{"progress_lease_verdicts", progress_lease_verdicts},
        TableCase{"liveness_lease_verdicts", liveness_lease_verdicts},
        TableCase{"shard_fence_resets_once_per_death",
                  shard_fence_resets_once_per_death},
        TableCase{"shard_liveness_lookup_and_dispatch_hold",
                  shard_liveness_lookup_and_dispatch_hold}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace now
