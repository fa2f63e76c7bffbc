// FrameLedger and the scheduler-checkpoint planner, row by row: the pure
// commit ledger the frame stores gate with and the scheduler mirrors, driven
// directly — no actor, no runtime, no pixels. Each row checks one commit
// verdict, one bookkeeping transition, one lost-cell query, or one rule of
// plan_resume.
#include "src/shard/frame_ledger.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/shard/digest.h"

namespace now {
namespace {

using Commit = FrameLedger::Commit;

constexpr int kW = 8;
constexpr int kH = 6;
constexpr std::int64_t kArea = std::int64_t{kW} * kH;
const PixelRect kLeft{0, 0, 4, 6};
const PixelRect kRight{4, 0, 4, 6};
const PixelRect kWhole{0, 0, kW, kH};

RenderTask task(const PixelRect& rect, int first, int count) {
  return {-1, rect, first, count};
}

/// "<kind> <L|R|W> <first>+<count>" per planned task, in plan order.
std::vector<std::string> describe(const std::vector<ResumeTask>& plan) {
  static const char* const kKinds[] = {"pending", "remainder", "reclaim",
                                       "wholesale"};
  std::vector<std::string> out;
  for (const ResumeTask& t : plan) {
    const char* rect = t.task.region == kLeft    ? "L"
                       : t.task.region == kRight ? "R"
                       : t.task.region == kWhole ? "W"
                                                 : "?";
    EXPECT_EQ(t.task.task_id, -1);
    out.push_back(std::string(kKinds[static_cast<int>(t.kind)]) + " " + rect +
                  " " + std::to_string(t.task.first_frame) + "+" +
                  std::to_string(t.task.frame_count));
  }
  return out;
}

CheckpointRecord::Task pending(const PixelRect& rect, int first, int count) {
  return {-1, rect, first, count};
}

/// A ledger over frames [0, frames) with `restored` frames journal-restored.
FrameLedger restored_ledger(int frames, const std::vector<int>& restored) {
  std::vector<std::optional<Framebuffer>> images(
      static_cast<std::size_t>(frames));
  for (const int f : restored) images[f] = Framebuffer(kW, kH);
  FrameLedger ledger(kArea, 0, frames);
  ledger.restore(images, {});
  return ledger;
}

std::vector<std::vector<RegionCommitRecord>> journal(
    int frames, const std::vector<std::pair<int, PixelRect>>& cells) {
  std::vector<std::vector<RegionCommitRecord>> out(
      static_cast<std::size_t>(frames));
  for (const auto& [frame, rect] : cells) {
    RegionCommitRecord rc;
    rc.frame = frame;
    rc.rect = rect;
    out[frame].push_back(rc);
  }
  return out;
}

// ---- the ledger ------------------------------------------------------------

void fresh_then_completing_commits() {
  FrameLedger ledger(kArea, 0, 4);
  EXPECT_EQ(ledger.missing_total(), 4 * kArea);
  EXPECT_EQ(ledger.commit(1, kLeft), Commit::kFresh);
  EXPECT_FALSE(ledger.complete(1));
  EXPECT_EQ(ledger.missing_total(), 4 * kArea - kLeft.area());
  EXPECT_EQ(ledger.commit(1, kRight), Commit::kCompleted);
  EXPECT_TRUE(ledger.complete(1));
  EXPECT_EQ(ledger.missing_total(), 3 * kArea);
  EXPECT_EQ(ledger.commit(2, kWhole), Commit::kCompleted);
  EXPECT_EQ(ledger.missing_total(), 2 * kArea);
}

void duplicate_is_checked_before_oversize() {
  FrameLedger ledger(kArea, 0, 2);
  ASSERT_EQ(ledger.commit(0, kLeft), Commit::kFresh);
  EXPECT_EQ(ledger.commit(0, kLeft), Commit::kDuplicate);
  // Larger than what the frame still misses: malformed, nothing recorded.
  EXPECT_EQ(ledger.commit(0, kWhole), Commit::kOversize);
  EXPECT_EQ(ledger.missing_total(), 2 * kArea - kLeft.area());
  EXPECT_EQ(ledger.commit(0, kRight), Commit::kCompleted);
  // A redelivered whole-frame rect into a complete frame is oversize too,
  // but the duplicate verdict wins.
  ASSERT_EQ(ledger.commit(1, kWhole), Commit::kCompleted);
  EXPECT_EQ(ledger.commit(1, kWhole), Commit::kDuplicate);
  EXPECT_EQ(ledger.missing_total(), 0);
}

void grow_restore_and_write_off() {
  // A shard's ledger: frames [4, 6), grown to [4, 8).
  FrameLedger ledger(kArea, 4, 2);
  EXPECT_FALSE(ledger.owns(3));
  EXPECT_TRUE(ledger.owns(5));
  EXPECT_FALSE(ledger.owns(6));
  ledger.grow(2);
  EXPECT_EQ(ledger.end_frame(), 8);
  EXPECT_EQ(ledger.missing_total(), 4 * kArea);

  // Restore frames 5 and 7 (frame 1 is not owned and is skipped); frame
  // 5's journal records re-arm its gate.
  std::vector<std::optional<Framebuffer>> images(8);
  images[1] = images[5] = images[7] = Framebuffer(kW, kH);
  EXPECT_EQ(ledger.restore(images, journal(8, {{5, kLeft}, {5, kRight}})),
            2);
  EXPECT_TRUE(ledger.complete(5));
  EXPECT_TRUE(ledger.complete(7));
  EXPECT_FALSE(ledger.complete(4));
  EXPECT_EQ(ledger.missing_total(), 2 * kArea);
  EXPECT_EQ(ledger.commit(5, kLeft), Commit::kDuplicate);
  EXPECT_EQ(ledger.commit(7, kLeft), Commit::kOversize);

  // A cancelled shot's frames: no longer missing.
  ledger.write_off(4, 7);
  EXPECT_TRUE(ledger.complete(4));
  EXPECT_TRUE(ledger.complete(6));
  EXPECT_EQ(ledger.missing_total(), 0);
}

void covers_complete_frames_and_committed_rects() {
  FrameLedger ledger(kArea, 0, 4);
  ASSERT_EQ(ledger.commit(0, kLeft), Commit::kFresh);
  ASSERT_EQ(ledger.commit(1, kLeft), Commit::kFresh);
  ASSERT_EQ(ledger.commit(2, kWhole), Commit::kCompleted);
  EXPECT_TRUE(ledger.covers(task(kLeft, 0, 3)));
  EXPECT_FALSE(ledger.covers(task(kLeft, 0, 4)));
  EXPECT_FALSE(ledger.covers(task(kRight, 0, 1)));
  EXPECT_TRUE(ledger.covers(task(kRight, 2, 1)));  // frame 2 is complete
}

void roll_back_returns_lost_cells() {
  FrameLedger ledger(kArea, 0, 6);
  for (const int f : {0, 1, 3, 4}) {
    ASSERT_EQ(ledger.commit(f, kLeft), Commit::kFresh);
  }
  ASSERT_EQ(ledger.commit(1, kRight), Commit::kCompleted);
  ASSERT_EQ(ledger.commit(5, kRight), Commit::kFresh);
  // Frames [0, 5) die with their owner; frame 1 is complete (durable) and
  // frame 5 lies outside the range.
  const FrameLedger::LostCells lost = ledger.roll_back(0, 5);
  const FrameLedger::LostCells want{{rect_key(kLeft), {0, 3, 4}}};
  EXPECT_EQ(lost, want);
  EXPECT_TRUE(ledger.complete(1));
  EXPECT_FALSE(ledger.complete(0));
  EXPECT_EQ(ledger.missing_total(), 4 * kArea + kArea - kRight.area());
  EXPECT_FALSE(ledger.covers(task(kLeft, 0, 1)));
  EXPECT_TRUE(ledger.covers(task(kRight, 5, 1)));
  // The rolled-back cells commit afresh.
  EXPECT_EQ(ledger.commit(0, kLeft), Commit::kFresh);
  EXPECT_TRUE(ledger.roll_back(1, 2).empty());
}

void reclaim_runs_split_around_a_gap() {
  const FrameLedger::LostCells lost{{rect_key(kRight), {2}},
                                    {rect_key(kLeft), {0, 1, 3, 7, 8}}};
  const std::vector<RenderTask> want{task(kLeft, 0, 2), task(kLeft, 3, 1),
                                     task(kLeft, 7, 2), task(kRight, 2, 1)};
  EXPECT_EQ(reclaim_tasks(lost), want);
  EXPECT_TRUE(reclaim_tasks({}).empty());
}

void checkpoint_records_the_table() {
  FrameLedger ledger(kArea, 0, 3);
  ASSERT_EQ(ledger.commit(1, kWhole), Commit::kCompleted);
  RenderTask queued = task(kLeft, 2, 1);
  queued.task_id = 9;
  const CheckpointRecord cp =
      checkpoint_of(ledger, {queued}, {{1, 4, kRight, 0, 3}});
  EXPECT_EQ(cp.completed, (std::vector<bool>{false, true, false}));
  ASSERT_EQ(cp.pending.size(), 1u);
  EXPECT_EQ(cp.pending[0].task_id, 9);
  EXPECT_EQ(cp.pending[0].rect, kLeft);
  EXPECT_EQ(cp.pending[0].first_frame, 2);
  EXPECT_EQ(cp.pending[0].frame_count, 1);
  ASSERT_EQ(cp.in_flight.size(), 1u);
  EXPECT_EQ(cp.in_flight[0].task_id, 4);
}

// ---- the resume planner ---------------------------------------------------

void plan_trims_pending_around_restored_frames() {
  CheckpointRecord ck;
  ck.pending = {pending(kLeft, 0, 6), pending(kRight, 0, 6)};
  EXPECT_EQ(describe(plan_resume(ck, {}, restored_ledger(6, {2, 5}), kWhole)),
            (std::vector<std::string>{"pending L 0+2", "pending L 3+2",
                                      "pending R 0+2", "pending R 3+2"}));
}

void plan_flags_in_flight_remainders_as_restarts() {
  CheckpointRecord ck;
  ck.pending = {pending(kRight, 0, 6), pending(kLeft, 0, 2)};
  ck.in_flight = {{1, 3, kLeft, 2, 6}};
  EXPECT_EQ(describe(plan_resume(ck, {}, restored_ledger(6, {4}), kWhole)),
            (std::vector<std::string>{"pending R 0+4", "pending R 5+1",
                                      "pending L 0+2", "remainder L 2+2",
                                      "remainder L 5+1"}));
}

void plan_reclaims_journal_cells() {
  // The left half of frames 0-2 was committed before the checkpoint: no
  // table task covers it, and its pixels died with the process.
  CheckpointRecord ck;
  ck.pending = {pending(kRight, 0, 4), pending(kLeft, 3, 1)};
  const auto commits =
      journal(4, {{0, kLeft}, {2, kLeft}, {1, kLeft}, {2, kRight}});
  EXPECT_EQ(describe(plan_resume(ck, commits, restored_ledger(4, {}), kWhole)),
            (std::vector<std::string>{"pending R 0+4", "pending L 3+1",
                                      "reclaim L 0+3", "reclaim R 2+1"}));
}

void plan_rerenders_short_covered_frames_wholesale() {
  // Nothing covers frame 3's left half (its journal segment vanished):
  // frame 3 re-renders whole, its other tasks and journal cells are
  // trimmed away, and the frames around it stay incremental.
  CheckpointRecord ck;
  ck.pending = {pending(kRight, 0, 6), pending(kLeft, 4, 2)};
  ck.in_flight = {{2, 7, kLeft, 1, 3}};
  const auto commits = journal(6, {{0, kLeft}, {3, kRight}});
  EXPECT_EQ(describe(plan_resume(ck, commits, restored_ledger(6, {}), kWhole)),
            (std::vector<std::string>{"pending R 0+3", "pending R 4+2",
                                      "pending L 4+2", "remainder L 1+2",
                                      "reclaim L 0+1", "wholesale W 3+1"}));
}

struct TableCase {
  const char* name;
  void (*run)();
};

void PrintTo(const TableCase& c, std::ostream* os) { *os << c.name; }

class FrameLedgerTable : public ::testing::TestWithParam<TableCase> {};

TEST_P(FrameLedgerTable, Row) { GetParam().run(); }

INSTANTIATE_TEST_SUITE_P(
    Rows, FrameLedgerTable,
    ::testing::Values(
        TableCase{"fresh_then_completing_commits",
                  fresh_then_completing_commits},
        TableCase{"duplicate_is_checked_before_oversize",
                  duplicate_is_checked_before_oversize},
        TableCase{"grow_restore_and_write_off", grow_restore_and_write_off},
        TableCase{"covers_complete_frames_and_committed_rects",
                  covers_complete_frames_and_committed_rects},
        TableCase{"roll_back_returns_lost_cells",
                  roll_back_returns_lost_cells},
        TableCase{"reclaim_runs_split_around_a_gap",
                  reclaim_runs_split_around_a_gap},
        TableCase{"checkpoint_records_the_table",
                  checkpoint_records_the_table},
        TableCase{"plan_trims_pending_around_restored_frames",
                  plan_trims_pending_around_restored_frames},
        TableCase{"plan_flags_in_flight_remainders_as_restarts",
                  plan_flags_in_flight_remainders_as_restarts},
        TableCase{"plan_reclaims_journal_cells", plan_reclaims_journal_cells},
        TableCase{"plan_rerenders_short_covered_frames_wholesale",
                  plan_rerenders_short_covered_frames_wholesale}),
    [](const ::testing::TestParamInfo<TableCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace now
