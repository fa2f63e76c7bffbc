// FrameLedger: which cells of which frame are committed. One pure type (no
// Context, no tracer, no pixels) in two roles:
//
//  - the FrameStore's authoritative idempotent-commit gate: a store applies,
//    journals and counts a result only when the ledger calls its
//    (rect, frame) fresh, so a speculation partner or a reclaim overlap is
//    applied once;
//  - the RenderMaster's mirror, fed by fresh-commit digests from the
//    colocated store or the remote shards. It answers whether a task is pure
//    duplicate work (covers), whether every pixel is in (missing_total), and
//    which cells a dead shard took with it (roll_back).
//
// Per frame the ledger keeps the area still missing and the set of committed
// rect_keys, plus the running total of missing area. Every rect descends
// from one partition tiling, so distinct rects never partially overlap and a
// frame is complete when its distinct rects sum to the image.
//
// checkpoint_of() and plan_resume() are the scheduler checkpoint's write
// and restore as pure functions; the master only mints ids, requeues,
// traces and counts what plan_resume returns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/image/framebuffer.h"
#include "src/par/protocol.h"

namespace now {

/// Call fn(f, b) for each maximal run [f, b) of frames in [lo, hi) where
/// keep(frame) holds.
template <typename Keep, typename Fn>
void for_each_run(int lo, int hi, const Keep& keep, const Fn& fn) {
  int f = lo;
  while (f < hi) {
    int b = f;
    while (b < hi && keep(b)) ++b;
    if (b > f) fn(f, b);
    f = b > f ? b : f + 1;
  }
}

class FrameLedger {
 public:
  enum class Commit : std::uint8_t {
    kFresh,      // recorded; the frame still misses area
    kCompleted,  // recorded; it was the frame's last cell
    kDuplicate,  // the rect was already committed in this frame
    kOversize,   // larger than the frame's missing area: malformed
  };
  /// Committed cells lost from incomplete frames: per rect_key, the frames
  /// that lost it.
  using LostCells = std::map<std::uint64_t, std::set<int>>;

  FrameLedger() = default;
  /// Frames [first_frame, first_frame + frame_count) of `frame_area`
  /// pixels each, all missing.
  FrameLedger(std::int64_t frame_area, int first_frame, int frame_count);

  int first_frame() const { return first_; }
  int end_frame() const { return first_ + static_cast<int>(missing_.size()); }
  bool owns(int frame) const {
    return frame >= first_frame() && frame < end_frame();
  }
  /// No area missing: assembled, restored or written off.
  bool complete(int frame) const { return missing_[frame - first_] == 0; }
  /// Missing area summed over every frame (0: the run's pixels are all in).
  std::int64_t missing_total() const { return missing_total_; }

  /// Append `frames` frames, all missing.
  void grow(int frames);
  /// Record `rect` committed in `frame`. Duplicate is checked before
  /// oversize, and neither changes the ledger.
  Commit commit(int frame, const PixelRect& rect);
  /// Record `rect` in `frame` without charging its area: a journal record
  /// whose cell is known, whatever became of its pixels.
  void arm(int frame, const PixelRect& rect);
  /// Journal restore: every owned frame `frames` holds becomes complete and
  /// arms its rects from `commits` (both indexed by global frame; missing
  /// entries are skipped). Returns the number of frames restored.
  int restore(const std::vector<std::optional<Framebuffer>>& frames,
              const std::vector<std::vector<RegionCommitRecord>>& commits);
  /// Frames [first, end) will never arrive (a cancelled shot): their area
  /// is no longer missing. They do not count as assembled.
  void write_off(int first, int end);
  /// Every frame of `task` is complete or already holds its rect: assigning
  /// it would be pure duplicate work.
  bool covers(const RenderTask& task) const;
  /// The owner of frames [first, end) lost its memory: each incomplete
  /// frame's area returns to full and its committed cells are returned.
  /// Complete frames are durable and keep their state.
  LostCells roll_back(int first, int end);

 private:
  std::int64_t frame_area_ = 0;
  int first_ = 0;
  std::vector<std::int64_t> missing_;
  std::vector<std::set<std::uint64_t>> rects_;
  std::int64_t missing_total_ = 0;
};

/// One reclaim task (id -1) per lost rect and contiguous run of its frames,
/// in rect_key order, then frame order.
std::vector<RenderTask> reclaim_tasks(const FrameLedger::LostCells& lost);

/// The checkpoint half of the scheduler's table: which frames are complete
/// (written off counts as complete), the queued tasks and the in-flight
/// views. The caller fills the v2 trailer (task-id counter, stragglers).
CheckpointRecord checkpoint_of(
    const FrameLedger& ledger, const std::vector<RenderTask>& pending,
    std::vector<CheckpointRecord::WorkerView> in_flight);

/// One task of a scheduler-checkpoint restore, in plan order.
struct ResumeTask {
  enum class Kind : std::uint8_t {
    kPending,    // a queued checkpoint task, trimmed around complete frames
    kRemainder,  // an in-flight task's undelivered frames (a restart)
    kReclaim,    // journal-committed cells whose pixels died (a restart)
    kWholesale,  // a short-covered frame re-rendered whole (a restart)
  };
  Kind kind = Kind::kPending;
  RenderTask task;  // task_id -1: the scheduler mints ids in plan order
};

/// The resumed task table. `restored` is the scheduler's ledger right after
/// the journal restore (first frame 0; its complete frames are the restored
/// ones) and `whole` the full image rect. Pending tasks, then in-flight
/// remainders, each trimmed to incomplete frames; then reclaims of the
/// journal-committed cells of incomplete frames; then wholesale re-renders
/// of every incomplete frame whose distinct covering rects (tasks plus
/// journal cells) fall short of the image, over contiguous runs. Such a
/// frame (its shard's segment vanished, or was torn past what the
/// checkpoint saw) cannot be patched cell by cell, and its other tasks are
/// trimmed away. Over-coverage is gated at commit; under-coverage would
/// hang the run one cell short of completion.
std::vector<ResumeTask> plan_resume(
    const CheckpointRecord& checkpoint,
    const std::vector<std::vector<RegionCommitRecord>>& frame_commits,
    const FrameLedger& restored, const PixelRect& whole);

}  // namespace now
