#include "src/shard/frame_ledger.h"

#include <algorithm>
#include <utility>

#include "src/shard/digest.h"

namespace now {

FrameLedger::FrameLedger(std::int64_t frame_area, int first_frame,
                         int frame_count)
    : frame_area_(frame_area), first_(first_frame) {
  grow(frame_count);
}

void FrameLedger::grow(int frames) {
  const std::size_t n = missing_.size() + static_cast<std::size_t>(frames);
  missing_.resize(n, frame_area_);
  rects_.resize(n);
  missing_total_ += frame_area_ * frames;
}

FrameLedger::Commit FrameLedger::commit(int frame, const PixelRect& rect) {
  const int local = frame - first_;
  std::set<std::uint64_t>& rects = rects_[local];
  const std::uint64_t key = rect_key(rect);
  const auto at = rects.lower_bound(key);
  if (at != rects.end() && *at == key) return Commit::kDuplicate;
  if (rect.area() > missing_[local]) return Commit::kOversize;
  rects.emplace_hint(at, key);
  missing_[local] -= rect.area();
  missing_total_ -= rect.area();
  return missing_[local] == 0 ? Commit::kCompleted : Commit::kFresh;
}

void FrameLedger::arm(int frame, const PixelRect& rect) {
  rects_[frame - first_].insert(rect_key(rect));
}

int FrameLedger::restore(
    const std::vector<std::optional<Framebuffer>>& frames,
    const std::vector<std::vector<RegionCommitRecord>>& commits) {
  int restored = 0;
  for (int f = first_frame(); f < end_frame(); ++f) {
    if (f >= static_cast<int>(frames.size()) || !frames[f].has_value()) {
      continue;
    }
    write_off(f, f + 1);
    if (f < static_cast<int>(commits.size())) {
      for (const RegionCommitRecord& c : commits[f]) arm(f, c.rect);
    }
    ++restored;
  }
  return restored;
}

void FrameLedger::write_off(int first, int end) {
  for (int f = first; f < end; ++f) {
    missing_total_ -= missing_[f - first_];
    missing_[f - first_] = 0;
  }
}

bool FrameLedger::covers(const RenderTask& task) const {
  const std::uint64_t key = rect_key(task.region);
  for (std::int32_t f = task.first_frame; f < task.end_frame(); ++f) {
    const int local = f - first_;
    if (missing_[local] != 0 && rects_[local].count(key) == 0) return false;
  }
  return true;
}

FrameLedger::LostCells FrameLedger::roll_back(int first, int end) {
  LostCells lost;
  for (int f = first; f < end; ++f) {
    const int local = f - first_;
    if (missing_[local] == 0) continue;
    for (const std::uint64_t key : rects_[local]) lost[key].insert(f);
    missing_total_ += frame_area_ - missing_[local];
    missing_[local] = frame_area_;
    rects_[local].clear();
  }
  return lost;
}

std::vector<RenderTask> reclaim_tasks(const FrameLedger::LostCells& lost) {
  std::vector<RenderTask> tasks;
  for (const auto& [key, frames] : lost) {
    const PixelRect rect = rect_from_key(key);
    for_each_run(
        *frames.begin(), *frames.rbegin() + 1,
        [&](int f) { return frames.count(f) > 0; },
        [&](int f, int b) { tasks.push_back({-1, rect, f, b - f}); });
  }
  return tasks;
}

CheckpointRecord checkpoint_of(
    const FrameLedger& ledger, const std::vector<RenderTask>& pending,
    std::vector<CheckpointRecord::WorkerView> in_flight) {
  CheckpointRecord cp;
  cp.completed.assign(static_cast<std::size_t>(ledger.end_frame()), false);
  for (int f = ledger.first_frame(); f < ledger.end_frame(); ++f) {
    cp.completed[f] = ledger.complete(f);
  }
  for (const RenderTask& t : pending) {
    cp.pending.push_back({t.task_id, t.region, t.first_frame, t.frame_count});
  }
  cp.in_flight = std::move(in_flight);
  return cp;
}

std::vector<ResumeTask> plan_resume(
    const CheckpointRecord& checkpoint,
    const std::vector<std::vector<RegionCommitRecord>>& frame_commits,
    const FrameLedger& restored, const PixelRect& whole) {
  static const std::vector<RegionCommitRecord> kNone;
  const int frames = restored.end_frame();
  const auto journal =
      [&](int f) -> const std::vector<RegionCommitRecord>& {
    return f < static_cast<int>(frame_commits.size()) ? frame_commits[f]
                                                       : kNone;
  };

  // What will cover each incomplete frame: the checkpoint's tasks plus the
  // journal's own commit records, as distinct rects.
  std::vector<std::set<std::uint64_t>> cover(static_cast<std::size_t>(frames));
  const auto cover_range = [&](const PixelRect& rect, int first, int end) {
    const std::uint64_t key = rect_key(rect);
    for (int f = std::max(first, 0); f < std::min(end, frames); ++f) {
      if (!restored.complete(f)) cover[f].insert(key);
    }
  };
  for (const CheckpointRecord::Task& t : checkpoint.pending) {
    cover_range(t.rect, t.first_frame, t.first_frame + t.frame_count);
  }
  for (const CheckpointRecord::WorkerView& v : checkpoint.in_flight) {
    cover_range(v.rect, v.next_expected, v.end_frame);
  }
  std::vector<char> wholesale(static_cast<std::size_t>(frames), 0);
  for (int f = 0; f < frames; ++f) {
    if (restored.complete(f)) continue;
    for (const RegionCommitRecord& c : journal(f)) {
      cover[f].insert(rect_key(c.rect));
    }
    std::int64_t area = 0;
    for (const std::uint64_t key : cover[f]) area += rect_from_key(key).area();
    wholesale[f] = area < whole.area() ? 1 : 0;
  }
  const auto keep = [&](int f) {
    return !restored.complete(f) && !wholesale[f];
  };

  std::vector<ResumeTask> plan;
  const auto trimmed = [&](ResumeTask::Kind kind, const PixelRect& rect,
                           int first, int end) {
    for_each_run(std::max(first, 0), std::min(end, frames), keep,
                 [&](int f, int b) {
                   plan.push_back({kind, {-1, rect, f, b - f}});
                 });
  };
  for (const CheckpointRecord::Task& t : checkpoint.pending) {
    trimmed(ResumeTask::Kind::kPending, t.rect, t.first_frame,
            t.first_frame + t.frame_count);
  }
  for (const CheckpointRecord::WorkerView& v : checkpoint.in_flight) {
    trimmed(ResumeTask::Kind::kRemainder, v.rect, v.next_expected,
            v.end_frame);
  }
  // The journal's cells in frames that stay incremental lost their pixels
  // with the process, and no table task covers them.
  FrameLedger cells(whole.area(), 0, frames);
  for (int f = 0; f < frames; ++f) {
    if (!keep(f)) continue;
    for (const RegionCommitRecord& c : journal(f)) cells.arm(f, c.rect);
  }
  for (const RenderTask& task : reclaim_tasks(cells.roll_back(0, frames))) {
    plan.push_back({ResumeTask::Kind::kReclaim, task});
  }
  for_each_run(
      0, frames, [&](int f) { return wholesale[f] != 0; },
      [&](int f, int b) {
        plan.push_back({ResumeTask::Kind::kWholesale, {-1, whole, f, b - f}});
      });
  return plan;
}

}  // namespace now
