#include "src/par/worker_table.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace now {

Lease::Verdict Lease::judge(double now, bool grace, double* renew_in) {
  // A worker's lease demands progress, not mere liveness: one whose
  // assignment was lost in transit answers pings while rendering nothing.
  // A shard whose owned range is complete commits nothing, so any message
  // renews its lease.
  const double expiry =
      (kind == Kind::kProgress ? last_progress : last_heard) + length;
  if (now < expiry) {
    ping_time = -1.0;
    *renew_in = expiry - now;
    return Verdict::kRenew;
  }
  if (!grace || ping_time < 0.0) {
    ping_time = now;
    return Verdict::kPing;
  }
  if (last_heard < ping_time) return Verdict::kSilent;
  ping_time = -1.0;
  return Verdict::kAnswered;
}

const char* to_string(WorkerPhase phase) {
  static const char* const kNames[] = {"unknown", "idle", "active",
                                       "cancelled", "dead"};
  return kNames[static_cast<int>(phase)];
}

RenderTask sub_task(const RenderTask& task, std::int32_t task_id,
                    std::int32_t first, std::int32_t end) {
  RenderTask out;
  out.task_id = task_id;
  out.region = task.region;
  out.first_frame = first;
  out.frame_count = end - first;
  out.scene_id = task.scene_id;
  out.frame_delta = task.frame_delta;
  return out;
}

bool WorkerTable::any_alive() const {
  for (int w = 1; w < end_rank(); ++w) {
    if (!dead(w)) return true;
  }
  return false;
}

int WorkerTable::busy_count() const {
  int n = 0;
  for (int w = 1; w < end_rank(); ++w) n += busy(w) ? 1 : 0;
  return n;
}

int WorkerTable::idle_live() const {
  int n = 0;
  for (const int w : idle_) n += dead(w) ? 0 : 1;
  return n;
}

int WorkerTable::holder(std::int32_t task_id) const {
  for (int w = 1; w < end_rank(); ++w) {
    if (holds(w, task_id)) return w;
  }
  return -1;
}

int WorkerTable::split_victim(
    const std::map<std::int32_t, std::int32_t>& paired,
    const StragglerDetector* by_time) const {
  int victim = -1;
  double best_score = 0.0;
  for (int w = 1; w < end_rank(); ++w) {
    const Worker& s = workers_[w];
    // A paired task's remainder is already being rendered twice; splitting
    // or cloning it again only manufactures duplicates.
    if (!busy(w) || s.awaiting_ack || paired.count(s.task.task_id) > 0) {
      continue;
    }
    const std::int32_t remaining = s.end_frame - s.next_expected;
    if (remaining < 1) continue;
    const double score = by_time != nullptr
                             ? remaining * by_time->expected_seconds(w)
                             : static_cast<double>(remaining);
    if (score > best_score) {
      best_score = score;
      victim = w;
    }
  }
  return victim;
}

std::vector<CheckpointRecord::WorkerView> WorkerTable::in_flight() const {
  std::vector<CheckpointRecord::WorkerView> views;
  for (int w = 1; w < end_rank(); ++w) {
    const Worker& s = workers_[w];
    if (busy(w)) {
      views.push_back(
          {w, s.task.task_id, s.task.region, s.next_expected, s.end_frame});
    }
  }
  return views;
}

WorkerTable::Admit WorkerTable::admit(int w, bool hello, double now) {
  Worker& s = workers_[w];
  if (s.phase == WorkerPhase::kDead) {
    if (!hello) return Admit::kIgnored;
    // Elastic membership: the process restarted, and its old task was
    // reclaimed at death. A stale idle-queue entry from before the death
    // stays valid, so the worker is not queued twice.
    const bool was_queued = s.queued;
    s = Worker{};
    s.queued = was_queued;
    s.phase = WorkerPhase::kIdle;
    s.lease.restart(now);
    return Admit::kRejoined;
  }
  if (s.phase == WorkerPhase::kUnknown) s.phase = WorkerPhase::kIdle;
  if (!busy(w) || s.next_expected >= s.end_frame) return Admit::kReady;
  // Finished by its own account, results missing. Sharded, the digests may
  // still be in flight behind this request (no cross-sender ordering; a
  // genuine loss still surfaces through the lease). Otherwise per-sender
  // FIFO says anything unseen was lost in transit.
  if (shards_.sharded() && !hello) {
    s.request_pending = true;
    return Admit::kParked;
  }
  return Admit::kLost;
}

void WorkerTable::make_idle(int w) {
  Worker& s = workers_[w];
  assert(s.phase != WorkerPhase::kUnknown && s.phase != WorkerPhase::kDead);
  s.phase = WorkerPhase::kIdle;
  s.request_pending = false;
  s.deferred_frames.clear();
  // A worker asking for work has no task left to shrink; a shrink ack still
  // in flight (e.g. the shrink reached a rank that crashed and rejoined)
  // will arrive with nothing to steal and is harmless.
  s.awaiting_ack = false;
  if (!s.queued) {
    s.queued = true;
    idle_.push_back(w);
  }
}

int WorkerTable::idle_front() {
  while (!idle_.empty() && dead(idle_.front())) pop_idle();
  return idle_.empty() ? -1 : idle_.front();
}

void WorkerTable::pop_idle() {
  workers_[idle_.front()].queued = false;
  idle_.pop_front();
}

void WorkerTable::assign(int w, const RenderTask& task) {
  Worker& s = workers_[w];
  assert(s.phase != WorkerPhase::kUnknown && s.phase != WorkerPhase::kDead);
  s.phase = WorkerPhase::kActive;
  s.task = task;
  s.next_expected = task.first_frame;
  s.end_frame = task.end_frame();
}

int WorkerTable::take_charge(int w) {
  return std::exchange(workers_[w].charged_tenant, -1);
}

RenderTask WorkerTable::nack(int w) {
  Worker& s = workers_[w];
  assert(busy(w));
  s.phase = WorkerPhase::kIdle;
  return sub_task(s.task, s.task.task_id, s.task.first_frame, s.end_frame);
}

std::optional<RenderTask> WorkerTable::shrink_ack(int w, const ShrinkAck& ack) {
  Worker& s = workers_[w];
  s.awaiting_ack = false;
  if (ack.honored_end_frame < 0 || !holds(w, ack.task_id) ||
      ack.honored_end_frame >= s.end_frame) {
    return std::nullopt;
  }
  const RenderTask stolen =
      sub_task(s.task, -1, ack.honored_end_frame, s.end_frame);
  s.end_frame = ack.honored_end_frame;
  return stolen;
}

RenderTask WorkerTable::cancel(int w) {
  Worker& s = workers_[w];
  assert(busy(w));
  s.phase = WorkerPhase::kCancelled;
  // Digests for the written-off range are moot.
  s.deferred_frames.clear();
  const RenderTask rest = sub_task(s.task, -1, s.next_expected, s.end_frame);
  if (s.request_pending) make_idle(w);
  return rest;
}

bool WorkerTable::stop_at_delivered(int w) {
  Worker& s = workers_[w];
  s.end_frame = std::min(s.end_frame, s.next_expected);
  return !s.awaiting_ack;
}

void WorkerTable::declare_dead(int w) {
  workers_[w].phase = WorkerPhase::kDead;
  workers_[w].awaiting_ack = false;
}

WorkerTable::Advance WorkerTable::advance(const CommitDigest& d, double now) {
  if (!holds(d.worker, d.task_id)) return Advance::kIgnored;
  Worker& s = workers_[d.worker];
  // A store rejected the chain, or the gap is within one store's digest
  // stream: per-sender FIFO holds on the worker→store and shard→scheduler
  // edges, so the missing frame was genuinely lost.
  if (d.kind == CommitKind::kChainReject ||
      (d.frame > s.next_expected &&
       (!shards_.sharded() ||
        shards_.shard_of(d.frame) == shards_.shard_of(s.next_expected)))) {
    return Advance::kGap;
  }
  if (d.frame < s.next_expected) return Advance::kStale;
  if (d.frame > s.next_expected) {
    // A later-owned frame's digest overtook an earlier shard's.
    s.deferred_frames.insert(d.frame);
    return Advance::kDeferred;
  }
  s.next_expected = d.frame + 1;
  s.lease.progressed(now);
  while (s.deferred_frames.erase(s.next_expected) > 0) ++s.next_expected;
  return s.next_expected >= s.end_frame ? Advance::kDone
                                        : Advance::kProgressed;
}

ShardTable::ShardTable(const ShardMap& map, double lease_length, double now)
    : shards_(static_cast<std::size_t>(map.shard_count)), map_(map) {
  for (Shard& s : shards_) {
    s.lease.length = lease_length;
    s.lease.restart(now);
  }
}

int ShardTable::index_of(int rank) const {
  const int shard = rank - map_.rank_of_shard(0);
  return shard >= 0 && shard < size() ? shard : -1;
}

Lease* ShardTable::live_lease(int shard) {
  if (shard < 0 || shard >= size() || dead(shard)) return nullptr;
  return &shards_[shard].lease;
}

void ShardTable::heard(int rank, double now) {
  if (Lease* lease = live_lease(index_of(rank))) lease->last_heard = now;
}

ShardTable::Fence ShardTable::fence(int rank) {
  const int shard = index_of(rank);
  if (!dead(shard)) return Fence::kApply;
  return std::exchange(shards_[shard].reset_sent, true) ? Fence::kDrop
                                                        : Fence::kReset;
}

bool ShardTable::declare_dead(int shard) {
  Shard& s = shards_[shard];
  if (s.dead) return false;
  s.dead = true;
  s.reset_sent = false;
  return true;
}

void ShardTable::rejoin(int shard, double now) {
  Shard& s = shards_[shard];
  s.dead = false;
  s.reset_sent = false;
  s.lease.restart(now);
}

bool ShardTable::blocks(const RenderTask& task) const {
  for (int i = 0; i < size(); ++i) {
    if (!dead(i)) continue;
    const auto range = map_.range_of(i);
    if (task.first_frame < range.second && task.end_frame() > range.first) {
      return true;
    }
  }
  return false;
}

}  // namespace now
