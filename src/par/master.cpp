#include "src/par/master.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "src/par/status_json.h"

namespace now {

RenderMaster::RenderMaster(const AnimatedScene& scene,
                           const MasterConfig& config)
    : scene_(scene),
      config_(config),
      queue_(config.metrics),
      straggler_(config.straggler) {
  if (config_.tracer != nullptr && !config_.tracer->enabled()) {
    config_.tracer = nullptr;
  }
  if (config_.metrics != nullptr) {
    ep_digest_bytes_ = &config_.metrics->counter("endpoint.0.digest_bytes");
    frames_committed_live_ =
        &config_.metrics->counter("sched.frames_committed");
    stragglers_flagged_ = &config_.metrics->counter("sched.stragglers");
    queue_depth_ = &config_.metrics->gauge("sched.queue_depth");
  }
}

void RenderMaster::on_start(Context& ctx) {
  // A service starts with an *empty* frame space: shots grow it at
  // admission time, so there is nothing to partition or restore here.
  const bool solo = config_.service.client_count == 0;
  const int frames = solo ? scene_.frame_count() : 0;
  const int w = scene_.width();
  const int h = scene_.height();
  const bool sharded = config_.shards.sharded();
  // In sharded mode the trailing ranks are FrameShard actors, not workers:
  // every `w < workers_.end_rank()` loop (dispatch, leases, speculation,
  // checkpoints, liveness) must exclude them, so the worker table stops at
  // the last worker rank. In service mode the trailing ranks are
  // ShotClient actors instead, excluded the same way.
  const int worker_count =
      sharded ? config_.shards.worker_count
              : ctx.world_size() - 1 - config_.service.client_count;
  assert(worker_count >= 1);
  assert(!sharded || ctx.world_size() == config_.shards.world_size());
  assert(solo || (!sharded && config_.recovery == nullptr));
  workers_ = WorkerTable(worker_count, config_.shards);
  report_.frames_by_worker.assign(static_cast<std::size_t>(worker_count) + 1,
                                  0);
  // The scheduler's ledger mirrors the store(s): it is fed by commit
  // digests whether the pixels live here or at remote shards.
  ledger_ = FrameLedger(std::int64_t{w} * h, 0, frames);

  // Resume: frames the previous run completed (journal record + verified
  // targa on disk) are restored wholesale and never re-enter scheduling.
  // Whichever store owns a frame loads its image; the scheduler only marks
  // it complete.
  if (config_.recovery != nullptr) {
    report_.frames_restored = ledger_.restore(config_.recovery->frames,
                                              config_.recovery->frame_commits);
    if (report_.frames_restored > 0) {
      trace(ctx, "resume.restore", {{"frames", report_.frames_restored}});
    }
  }
  // A solo render is one tenant-less shot over the whole animation.
  if (solo) {
    ShotQueue::Shot shot;
    shot.frame_count = frames;
    if (config_.recovery != nullptr &&
        config_.recovery->last_checkpoint.has_value()) {
      // A scheduler checkpoint survived: resume the compacted task table
      // instead of re-partitioning. Its tasks cover the incomplete
      // remainder as a superset (reclaim overlap is gated away at commit),
      // so the exact tiling assertion below does not apply to this path.
      queue_.admit(shot, {});
      restore_from_checkpoint(ctx);
    } else {
      // Partition each maximal run of incomplete frames independently. A
      // task's first frame is a dense render anyway, so restored frames
      // are free task boundaries.
      std::vector<RenderTask> tasks;
      for_each_run(
          0, frames, [&](int f) { return !ledger_.complete(f); },
          [&](int f, int b) {
            for (RenderTask& task : partition_range(scene_, f, b - f)) {
              task.task_id = next_task_id_++;
              task.first_frame += f;
              tasks.push_back(task);
            }
          });
      [[maybe_unused]] const int sid = queue_.admit(shot, std::move(tasks));
      assert(queue_.shots()[sid].units_total == ledger_.missing_total() &&
             "tasks must tile area × frames");
    }
  }

  FrameSinkConfig sink;
  if (!sharded) {
    // Sharded runs write TGAs at the shards; the scheduler's sink is
    // journal-only (header + checkpoint records).
    sink.output_dir = config_.output_dir;
    sink.output_prefix = config_.output_prefix;
    sink.frame_path = [this](std::int32_t frame) { return frame_path(frame); };
  }
  sink.journal_path = config_.journal_path;
  sink.journal_fsync = config_.journal_fsync;
  sink.header.width = w;
  sink.header.height = h;
  sink.header.frame_count = frames;
  sink.header.shard_count = sharded ? config_.shards.shard_count : 1;
  sink.header.shard_index = sharded ? -1 : 0;
  sink.resume = config_.recovery != nullptr;
  sink.resume_valid_bytes =
      config_.recovery != nullptr ? config_.recovery->journal_valid_bytes : 0;
  sink.metrics = config_.metrics;
  sink.endpoint_rank = 0;
  sink_ = std::make_unique<FrameSink>(sink);
  if (!config_.journal_path.empty()) {
    report_.journal_ok = sink_->journal_ok();
    sync_journal_stats();
  }
  if (!sharded) {
    // No remote shards: one colocated store over the whole frame space
    // commits the pixels, writing through this master's own sink.
    FrameStoreConfig store;
    store.width = w;
    store.height = h;
    store.frame_count = frames;
    store.frame_write_seconds = config_.cost.master_frame_write_seconds;
    store.endpoint_rank = 0;
    store.metrics = config_.metrics;
    store_ = std::make_unique<FrameStore>(store, sink_.get());
    if (config_.recovery != nullptr) {
      store_->restore(config_.recovery->frames,
                      config_.recovery->frame_commits);
    }
  } else if (config_.metrics != nullptr) {
    // Rank 0 receives no pixels here, but its endpoint.0.frame_* counters
    // stay in the metric set (at zero) for every shard count.
    config_.metrics->counter("endpoint.0.frame_bytes");
    config_.metrics->counter("endpoint.0.frame_decode_failures");
  }
  // Shard liveness: shards are failure domains too. Each one holds a
  // rolling liveness lease (any message renews; silence draws a ping, then
  // a grace period, then death + rollback). Progress leases make no sense
  // for shards — one whose owned range is complete commits nothing forever.
  if (sharded && config_.fault.enabled) {
    shard_table_ = ShardTable(config_.shards, config_.fault.lease_base_seconds,
                              ctx.now());
    for (int i = 0; i < shard_table_.size(); ++i) {
      arm_lease(ctx, kTagShardCheck, i, -1, config_.fault.lease_base_seconds,
                0);
    }
  }
  // Everything restored: stop before any worker is put to work.
  maybe_finish(ctx);
  if (!stopping_ && config_.sample_interval_seconds > 0.0 &&
      (config_.sampler != nullptr || config_.status != nullptr)) {
    ctx.send_after(config_.sample_interval_seconds, kTagSampleTick, {});
  }
  publish_queue_depth();
}

void RenderMaster::on_message(Context& ctx, const Message& msg) {
  if (msg.tag == kTagSampleTick) {
    // Telemetry must be observably free: no compute charge, no heartbeat
    // bookkeeping, nothing sent across ranks — handled before everything.
    handle_sample_tick(ctx);
    return;
  }
  ctx.charge(config_.cost.master_per_message_seconds);
  // Every message a live worker sends doubles as a heartbeat.
  if (workers_.contains(msg.source)) {
    workers_.heard(msg.source, ctx.now());
  } else {
    // Same for shard ranks: any message (digest, pong, hello) renews the
    // shard's liveness lease. A declared-dead shard earns nothing until it
    // re-admits through handle_shard_hello.
    shard_table_.heard(msg.source, ctx.now());
  }
  switch (msg.tag) {
    case kTagHello:
      if (config_.shards.sharded() && msg.source >= workers_.end_rank()) {
        // A shard rank announcing itself: failover re-admission, never an
        // idle worker (handle_idle would index workers_ out of range).
        handle_shard_hello(ctx, msg.source);
      } else {
        handle_idle(ctx, msg.source, /*hello=*/true);
      }
      break;
    case kTagRequest:
      handle_idle(ctx, msg.source, /*hello=*/false);
      break;
    case kTagFrameResult:
      if (store_ == nullptr) {
        // Workers route pixels straight to the owning remote shard; the
        // scheduler has nowhere to put a result that lands here.
        ++fault_report_.results_ignored;
        break;
      }
      apply_digest(ctx, store_->commit(ctx, msg));
      break;
    case kTagCommitDigest:
      handle_commit_digest(ctx, msg);
      break;
    case kTagShrinkAck:
      handle_shrink_ack(ctx, msg);
      break;
    case kTagTaskNack:
      handle_task_nack(ctx, msg);
      break;
    case kTagPong:
      break;  // the heartbeat update above is the whole point
    case kTagLeaseCheck:
    case kTagShardCheck:
      handle_lease_check(ctx, msg);
      break;
    case kTagShotSubmit:
      handle_shot_submit(ctx, msg);
      break;
    case kTagShotStatus:
      handle_shot_status(ctx, msg);
      break;
    case kTagShotCancel:
      handle_shot_cancel(ctx, msg);
      break;
    case kTagClientDone:
      handle_client_done(ctx, msg.source);
      break;
    default:
      assert(false && "master received unexpected tag");
  }
}

void RenderMaster::handle_idle(Context& ctx, int worker, bool hello) {
  if (!workers_.contains(worker)) {
    return;  // not a worker rank (e.g. a confused service client)
  }
  switch (workers_.admit(worker, hello, ctx.now())) {
    case WorkerTable::Admit::kIgnored:
    case WorkerTable::Admit::kParked:
      return;
    case WorkerTable::Admit::kRejoined:
      // Its first new frame is a dense coherence restart like any fresh
      // assignment.
      ++fault_report_.workers_rejoined;
      trace(ctx, "worker.rejoin", {{"worker", worker}});
      break;
    case WorkerTable::Admit::kLost:
      cancel_and_reclaim(ctx, worker);
      break;
    case WorkerTable::Admit::kReady:
      break;
  }
  make_idle(worker);
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::publish_queue_depth() {
  if (queue_depth_ != nullptr) {
    queue_depth_->set(static_cast<double>(queue_.depth()));
  }
}

void RenderMaster::make_idle(int worker) {
  release_assignment(worker);
  workers_.make_idle(worker);
}

void RenderMaster::assign(Context& ctx, int worker, RenderTask task) {
  // Mint the trace context here — a deterministic nonzero function of the
  // task id — so a requeued task (nack, reclaim) restarts the same flow
  // chain and every result/digest can be tied back to this assignment.
  task.trace_ctx = static_cast<std::uint64_t>(task.task_id) + 1;
  workers_.assign(worker, task);
  if (config_.fault.enabled) {
    // Lease scaled by assigned task cost: a bigger frame range legitimately
    // keeps a worker silent for longer before its first result.
    Lease& lease = workers_.lease(worker);
    lease.length = config_.fault.lease_base_seconds +
                   config_.fault.lease_per_frame_seconds * task.frame_count;
    lease.restart(ctx.now());
    arm_lease(ctx, kTagLeaseCheck, worker, task.task_id, lease.length, 0);
  }
  trace(ctx, "task.assign",
        {{"worker", worker},
         {"task", task.task_id},
         {"first_frame", task.first_frame},
         {"frames", task.frame_count}});
  if (config_.tracer != nullptr) {
    // One flow start per frame in the assignment: each frame's life is its
    // own chain (render → send → commit → ack), all anchored here.
    for (std::int32_t f = task.first_frame; f < task.end_frame(); ++f) {
      config_.tracer->flow_start(
          ctx.rank(), trace_flow_id(task.trace_ctx, f), ctx.now(),
          {{"worker", worker}, {"task", task.task_id}, {"frame", f},
           {"step", 0}});
    }
  }
  ctx.send(worker, kTagTask, encode_task(task));
}

void RenderMaster::try_dispatch(Context& ctx) {
  for (int worker; (worker = workers_.idle_front()) >= 0;) {
    const ShotQueue::Pick pick = queue_.next(committed_, blocked_);
    if (pick.kind == ShotQueue::PickKind::kTask) {
      workers_.pop_idle();
      charge_tenant(ctx, worker, pick);
      assign(ctx, worker, pick.task);
      continue;
    }
    // Work exists, but it touches a dead shard's frames (its results would
    // be lost): wait for the replacement shard to re-admit.
    if (pick.kind == ShotQueue::PickKind::kHeld) break;
    if (config_.partition.adaptive && try_adaptive_split(ctx)) {
      // A split is in flight; idle workers wait for the ack.
      break;
    }
    if (config_.speculate && try_speculate(ctx)) continue;
    break;
  }
  preempt_if_backlogged(ctx);
  publish_queue_depth();
}

bool RenderMaster::try_speculate(Context& ctx) {
  // End-game gate: nothing pending, and strictly more idle live workers
  // than tasks still running — duplicating the straggler costs capacity
  // that would otherwise sit idle until the last frame lands.
  const int active_tasks = workers_.busy_count();
  if (active_tasks == 0 || workers_.idle_live() <= active_tasks) return false;

  // Victim: the worker expected to hold the end-game longest. Expected cost
  // is remaining frames × the worker's EWMA per-frame render time from the
  // straggler detector, so a rank that has been consistently slow is
  // duplicated ahead of one that merely holds more frames. With no samples
  // yet every worker scores at the fleet mean and this reduces to the old
  // most-remaining rule.
  const int victim = workers_.split_victim(spec_partner_, &straggler_);
  if (victim < 0) return false;

  // Clones are speculative, not admitted work: they stay uncharged against
  // the tenant's quota and are the first thing backlog preemption dissolves.
  const WorkerTable::Worker& vs = workers_[victim];
  const RenderTask clone =
      sub_task(vs.task, next_task_id_++, vs.next_expected, vs.end_frame);
  spec_partner_[clone.task_id] = vs.task.task_id;
  spec_partner_[vs.task.task_id] = clone.task_id;
  spec_tasks_.insert(clone.task_id);
  spec_tasks_.insert(vs.task.task_id);
  ++fault_report_.speculations_launched;
  trace(ctx, "task.speculate",
        {{"victim", victim},
         {"task", clone.task_id},
         {"first_frame", clone.first_frame},
         {"frames", clone.frame_count}});
  const int worker = workers_.idle_front();
  workers_.pop_idle();
  assign(ctx, worker, clone);
  return true;
}

void RenderMaster::finish_speculation(Context& ctx, std::int32_t winner_task,
                                      std::int32_t loser_task) {
  ++fault_report_.speculations_won;
  trace(ctx, "speculate.won", {{"winner", winner_task}, {"loser", loser_task}});
  // The losing copy's remaining frames are committed, so the master's view
  // of its task ends at what it already delivered.
  const int loser = workers_.holder(loser_task);
  if (loser >= 0) stop_at_delivered(ctx, loser);
}

std::int32_t RenderMaster::unpair(std::int32_t task) {
  const auto it = spec_partner_.find(task);
  if (it == spec_partner_.end()) return -1;
  const std::int32_t partner = it->second;
  spec_partner_.erase(it);
  spec_partner_.erase(partner);
  return partner;
}

void RenderMaster::stop_at_delivered(Context& ctx, int worker) {
  if (workers_.stop_at_delivered(worker)) {
    shrink(ctx, worker, workers_[worker].next_expected);
  }
}

bool RenderMaster::try_adaptive_split(Context& ctx) {
  // Victim: the active worker with the most unreported frames remaining.
  const int victim = workers_.split_victim(spec_partner_, nullptr);
  if (victim < 0) return false;
  const WorkerTable::Worker& s = workers_[victim];
  const std::int32_t remaining = s.end_frame - s.next_expected;
  if (remaining < config_.partition.min_split_frames) return false;
  const std::int32_t new_end = s.end_frame - remaining / 2;
  trace(ctx, "task.shrink",
        {{"victim", victim},
         {"task", s.task.task_id},
         {"new_end_frame", new_end}});
  shrink(ctx, victim, new_end);
  return true;
}

void RenderMaster::handle_shrink_ack(Context& ctx, const Message& msg) {
  ShrinkAck ack;
  if (!decode_shrink_ack(&ack, msg.payload)) {
    ++fault_report_.results_ignored;  // corrupt peer message: drop it
    return;
  }
  if (!workers_.contains(msg.source) || workers_.dead(msg.source)) return;
  if (std::optional<RenderTask> stolen = workers_.shrink_ack(msg.source, ack)) {
    // The stolen range becomes a fresh task for an idle worker.
    stolen->task_id = next_task_id_++;
    trace(ctx, "task.split",
          {{"victim", msg.source},
           {"task", stolen->task_id},
           {"first_frame", stolen->first_frame},
           {"frames", stolen->frame_count}});
    // Stolen work stays in its shot; a shot cancelled while the shrink was
    // in flight drops the range (its area is written off).
    if (queue_.requeue(*stolen)) ++report_.adaptive_splits;
  }
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_task_nack(Context& ctx, const Message& msg) {
  TaskNack nack;
  if (!decode_task_nack(&nack, msg.payload)) {
    ++fault_report_.results_ignored;  // corrupt peer message: drop it
    return;
  }
  if (!workers_.contains(msg.source) ||
      !workers_.holds(msg.source, nack.task_id)) {
    return;  // stale refusal: the assignment it covers is already gone
  }
  // The worker is busy with a different task, so this assignment will never
  // run. Free the slot and requeue the task verbatim: the worker refused
  // before rendering any frame of it, so it keeps its id, owes no results,
  // and pays no coherence-restart accounting.
  release_assignment(msg.source);
  const RenderTask task = workers_.nack(msg.source);
  ++fault_report_.tasks_nacked;
  trace(ctx, "task.nack", {{"worker", msg.source}, {"task", nack.task_id}});
  if (task.frame_count > 0) queue_.requeue(task);
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_commit_digest(Context& ctx, const Message& msg) {
  if (ep_digest_bytes_ != nullptr) {
    ep_digest_bytes_->inc(static_cast<std::int64_t>(msg.payload.size()));
  }
  CommitDigest d;
  if (!decode_commit_digest(&d, msg.payload) ||
      (d.kind == CommitKind::kFresh && !ledger_.owns(d.frame))) {
    ++fault_report_.results_ignored;  // corrupt peer message: drop it
    return;
  }
  switch (shard_table_.fence(msg.source)) {
    case ShardTable::Fence::kApply:
      apply_digest(ctx, d);
      return;
    case ShardTable::Fence::kReset:
      ctx.send(msg.source, kTagShardReset, {});
      [[fallthrough]];
    case ShardTable::Fence::kDrop:
      ++fault_report_.results_ignored;
      return;
  }
}

void RenderMaster::apply_digest(Context& ctx, const CommitDigest& d) {
  // The digest vouches for a worker message a store received: credit the
  // worker's heartbeat even though the bytes may have come from a shard.
  const bool known_worker = workers_.contains(d.worker);
  if (known_worker) workers_.heard(d.worker, ctx.now());
  if (d.kind == CommitKind::kDecodeFail) {
    // The store could not even decode the envelope, so there is no task to
    // tie the loss to. The sender's chain now has a gap; the store rejects
    // everything after it and the reject digest (or the lease) reclaims.
    ++fault_report_.results_ignored;
    return;
  }

  // ---- Order-independent accounting ------------------------------------
  // Digest streams from different shards interleave arbitrarily, but a
  // fresh commit is authoritative no matter when its digest lands: the
  // store validated the chain, so the pixels are correct by the coherence
  // guarantee. Commit totals and the ledger therefore apply immediately;
  // only *worker progress* (which drives leases, shrink targets, and
  // reassignment) needs ordering.
  switch (d.kind) {
    case CommitKind::kFresh: {
      const FrameLedger::Commit mirrored = ledger_.commit(d.frame, d.rect);
      assert(mirrored == FrameLedger::Commit::kFresh ||
             mirrored == FrameLedger::Commit::kCompleted);
      ++report_.frame_results;
      report_.rays_total += d.rays;
      report_.shadow_rays_total += d.shadow_rays;
      report_.pixels_recomputed_total += d.pixels_recomputed;
      report_.full_renders += d.full_render ? 1 : 0;
      report_.worker_compute_seconds += d.compute_seconds;
      if (known_worker) ++report_.frames_by_worker[d.worker];
      if (d.full_render && reassigned_tasks_.count(d.task_id) > 0) {
        // The coherence-restart price of recovery: the replacement's dense
        // first frame re-renders pixels the dead worker had already paid for.
        fault_report_.restart_work_seconds += d.compute_seconds;
      }
      trace(ctx, "frame.digest",
            {{"worker", d.worker},
             {"frame", d.frame},
             {"full", d.full_render ? 1 : 0}});
      note_commit(ctx, d.worker, d.task_id, d.trace_ctx, d.frame,
                  d.render_seconds);
      if (mirrored == FrameLedger::Commit::kCompleted) {
        note_frame_complete(ctx, d.frame);
      }
      ++digests_since_checkpoint_;
      // Checkpoint cut: a remote digest before the worker's progress moves,
      // a colocated commit right after its in-order advance (advance_worker).
      // Each topology keeps the cut point its journals have always had, so
      // journal bytes stay stable; resume is correct either way (a frame
      // committed but not yet credited is just re-rendered).
      if (config_.shards.sharded()) checkpoint_if_due();
      break;
    }
    case CommitKind::kDuplicate:
      // The store's commit gate caught a (region, frame) already applied —
      // the speculation loser or an overlap from reclaim.
      if (spec_tasks_.count(d.task_id) > 0) {
        ++fault_report_.speculation_frames_wasted;
        fault_report_.speculation_wasted_seconds += d.compute_seconds;
      } else {
        ++fault_report_.results_ignored;
        fault_report_.lost_work_seconds += d.compute_seconds;
      }
      break;
    case CommitKind::kStale:
      // Redelivery behind the store's chain: already accounted once.
      ++fault_report_.results_ignored;
      break;
    case CommitKind::kChainReject:
      ++fault_report_.results_ignored;
      fault_report_.lost_work_seconds += d.compute_seconds;
      break;
    case CommitKind::kDecodeFail:
      break;  // handled above
  }

  if (known_worker) advance_worker(ctx, d);
  sync_journal_stats();
  maybe_finish(ctx);
}

void RenderMaster::advance_worker(Context& ctx, const CommitDigest& d) {
  switch (workers_.advance(d, ctx.now())) {
    case WorkerTable::Advance::kIgnored:
    case WorkerTable::Advance::kStale:
    case WorkerTable::Advance::kDeferred:
      return;
    case WorkerTable::Advance::kGap:
      // The missing frame was lost: write the task off, reclaim the
      // remainder, tell the worker to stop.
      write_off(ctx, d.worker);
      try_dispatch(ctx);
      return;
    case WorkerTable::Advance::kProgressed:
      checkpoint_if_due();
      return;
    case WorkerTable::Advance::kDone: {
      checkpoint_if_due();
      const std::int32_t loser = unpair(d.task_id);
      if (loser >= 0) finish_speculation(ctx, d.task_id, loser);
      // The chain caught up with a parked request: run its idle transition.
      if (workers_[d.worker].request_pending) {
        make_idle(d.worker);
        try_dispatch(ctx);
      }
      return;
    }
  }
}

void RenderMaster::note_frame_complete(Context& ctx, std::int32_t frame) {
  ++report_.frames_completed;
  const int finished = queue_.credit_frame(frame);
  if (finished < 0) return;
  // That was the last frame of a tenant's shot: report it done.
  const ShotQueue::Shot& shot = queue_.shots()[finished];
  ++report_.shots_completed;
  trace(ctx, "shot.done",
        {{"shot", shot.shot_id}, {"frames", shot.frame_count}});
  send_shot_update(ctx, shot);
}

void RenderMaster::send_shot_update(Context& ctx, const ShotQueue::Shot& shot) {
  ShotUpdate update;
  update.shot_id = shot.shot_id;
  update.phase = shot.phase;
  update.frames_done = shot.frames_done;
  ctx.send(shot.client_rank, kTagShotUpdate, encode_shot_update(update));
}

void RenderMaster::checkpoint_if_due() {
  const int every = std::max(1, config_.journal_checkpoint_every);
  if (!sink_->journaling() || digests_since_checkpoint_ < every) return;
  CheckpointRecord cp =
      checkpoint_of(ledger_, queue_.tasks(), workers_.in_flight());
  // v2 trailer: enough to make a restarted scheduler byte-identical in its
  // decisions — fresh task ids never collide with pre-crash ones, and the
  // straggler EWMAs (which steer speculation victims) survive the restart.
  cp.next_task_id = next_task_id_;
  cp.stragglers = straggler_.snapshot();
  sink_->checkpoint(cp);
  digests_since_checkpoint_ = 0;
}

void RenderMaster::sync_journal_stats() {
  if (sink_ == nullptr || !sink_->journaling()) return;
  report_.journal_records = sink_->journal_records();
  report_.journal_bytes = sink_->journal_bytes();
  report_.journal_checkpoints = sink_->journal_checkpoints();
  report_.journal_ok = sink_->journal_ok();
}

void RenderMaster::cancel_and_reclaim(Context& ctx, int worker) {
  if (!workers_.busy(worker)) return;
  release_assignment(worker);
  // A cancelled half of a speculated pair just dissolves the pair: the
  // survivor keeps rendering, the reclaim below double-covers the range,
  // and the idempotent-commit gate keeps whichever copy lands first.
  unpair(workers_[worker].task.task_id);
  // A parked request completes its idle transition inside cancel (every
  // caller follows with try_dispatch, and a rank declared dead right after
  // this is skipped by the dispatch loop).
  const RenderTask rest = workers_.cancel(worker);
  if (rest.frame_count > 0) requeue_reclaim(ctx, rest, worker);
}

void RenderMaster::write_off(Context& ctx, int worker) {
  cancel_and_reclaim(ctx, worker);
  const WorkerTable::Worker& s = workers_[worker];
  if (s.phase == WorkerPhase::kCancelled && !s.awaiting_ack) {
    shrink(ctx, worker, s.next_expected);
  }
}

void RenderMaster::shrink(Context& ctx, int worker, std::int32_t new_end) {
  ShrinkRequest req;
  req.task_id = workers_[worker].task.task_id;
  req.new_end_frame = new_end;
  workers_.shrink_sent(worker);
  ctx.send(worker, kTagShrink, encode_shrink(req));
}

void RenderMaster::requeue_reclaim(Context& ctx, RenderTask reclaim,
                                   int worker) {
  // A shot already past kActive has had its remaining area written off:
  // reclaiming into it would enqueue work nobody is waiting for.
  reclaim.task_id = next_task_id_;
  if (!queue_.requeue(reclaim)) return;
  ++next_task_id_;
  reassigned_tasks_.insert(reclaim.task_id);
  if (config_.tracer != nullptr) {
    std::vector<TraceEvent::Arg> args{{"task", reclaim.task_id},
                                      {"first_frame", reclaim.first_frame},
                                      {"frames", reclaim.frame_count}};
    if (worker >= 0) args.insert(args.begin(), {"worker", worker});
    config_.tracer->instant(ctx.rank(), "sched", "task.reclaim", ctx.now(),
                            std::move(args));
  }
  ++fault_report_.tasks_reassigned;
  fault_report_.frames_reassigned += reclaim.frame_count;
}

void RenderMaster::declare_dead(Context& ctx, int worker) {
  if (workers_.dead(worker)) return;
  trace(ctx, "worker.dead", {{"worker", worker}});
  ++fault_report_.deaths_detected;
  fault_report_.detection_latency_seconds +=
      ctx.now() - workers_[worker].lease.last_heard;
  cancel_and_reclaim(ctx, worker);
  workers_.declare_dead(worker);
  if (!workers_.any_alive() && !stopping_) {
    // Nobody left to render the reclaimed work: stop with what we have
    // rather than waiting on leases that can never be renewed.
    stopping_ = true;
    ctx.stop();
    return;
  }
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_lease_check(Context& ctx, const Message& msg) {
  LeaseCheck check;
  const bool ok = decode_lease_check(&check, msg.payload);
  assert(ok);
  if (!ok || !config_.fault.enabled || stopping_) return;
  // `check.worker` is a worker rank, or for kTagShardCheck a shard index. A
  // stale check — its worker's assignment gone or written off, its shard
  // declared dead (re-admission restarts the chain) — ends here.
  const bool shard = msg.tag == kTagShardCheck;
  Lease* lease = nullptr;
  if (shard) {
    lease = shard_table_.live_lease(check.worker);
  } else if (workers_.contains(check.worker) &&
             workers_.holds(check.worker, check.task_id)) {
    lease = &workers_.lease(check.worker);
  }
  if (lease == nullptr) return;
  const auto arm = [&](double delay, int phase) {
    arm_lease(ctx, msg.tag, check.worker, check.task_id, delay, phase);
  };
  double renew_in = 0.0;
  switch (lease->judge(ctx.now(), check.phase != 0, &renew_in)) {
    case Lease::Verdict::kRenew:
      arm(renew_in, 0);
      return;
    case Lease::Verdict::kPing:
      if (shard) {
        trace(ctx, "shard.ping", {{"shard", check.worker}});
      } else {
        trace(ctx, "lease.ping",
              {{"worker", check.worker}, {"task", check.task_id}});
      }
      ++fault_report_.pings_sent;
      ctx.send(shard ? workers_.end_rank() + check.worker : check.worker,
               kTagPing, {});
      arm(config_.fault.ping_grace_seconds, 1);
      return;
    case Lease::Verdict::kAnswered:
      // A shard that answers is alive: back to a normal lease. A worker that
      // answers without progress is stuck: write the task off — it will be
      // re-rendered from a dense restart — and tell the worker to abandon
      // any rendering it is silently doing. If it is truly idle (the
      // assignment itself was lost) it rejoins on its next request.
      if (shard) {
        arm(lease->length, 0);
        return;
      }
      write_off(ctx, check.worker);
      try_dispatch(ctx);
      maybe_finish(ctx);
      return;
    case Lease::Verdict::kSilent:
      shard ? declare_shard_dead(ctx, check.worker)
            : declare_dead(ctx, check.worker);
      return;
  }
}

void RenderMaster::trace(Context& ctx, const char* name,
                         std::initializer_list<TraceEvent::Arg> args) const {
  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "sched", name, ctx.now(), args);
  }
}

void RenderMaster::arm_lease(Context& ctx, int tag, int subject,
                             std::int32_t task_id, double delay, int phase) {
  LeaseCheck check;
  check.worker = subject;
  check.task_id = task_id;
  check.phase = static_cast<std::uint8_t>(phase);
  ctx.send_after(delay, tag, encode_lease_check(check));
}

void RenderMaster::declare_shard_dead(Context& ctx, int shard) {
  if (!shard_table_.declare_dead(shard)) return;
  ++fault_report_.shards_failed;
  fault_report_.detection_latency_seconds +=
      ctx.now() - shard_table_.last_heard(shard);
  trace(ctx, "shard.dead", {{"shard", shard}});
  rollback_dead_shard(ctx, shard);
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::rollback_dead_shard(Context& ctx, int shard) {
  const auto range = config_.shards.range_of(shard);
  // Completed frames are durable (TGA renamed into place before the
  // kFrameComplete record, which precedes the digest that completed the
  // ledger's frame): the replacement reloads them from disk. Everything else
  // the shard held was memory, and memory is gone — the ledger's committed
  // cells for those frames revert to missing and come back as reclaim
  // tasks, one per (rect, contiguous frame run).
  const FrameLedger::LostCells lost =
      ledger_.roll_back(range.first, range.second);
  for (const auto& [key, frames] : lost) {
    fault_report_.shard_commits_rolled_back +=
        static_cast<std::int64_t>(frames.size());
  }
  for (const RenderTask& task : reclaim_tasks(lost)) {
    requeue_reclaim(ctx, task, /*worker=*/-1);
  }
  // Workers mid-task on the dead range are rendering into the void: write
  // their tasks off now instead of waiting out progress leases that can
  // only expire.
  write_off_busy(ctx, [&](const WorkerTable::Worker& s) {
    return s.next_expected < range.second && s.end_frame > range.first;
  });
}

void RenderMaster::write_off_busy(
    Context& ctx, const std::function<bool(const WorkerTable::Worker&)>& hit) {
  for (int w = 1; w < workers_.end_rank(); ++w) {
    if (workers_.busy(w) && hit(workers_[w])) write_off(ctx, w);
  }
}

void RenderMaster::handle_shard_hello(Context& ctx, int source) {
  const int shard = shard_table_.index_of(source);
  if (shard < 0) return;  // liveness off: nothing to re-admit
  const bool was_dead = shard_table_.dead(shard);
  if (!was_dead) {
    // The shard restarted before its lease even expired (revival raced
    // detection). Its partial frames died with its memory all the same, so
    // the death rollback runs now — the ledger and the rebuilt shard agree
    // again before any new work dispatches.
    rollback_dead_shard(ctx, shard);
  }
  shard_table_.rejoin(shard, ctx.now());
  ++fault_report_.shards_rejoined;
  trace(ctx, "shard.rejoin", {{"shard", shard}});
  if (was_dead) {
    // Death ended the lease chain; re-admission restarts it. (A shard never
    // declared dead still has its chain running — don't stack a second.)
    arm_lease(ctx, kTagShardCheck, shard, -1, config_.fault.lease_base_seconds,
              0);
  }
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::restore_from_checkpoint(Context& ctx) {
  const RecoveryState& rec = *config_.recovery;
  const CheckpointRecord& ck = *rec.last_checkpoint;
  // Fresh ids start above everything the dead scheduler ever minted, so a
  // late journal record can never be confused with new work.
  if (ck.next_task_id > next_task_id_) next_task_id_ = ck.next_task_id;
  straggler_.restore(ck.stragglers);
  int tasks_restored = 0;
  for (ResumeTask& planned :
       plan_resume(ck, rec.frame_commits, ledger_,
                   {0, 0, scene_.width(), scene_.height()})) {
    if (planned.kind == ResumeTask::Kind::kReclaim) {
      requeue_reclaim(ctx, planned.task, /*worker=*/-1);
      continue;
    }
    planned.task.task_id = next_task_id_++;
    if (planned.kind != ResumeTask::Kind::kPending) {
      reassigned_tasks_.insert(planned.task.task_id);
    }
    queue_.requeue(planned.task);
    ++tasks_restored;
  }
  trace(ctx, "resume.checkpoint",
        {{"tasks", tasks_restored}, {"next_task_id", next_task_id_}});
}

void RenderMaster::handle_sample_tick(Context& ctx) {
  // A tick racing the shutdown broadcast is dropped and not re-armed; the
  // runtime abandons anything still queued once the scheduler stops.
  if (stopping_) return;
  ++report_.telemetry_samples;
  if (config_.sampler != nullptr && config_.metrics != nullptr) {
    config_.sampler->sample(ctx.now(), config_.metrics->snapshot());
  }
  if (config_.status != nullptr) {
    config_.status->publish(status_json(
        ctx.now(), stopping_,
        config_.sampler != nullptr
            ? config_.sampler->rate_per_second("sched.frames_committed")
            : 0.0,
        report_, queue_, workers_, straggler_, config_.shards, shard_table_,
        ledger_));
  }
  ctx.send_after(config_.sample_interval_seconds, kTagSampleTick, {});
}

void RenderMaster::note_commit(Context& ctx, int worker, std::int32_t task_id,
                               std::uint64_t trace_ctx, std::int32_t frame,
                               double render_seconds) {
  if (frames_committed_live_ != nullptr) frames_committed_live_->inc();
  if (config_.tracer != nullptr && trace_ctx != 0) {
    // Close the frame's flow chain: assignment → render → send → commit all
    // bind to this id, so the ack renders as one connected arc in the trace.
    config_.tracer->flow_end(
        ctx.rank(), trace_flow_id(trace_ctx, frame), ctx.now(),
        {{"worker", worker}, {"task", task_id}, {"frame", frame},
         {"step", 4}});
  }
  if (!workers_.contains(worker)) return;
  if (straggler_.observe(worker, render_seconds)) {
    ++report_.straggler_flags;
    if (stragglers_flagged_ != nullptr) stragglers_flagged_->inc();
    trace(ctx, "worker.straggler",
          {{"worker", worker}, {"task", task_id}, {"frame", frame}});
  }
}

void RenderMaster::maybe_finish(Context& ctx) {
  if (stopping_) return;
  // The run ends only when every client has declared itself done (no
  // further submits can arrive), every admitted pixel is committed or
  // written off, and no active shot still queues real work — anything still
  // queued (speculation leftovers, reclaim overlap) is duplicate work once
  // every pixel is committed.
  if (static_cast<int>(done_clients_.size()) < config_.service.client_count) {
    return;
  }
  if (ledger_.missing_total() != 0) return;
  const bool drained = queue_.drained(committed_);
  publish_queue_depth();
  if (!drained) return;
  stopping_ = true;
  for (int w = 1; w < workers_.end_rank(); ++w) {
    if (!workers_.dead(w)) ctx.send(w, kTagStop, {});
  }
  if (config_.shards.sharded()) {
    for (int i = 0; i < config_.shards.shard_count; ++i) {
      ctx.send(config_.shards.rank_of_shard(i), kTagStop, {});
    }
  }
  for (int c = 0; c < config_.service.client_count; ++c) {
    ctx.send(workers_.end_rank() + c, kTagStop, {});
  }
  ctx.stop();
}

// ---- Multi-tenant service ----------------------------------------------

namespace {

/// Shared charset rule for tenant and label names: path-safe, so they can
/// feed output file names verbatim.
bool valid_service_name(const std::string& s) {
  for (const char c : s) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

bool RenderMaster::is_client_rank(int rank) const {
  const int first = workers_.end_rank();
  return rank >= first && rank < first + config_.service.client_count;
}

std::vector<RenderTask> RenderMaster::partition_range(
    const AnimatedScene& scene, int first, int count) const {
  std::vector<int> cuts = config_.partition.sequence_cuts;
  // Sequence-division tasks should not straddle camera cuts: a shot change
  // forces a full re-render anyway, so cuts are free task boundaries
  // ("any camera movement logically separates one sequence from another").
  if (config_.partition.scheme == PartitionScheme::kSequenceDivision &&
      cuts.empty()) {
    for (const AnimatedScene::Shot& shot : scene.split_shots()) {
      cuts.push_back(shot.first_frame);
    }
  }
  PartitionConfig partition = config_.partition;
  partition.sequence_cuts.clear();
  for (const int cut : cuts) {
    if (cut > first && cut < first + count) {
      partition.sequence_cuts.push_back(cut - first);
    }
  }
  const int worker_count = workers_.end_rank() - 1;
  return make_initial_tasks(partition, scene.width(), scene.height(), count,
                            worker_count);
}

void RenderMaster::handle_shot_submit(Context& ctx, const Message& msg) {
  if (!is_client_rank(msg.source) || stopping_) return;
  const auto reject = [&](std::int32_t ref, const std::string& why) {
    ++report_.shots_rejected;
    trace(ctx, "shot.reject", {{"client", msg.source}});
    ShotAccept acc;
    acc.client_ref = ref;
    acc.shot_id = -1;
    acc.error = why;
    ctx.send(msg.source, kTagShotAccept, encode_shot_accept(acc));
  };
  ShotSubmit sub;
  if (!decode_shot_submit(&sub, msg.payload)) {
    reject(-1, "malformed ShotSubmit");
    return;
  }
  if (sub.tenant.empty() || sub.tenant.size() > 64 ||
      !valid_service_name(sub.tenant)) {
    reject(sub.client_ref, "invalid tenant name");
    return;
  }
  if (sub.label.size() > 64 || !valid_service_name(sub.label)) {
    reject(sub.client_ref, "invalid shot label");
    return;
  }
  if (!std::isfinite(sub.weight) || sub.weight <= 0.0) {
    reject(sub.client_ref, "weight must be finite and > 0");
    return;
  }
  if (sub.quota < 0) {
    reject(sub.client_ref, "quota must be >= 0");
    return;
  }
  const int scene_count = config_.service.scenes.empty()
                              ? 1
                              : static_cast<int>(config_.service.scenes.size());
  if (sub.scene_id < 0 || sub.scene_id >= scene_count) {
    reject(sub.client_ref, "unknown scene_id");
    return;
  }
  const AnimatedScene& scene = config_.service.scenes.empty()
                                   ? scene_
                                   : *config_.service.scenes[sub.scene_id];
  if (sub.first_frame < 0 || sub.frame_count < 1 ||
      static_cast<std::int64_t>(sub.first_frame) + sub.frame_count >
          scene.frame_count()) {
    reject(sub.client_ref, "frame range outside scene");
    return;
  }

  const std::int32_t base = ledger_.end_frame();
  ShotQueue::Shot shot;
  shot.tenant_id = queue_.tenant_for(sub.tenant, sub.weight, sub.quota);
  shot.client_rank = msg.source;
  shot.label = sub.label;
  shot.scene_id = sub.scene_id;
  shot.scene_first_frame = sub.first_frame;
  shot.frame_count = sub.frame_count;
  shot.base_frame = base;

  // Grow the global frame space: the shot's frames live at
  // [base, base + frame_count) and map back to the scene through
  // frame_delta (scene_frame = global_frame + frame_delta).
  store_->grow(sub.frame_count);
  ledger_.grow(sub.frame_count);

  std::vector<RenderTask> tasks =
      partition_range(scene, sub.first_frame, sub.frame_count);
  for (RenderTask& task : tasks) {
    task.task_id = next_task_id_++;
    task.first_frame += base;
    task.scene_id = sub.scene_id;
    task.frame_delta = sub.first_frame - base;
  }
  const int shot_id = queue_.admit(std::move(shot), std::move(tasks));
  assert(queue_.shots()[shot_id].units_total ==
             std::int64_t{scene_.width()} * scene_.height() *
                 sub.frame_count &&
         "shot tasks must tile area × frames");
  ++report_.shots_submitted;
  trace(ctx, "shot.admit",
        {{"shot", shot_id},
         {"client", msg.source},
         {"base_frame", base},
         {"frames", sub.frame_count}});
  ShotAccept acc;
  acc.client_ref = sub.client_ref;
  acc.shot_id = shot_id;
  acc.base_frame = base;
  ctx.send(msg.source, kTagShotAccept, encode_shot_accept(acc));
  try_dispatch(ctx);
}

void RenderMaster::handle_shot_status(Context& ctx, const Message& msg) {
  if (!is_client_rank(msg.source)) return;
  ShotStatusRequest req;
  if (!decode_shot_status_request(&req, msg.payload)) return;
  ShotStatusReply reply;
  reply.shot_id = req.shot_id;
  const std::vector<ShotQueue::Shot>& shots = queue_.shots();
  if (req.shot_id >= 0 && req.shot_id < static_cast<int>(shots.size())) {
    const ShotQueue::Shot& shot = shots[req.shot_id];
    reply.known = 1;
    reply.phase = shot.phase;
    reply.frames_done = shot.frames_done;
    reply.frame_count = shot.frame_count;
  }
  ctx.send(msg.source, kTagShotStatusReply, encode_shot_status_reply(reply));
}

void RenderMaster::handle_shot_cancel(Context& ctx, const Message& msg) {
  if (!is_client_rank(msg.source)) return;
  ShotCancel cancel;
  if (!decode_shot_cancel(&cancel, msg.payload)) return;
  if (cancel.shot_id < 0 ||
      cancel.shot_id >= static_cast<int>(queue_.shots().size())) {
    return;  // unknown id: nothing to cancel, nothing to report
  }
  const ShotQueue::Shot& shot = queue_.shots()[cancel.shot_id];
  if (shot.client_rank != msg.source) return;  // only the submitter
  if (shot.phase != ShotPhase::kActive) {
    // Idempotent: a repeated cancel (or one racing completion) reports the
    // terminal phase the shot already reached.
    send_shot_update(ctx, shot);
    return;
  }
  queue_.cancel(cancel.shot_id);
  ++report_.shots_cancelled;
  trace(ctx, "shot.cancel",
        {{"shot", shot.shot_id}, {"frames_done", shot.frames_done}});
  // Queued tasks just vanish; in-flight ones are shrunk away like a stuck
  // lease, and the store rejects every result still sent into the shot's
  // frames (their area is written off below). The reclaim is refused: the
  // shot is no longer active.
  store_->write_off(shot.base_frame, shot.frame_count);
  write_off_busy(ctx, [&](const WorkerTable::Worker& s) {
    return queue_.shot_of_frame(s.task.first_frame) == cancel.shot_id;
  });
  // The dropped pixels will never arrive: write their area off so the run
  // can finish without them. Not counted as completed frames.
  ledger_.write_off(shot.base_frame, shot.base_frame + shot.frame_count);
  send_shot_update(ctx, shot);
  try_dispatch(ctx);
  maybe_finish(ctx);
}

void RenderMaster::handle_client_done(Context& ctx, int source) {
  if (!is_client_rank(source)) return;
  done_clients_.insert(source);
  maybe_finish(ctx);
}

void RenderMaster::charge_tenant(Context& ctx, int worker,
                                 const ShotQueue::Pick& pick) {
  const int tenant = queue_.charge(pick);
  if (tenant < 0) return;
  workers_.charge(worker, tenant);
  trace(ctx, "tenant.grant",
        {{"tenant", tenant}, {"worker", worker}, {"task", pick.task.task_id}});
}

void RenderMaster::release_assignment(int worker) {
  queue_.release(workers_.take_charge(worker));
}

void RenderMaster::preempt_if_backlogged(Context& ctx) {
  if (!config_.speculate || spec_partner_.empty()) return;
  // Tenant work is waiting and every live worker is busy: speculation
  // clones are the lowest-value occupants, so dissolve one pair and shrink
  // the clone away — its worker comes back for the real backlog. A solo
  // render has no tenants, so it never preempts.
  if (!queue_.tenant_backlog(committed_, blocked_)) return;
  // An idle worker will take the backlog.
  if (workers_.idle_live() > 0) return;
  for (int w = 1; w < workers_.end_rank(); ++w) {
    if (!workers_.busy(w)) continue;
    // The clone is the younger half of its pair: minted after its victim.
    const std::int32_t task = workers_[w].task.task_id;
    const auto it = spec_partner_.find(task);
    if (it == spec_partner_.end() || it->second > task) continue;
    unpair(task);
    ++report_.preemptions;
    trace(ctx, "task.preempt", {{"worker", w}, {"task", task}});
    stop_at_delivered(ctx, w);
    break;  // one preemption per backlog check
  }
}

std::string RenderMaster::frame_path(std::int32_t frame) const {
  const int sid = queue_.shot_of_frame(frame);
  if (sid < 0 || queue_.shots()[sid].tenant_id < 0) {
    return frame_file_path(config_.output_dir, config_.output_prefix, frame);
  }
  const ShotQueue::Shot& shot = queue_.shots()[sid];
  const std::int32_t local =
      frame - shot.base_frame + shot.scene_first_frame;
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "_%04d.tga", local);
  std::string name = config_.output_prefix + "-" + shot.tenant + "-shot" +
                     std::to_string(shot.shot_id);
  if (!shot.label.empty()) name += "-" + shot.label;
  return config_.output_dir + "/" + name + suffix;
}

}  // namespace now
