// RenderMaster: the scheduler. It assigns tasks, performs adaptive
// re-splitting when workers idle (Section 3), and drives everything from
// CommitDigests — it never assembles pixels itself. Pixels go to a
// FrameStore (src/shard/frame_store.h), which decodes, validates and
// commits each frame result and writes the frames: with --shards 1 the
// master owns one colocated store over the whole frame space and feeds its
// digests straight into the same bookkeeping that remote shards' digests
// reach over the wire. That bookkeeping is a FrameLedger
// (src/shard/frame_ledger.h), the same pure type each store gates commits
// with: the master's copy is a mirror fed by fresh-commit digests. Shard
// failover is a ledger roll_back plus reclaim tasks, and checkpoint restore
// runs the pure plan_resume; the master mints ids, requeues, traces and
// counts.
//
// Every queued task lives in one ShotQueue (src/par/shot_queue.h). A solo
// render is a single tenant-less shot over the animation, admitted in
// on_start; the multi-tenant service (MasterServiceConfig::client_count > 0)
// admits one shot per client submit. Dispatch, requeues (splits, nacks,
// reclaims, checkpoint restore) and the finish condition are the same code
// for both: the queue decides which shot feeds the next idle worker.
//
// Fault tolerance (MasterConfig::fault.enabled): every worker message is a
// heartbeat. Each assignment takes out a *progress* lease (deadline scaled
// by the task's frame count, renewed by every accepted frame result) and
// each shard a *liveness* lease (ShardTable); both follow one Lease rule
// (src/par/worker_table.h), enforced by deferred LeaseCheck self-messages.
// An expired lease draws one ping and one grace period: silence means
// death, while a worker that answers without progress is stuck (e.g. its
// assignment was lost in transit). Either way its unfinished frames are
// re-enqueued as a fresh task whose renderer pays a full first-frame
// restart (the paper's coherence-restart cost). The WorkerTable holds each
// worker's phase and delivered chain: a digest for anything but the task
// an active worker holds moves nothing here (its store still commits
// chain-valid pixels, identical by the coherence guarantee, and drops
// duplicates at its idempotent gate), and a gap in a task's chain (a lost
// frame result) cancels the task and reclaims the remainder, because the
// region's sparse chain is broken from the gap onward. If every worker
// dies the master stops with whatever frames it has — it never blocks
// shutdown on a dead rank.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/fault/fault_tolerance.h"
#include "src/image/framebuffer.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/status_server.h"
#include "src/obs/straggler.h"
#include "src/obs/timeseries.h"
#include "src/par/cost_model.h"
#include "src/par/jobqueue.h"
#include "src/par/partition.h"
#include "src/par/protocol.h"
#include "src/par/shot_queue.h"
#include "src/par/worker_table.h"
#include "src/scene/animated_scene.h"
#include "src/shard/digest.h"
#include "src/shard/frame_ledger.h"
#include "src/shard/frame_sink.h"
#include "src/shard/frame_store.h"
#include "src/shard/ownership.h"

namespace now {

/// Multi-tenant render service (MasterConfig::service). With clients the
/// master admits *shots* at runtime through the job-queue messages
/// (src/par/jobqueue.h) instead of partitioning one animation up front:
/// each admitted shot gets a contiguous base in a concatenated global frame
/// space and its own partition into tasks, scheduled weighted-fair by the
/// ShotQueue; admission backlog preempts end-game speculation clones first.
struct MasterServiceConfig {
  /// ShotClient actors ride at ranks [1 + workers, 1 + workers +
  /// client_count); the run ends when every client said done and every
  /// admitted shot is terminal. 0 = solo render of the master's scene.
  int client_count = 0;
  /// Scene table addressed by ShotSubmit::scene_id. Entry 0 must be the
  /// primary scene the master was built with; all entries share its pixel
  /// dimensions. Pointees must outlive the master.
  std::vector<const AnimatedScene*> scenes;
};

struct MasterConfig {
  PartitionConfig partition;
  CostModel cost;
  /// Failure detection and recovery (off by default: zero overhead).
  FaultToleranceConfig fault;
  /// Directory for per-frame targa output ("" disables file writing).
  std::string output_dir;
  std::string output_prefix = "frame";
  /// Render journal ("" disables): every committed region-frame is appended
  /// as a checksummed, fsync'd record, frame TGAs are written atomically
  /// *before* their completion record, and the scheduler state is compacted
  /// into periodic checkpoint records. A crashed run resumes from the
  /// journal + frame files via `recovery`.
  std::string journal_path;
  bool journal_fsync = true;
  /// Checkpoint record every N region-frame commits.
  int journal_checkpoint_every = 64;
  /// Replayed journal state from a previous run (null = fresh start). The
  /// master restores the completed frames, re-enqueues only the incomplete
  /// remainder, and appends to the journal's valid prefix.
  const RecoveryState* recovery = nullptr;
  /// End-game speculation: when the pending queue is empty and idle workers
  /// outnumber active tasks, clone the slowest task onto an idle worker and
  /// keep whichever copy commits first (duplicate commits are idempotent).
  bool speculate = false;
  /// Scheduling-decision instants (task.assign, task.split, lease.ping,
  /// worker.dead, ...) on the master's timeline. Null disables.
  EventTracer* tracer = nullptr;
  /// Sink for the scheduler's sched.* and endpoint.0.* counters, and for
  /// the colocated store's net.frame_decode_failures (results that failed
  /// to decode or were malformed and were treated as lost). Null disables.
  MetricsRegistry* metrics = nullptr;
  /// Live telemetry plane: when sample_interval_seconds > 0 (and a sampler
  /// or status board is attached) the master arms a kTagSampleTick
  /// self-timer that snapshots `metrics` into `sampler`'s bounded rings and
  /// publishes the /status JSON into `status`. The tick handler charges no
  /// compute and sends nothing cross-rank, so under SimRuntime the ticks
  /// ride virtual time without changing any gated output.
  double sample_interval_seconds = 0.0;
  TimeSeriesSampler* sampler = nullptr;
  StatusBoard* status = nullptr;
  /// Straggler-detection thresholds. Detection itself is always-on
  /// bookkeeping fed by fresh commits; it surfaces through the
  /// sched.stragglers counter, worker.straggler trace instants, and the
  /// speculation victim ranking.
  StragglerConfig straggler;
  /// Frame ownership map. The master always drives scheduling (leases,
  /// reassignment, adaptive splits, speculation, checkpoints) from
  /// per-result CommitDigests. With shards.shard_count > 1 workers stream
  /// frame results to the owning remote FrameShard actors, which send the
  /// digests back; the default (count 1) keeps one colocated FrameStore in
  /// the master that produces them locally.
  ShardMap shards;
  /// Multi-tenant service mode (see MasterServiceConfig). Off by default.
  MasterServiceConfig service;
};

struct MasterReport {
  std::int64_t frame_results = 0;
  std::int64_t adaptive_splits = 0;
  std::int64_t frames_completed = 0;
  std::uint64_t rays_total = 0;
  std::uint64_t shadow_rays_total = 0;
  std::int64_t pixels_recomputed_total = 0;
  std::int64_t full_renders = 0;       // frame results that were full renders
  double worker_compute_seconds = 0.0; // sum of reference-seconds charged
  /// Region-frames delivered per worker rank (rank 0 stays 0).
  std::vector<std::int64_t> frames_by_worker;
  // -- recovery (journal + resume) -------------------------------------
  std::int64_t frames_restored = 0;     // whole frames loaded from disk
  std::int64_t journal_records = 0;     // records appended this run
  std::int64_t journal_bytes = 0;       // bytes appended this run
  std::int64_t journal_checkpoints = 0; // checkpoint records this run
  bool journal_ok = true;               // false after any journal I/O error
  // -- live telemetry ---------------------------------------------------
  std::int64_t straggler_flags = 0;     // worker → straggler transitions
  std::int64_t telemetry_samples = 0;   // sample ticks taken
  // -- multi-tenant service ---------------------------------------------
  std::int64_t shots_submitted = 0;     // admitted shots
  std::int64_t shots_completed = 0;
  std::int64_t shots_cancelled = 0;
  std::int64_t shots_rejected = 0;      // malformed or invalid submits
  /// Speculation clones dissolved to make room for admitted backlog.
  std::int64_t preemptions = 0;
};

class RenderMaster final : public Actor {
 public:
  RenderMaster(const AnimatedScene& scene, const MasterConfig& config);
  // The queue filters and the sink's frame-path callback hold `this`.
  RenderMaster(const RenderMaster&) = delete;
  RenderMaster& operator=(const RenderMaster&) = delete;

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;

  /// The colocated store holding the assembled animation (valid after the
  /// runtime finishes); null when remote shards own the pixels. In service
  /// mode it spans the concatenated global frame space; slice per shot with
  /// shot_queue().shot_summaries()'s base_frame/frame_count.
  const FrameStore* frame_store() const { return store_.get(); }
  const MasterReport& report() const { return report_; }
  const FaultReport& fault_report() const { return fault_report_; }

  /// Shots, tenants and the grant log (valid after the runtime finishes).
  const ShotQueue& shot_queue() const { return queue_; }

 private:
  /// kTagCommitDigest from a remote shard: decode it, fence a dead shard's
  /// stale incarnation, and apply the rest.
  void handle_commit_digest(Context& ctx, const Message& msg);
  /// One CommitDigest — from the colocated store or a remote shard — the
  /// scheduler's only view of a worker's result. Order-independent
  /// accounting (commit totals, area bookkeeping, frame completion) applies
  /// immediately; worker progress goes through advance_worker.
  void apply_digest(Context& ctx, const CommitDigest& d);
  /// Order-dependent half of apply_digest: move the worker's chain
  /// (WorkerTable::advance), or cancel and reclaim its task on a gap.
  void advance_worker(Context& ctx, const CommitDigest& d);
  /// A frame's missing area reached zero: count it and credit its shot and
  /// tenant, reporting a tenant's shot done on its last frame.
  void note_frame_complete(Context& ctx, std::int32_t frame);
  /// Tell the shot's client its phase and frames done.
  void send_shot_update(Context& ctx, const ShotQueue::Shot& shot);
  /// Append a compacted scheduler checkpoint (checkpoint_of) to the journal
  /// once journal_checkpoint_every fresh commits have accumulated since the
  /// last one.
  void checkpoint_if_due();
  /// `hello` distinguishes kTagHello (may re-admit a dead rank: elastic
  /// membership) from kTagRequest (a dead rank's requests stay ignored).
  void handle_idle(Context& ctx, int worker, bool hello);
  /// The idle transition: un-charge the worker's assignment, drop its task
  /// state and queue it for dispatch (once).
  void make_idle(int worker);
  /// Set the sched.queue_depth gauge (no-op without metrics).
  void publish_queue_depth();
  void handle_shrink_ack(Context& ctx, const Message& msg);
  /// A busy worker refused an assignment: requeue it immediately instead of
  /// letting it sit on the refusing worker until its lease expires.
  void handle_task_nack(Context& ctx, const Message& msg);
  /// A lease self-timer: kTagLeaseCheck for a worker's progress lease,
  /// kTagShardCheck for a shard's liveness lease, judged by one Lease rule.
  /// Silence declares either dead; an answered ping renews a shard but
  /// writes a worker's task off as stuck.
  void handle_lease_check(Context& ctx, const Message& msg);
  /// A scheduling-decision instant on the master's timeline (no-op without
  /// a tracer; the args stay on the stack until then).
  void trace(Context& ctx, const char* name,
             std::initializer_list<TraceEvent::Arg> args) const;
  /// Arm a lease check (`tag` kTagLeaseCheck or kTagShardCheck) for worker
  /// rank or shard index `subject` after `delay`.
  void arm_lease(Context& ctx, int tag, int subject, std::int32_t task_id,
                 double delay, int phase);
  /// Hello from a shard rank: a replacement incarnation rebuilt from its
  /// journal segment and is re-announcing. Re-admit it — and if its death
  /// was never detected (restart raced the lease), perform the rollback now,
  /// because its partial frames died with its memory either way.
  void handle_shard_hello(Context& ctx, int source);
  void declare_shard_dead(Context& ctx, int shard);
  /// The shard-death rollback: every incomplete frame the shard owned loses
  /// its committed cells (ledger roll_back), the lost cells come back as
  /// reclaim tasks, and workers mid-task on the dead range are cancelled
  /// rather than left rendering into the void.
  void rollback_dead_shard(Context& ctx, int shard);
  /// write_off every busy worker whose assignment `hit` selects (shard
  /// rollback, shot cancel). Callers dispatch afterwards.
  void write_off_busy(
      Context& ctx, const std::function<bool(const WorkerTable::Worker&)>& hit);
  /// Resume with a scheduler checkpoint: restore the task-id counter and
  /// straggler statistics, then queue plan_resume's task table (minting ids
  /// in plan order; reclaims go through requeue_reclaim).
  void restore_from_checkpoint(Context& ctx);
  /// Telemetry self-timer: snapshot metrics into the sampler, publish the
  /// /status JSON (status_json), re-arm. Never charges compute, never sends
  /// cross-rank.
  void handle_sample_tick(Context& ctx);
  /// Fresh-commit telemetry: close the frame's flow chain, feed the
  /// straggler detector, bump the live counters.
  void note_commit(Context& ctx, int worker, std::int32_t task_id,
                   std::uint64_t trace_ctx, std::int32_t frame,
                   double render_seconds);
  /// Feed idle workers from the shot queue; with nothing runnable (and
  /// nothing held for a dead shard), fall back to the end-game moves:
  /// adaptive split, then speculation.
  void try_dispatch(Context& ctx);
  bool try_adaptive_split(Context& ctx);
  /// End-game: clone the slowest active task onto an idle worker. Returns
  /// true when a clone was dispatched.
  bool try_speculate(Context& ctx);
  /// One copy of a speculated pair finished its range (the pair is already
  /// dissolved): stop the losing copy at what it delivered.
  void finish_speculation(Context& ctx, std::int32_t winner_task,
                          std::int32_t loser_task);
  /// Dissolve `task`'s speculation pair, if any: returns the partner or -1.
  std::int32_t unpair(std::int32_t task);
  /// End `worker`'s copy at what it already delivered, shrinking it unless
  /// a shrink is in flight.
  void stop_at_delivered(Context& ctx, int worker);
  /// By value: assignment mints the task's trace context before sending.
  void assign(Context& ctx, int worker, RenderTask task);
  void maybe_finish(Context& ctx);
  void sync_journal_stats();
  /// Write off the worker's current task: results for it are ignored from
  /// now on, and the frames not yet delivered are re-enqueued as a fresh
  /// task (whose first frame will be a full coherence-restart render).
  void cancel_and_reclaim(Context& ctx, int worker);
  /// cancel_and_reclaim, then tell a still-active worker to stop at what it
  /// already delivered. Callers dispatch afterwards.
  void write_off(Context& ctx, int worker);
  /// Ask `worker` to end its current task at `new_end` (kTagShrink); the
  /// ack clears the table's awaiting_ack.
  void shrink(Context& ctx, int worker, std::int32_t new_end);
  /// Queue a recovery task (a coherence restart, counted as reassigned work
  /// and traced as task.reclaim; `worker` < 0 omits the worker argument).
  /// Its id is consumed only when its shot is still active.
  void requeue_reclaim(Context& ctx, RenderTask reclaim, int worker);
  /// Tasks covering scene frames [first, first + count) of `scene`, in
  /// range-local frame numbers. Camera cuts inside the range — the explicit
  /// partition.sequence_cuts (scene frame numbers) or, for sequence
  /// division without them, the scene's shot boundaries — become task
  /// boundaries, shifted into range-local numbers.
  std::vector<RenderTask> partition_range(const AnimatedScene& scene,
                                          int first, int count) const;
  void declare_dead(Context& ctx, int worker);

  // -- multi-tenant service ----------------------------------------------
  bool is_client_rank(int rank) const;
  void handle_shot_submit(Context& ctx, const Message& msg);
  void handle_shot_status(Context& ctx, const Message& msg);
  void handle_shot_cancel(Context& ctx, const Message& msg);
  void handle_client_done(Context& ctx, int source);
  /// Charge a dispatched pick to its tenant (a tenant-less pick is free)
  /// and trace the grant.
  void charge_tenant(Context& ctx, int worker, const ShotQueue::Pick& pick);
  /// Un-charge the quota slot once (idempotent: resets charged_tenant).
  void release_assignment(int worker);
  /// Runnable tenant work, no idle live worker: dissolve one speculation
  /// pair and shrink the clone away so its worker returns for real work.
  void preempt_if_backlogged(Context& ctx);
  /// Output file of a global frame: the classic frame_file_path for a
  /// tenant-less shot, `<prefix>-<tenant>-shot<id>[-<label>]_NNNN.tga`
  /// numbered in the scene's frame space for a tenant's shot.
  std::string frame_path(std::int32_t frame) const;

  const AnimatedScene& scene_;
  MasterConfig config_;

  /// Every task not yet handed out, by shot, and the commit-state views
  /// its dispatch choice takes: a task the ledger covers is pure duplicate
  /// work, and one touching a dead shard's frames is held.
  ShotQueue queue_;
  const ShotQueue::TaskFilter committed_ = [this](const RenderTask& task) {
    return ledger_.covers(task);
  };
  const ShotQueue::TaskFilter blocked_ = [this](const RenderTask& task) {
    return shard_table_.blocks(task);
  };
  /// Every worker rank's phase, chain and lease, and the idle queue.
  WorkerTable workers_;
  /// Shard liveness in sharded mode with fault.enabled; empty otherwise.
  ShardTable shard_table_;
  /// The scheduler's mirror of committed cells, fed by fresh-commit
  /// digests. The authoritative idempotent-commit gate (no pixel write, no
  /// accounting, no journal record for a duplicate) is the FrameStore's,
  /// colocated or at a shard; this copy answers the queue's dispatch and
  /// drain filter (covers), the finish condition, checkpoints, and which
  /// cells a shard rollback reclaims.
  FrameLedger ledger_;
  std::int32_t next_task_id_ = 0;
  bool stopping_ = false;

  std::set<std::int32_t> reassigned_tasks_;  // recovery tasks (restart cost)

  /// Speculated task pairs, keyed both ways (task_id → partner task_id).
  std::map<std::int32_t, std::int32_t> spec_partner_;
  /// Every task id that was ever half of a pair: duplicate commits from
  /// these are speculation waste, not protocol anomalies.
  std::set<std::int32_t> spec_tasks_;
  /// Durable IO (journal appends + TGA writes). The colocated store commits
  /// through it; in sharded mode it carries the scheduler's checkpoint-only
  /// journal and never sees pixels.
  std::unique_ptr<FrameSink> sink_;
  /// The colocated store (--shards 1); null when remote shards own pixels.
  std::unique_ptr<FrameStore> store_;
  /// Fresh commits since the last checkpoint record.
  std::int64_t digests_since_checkpoint_ = 0;
  Counter* ep_digest_bytes_ = nullptr;      // endpoint.0.digest_bytes
  // Live scheduler instruments, registered whenever metrics are on (never
  // gated on the telemetry plane, so sim metrics JSON is identical with the
  // plane enabled or disabled). Updated deterministically from commits.
  Counter* frames_committed_live_ = nullptr;  // sched.frames_committed
  Counter* stragglers_flagged_ = nullptr;     // sched.stragglers
  Gauge* queue_depth_ = nullptr;              // sched.queue_depth

  StragglerDetector straggler_;

  std::set<int> done_clients_;  // client ranks that sent done

  MasterReport report_;
  FaultReport fault_report_;
};

}  // namespace now
