// WorkerTable: the scheduler's view of its worker ranks — one phase per
// worker, the delivered-frame chain of its assignment, its lease, and the
// idle queue — plus the Lease rule worker and shard leases share, and the
// ShardTable of framebuffer-shard liveness. Pure objects (no Context, no
// tracer), tested row by row in tests/worker_table_test.cpp; the master
// keeps the sends, trace instants and counters each transition implies.
//
// Phases and their guarded transitions (after Korečko & Sobota's
// Coloured-Petri-Net master/worker model):
//
//   kUnknown --hello--> kIdle --assign--> kActive --nack, make_idle--> kIdle
//   kActive --cancel--> kCancelled --make_idle--> kIdle
//   kActive --declare_dead--> kDead --hello (rejoin)--> kIdle
//
// Only a kActive worker holds() a task, and only its digests move a chain.
// A written-off task id never returns to any worker: reclaims, splits,
// clones and checkpoint restores mint fresh ids, and a nack (which requeues
// under the same id) needs the task held. So a late digest, shrink ack or
// nack for a written-off task fails the task-id match, even after the
// worker took a new task.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/obs/straggler.h"
#include "src/par/protocol.h"
#include "src/shard/digest.h"
#include "src/shard/ownership.h"

namespace now {

/// One lease, worker or shard: renewed until expiry; then one ping and one
/// grace period; then judged by whether the ping was answered.
struct Lease {
  enum class Kind : std::uint8_t {
    kProgress,  // expiry runs from the last accepted result (workers)
    kLiveness,  // expiry runs from the last message of any kind (shards)
  };
  enum class Verdict : std::uint8_t {
    kRenew,     // not expired: check again at expiry
    kPing,      // expired: ping once, check again after the grace period
    kAnswered,  // the ping was answered (a worker is stuck, a shard alive)
    kSilent,    // no answer through the grace period: dead
  };

  Kind kind = Kind::kProgress;
  double length = 0.0;
  double last_heard = 0.0;     // any message
  double last_progress = 0.0;  // assignment or last accepted result
  double ping_time = -1.0;     // outstanding ping (-1: none)

  /// Assignment or rejoin: heard and progressed now, no ping outstanding.
  void restart(double now) {
    last_heard = last_progress = now;
    ping_time = -1.0;
  }
  void progressed(double now) {
    last_progress = now;
    ping_time = -1.0;
  }
  /// One check; `grace`: the check armed after a ping. kRenew stores the
  /// delay until expiry in *renew_in.
  Verdict judge(double now, bool grace, double* renew_in);
};

enum class WorkerPhase : std::uint8_t {
  kUnknown,    // never said hello
  kIdle,       // known, no task
  kActive,     // holds a task; its results count
  kCancelled,  // task written off, worker not yet back for more
  kDead,       // lease expired; ignored until a hello re-admits the rank
};

/// The /status spelling of a phase ("unknown", "idle", ...).
const char* to_string(WorkerPhase phase);

/// Frames [first, end) of `task` as a new task with id `task_id`.
RenderTask sub_task(const RenderTask& task, std::int32_t task_id,
                    std::int32_t first, std::int32_t end);

class WorkerTable {
 public:
  struct Worker {
    WorkerPhase phase = WorkerPhase::kUnknown;
    bool queued = false;        // in the idle queue (a dead rank's entry
                                // stays until dispatch pops it)
    bool awaiting_ack = false;  // shrink in flight
    /// Sharded mode: a request arrived while the task's digests were still
    /// in flight from the shards; the idle transition waits for the chain
    /// to finish or the task to be written off.
    bool request_pending = false;
    RenderTask task;                 // kActive / kCancelled assignment
    std::int32_t next_expected = 0;  // first unreported frame
    std::int32_t end_frame = 0;      // master's view (post-shrink)
    Lease lease;
    /// Reorder buffer: frames acknowledged by a *different* shard than the
    /// one next_expected belongs to, held until the chain reaches them.
    std::set<std::int32_t> deferred_frames;
    /// Tenant charged for the assignment (-1: tenant-less shots and
    /// speculation clones stay uncharged).
    int charged_tenant = -1;

    bool assigned() const {
      return phase == WorkerPhase::kActive || phase == WorkerPhase::kCancelled;
    }
  };

  /// What a hello or request did to its worker.
  enum class Admit : std::uint8_t {
    kIgnored,   // a dead rank's request: it stays dead
    kParked,    // sharded request with digests still in flight
    kLost,      // the task's remaining results were lost: write it off
    kRejoined,  // a dead rank's hello: re-admitted with a clean slate
    kReady,     // no task outstanding: go idle
  };

  /// What one digest did to its worker's chain.
  enum class Advance : std::uint8_t {
    kIgnored,     // not for the task the worker holds
    kStale,       // a frame the chain already passed
    kDeferred,    // cross-shard reordering: held until the chain reaches it
    kProgressed,  // the chain moved; frames remain
    kDone,        // the chain reached the end of the task
    kGap,         // a chain reject, or a gap within one shard: frame lost
  };

  WorkerTable() = default;
  /// Workers at ranks 1..worker_count; `shards` tells digest reordering
  /// (across shards) from loss (within one).
  WorkerTable(int worker_count, const ShardMap& shards)
      : workers_(static_cast<std::size_t>(worker_count) + 1),
        shards_(shards) {}

  /// One past the last worker rank (rank 0 is the scheduler).
  int end_rank() const { return static_cast<int>(workers_.size()); }
  bool contains(int rank) const { return rank >= 1 && rank < end_rank(); }
  const Worker& operator[](int w) const { return workers_[w]; }
  Lease& lease(int w) { return workers_[w].lease; }

  bool busy(int w) const { return workers_[w].phase == WorkerPhase::kActive; }
  bool holds(int w, std::int32_t task_id) const {
    return busy(w) && workers_[w].task.task_id == task_id;
  }
  bool dead(int w) const { return workers_[w].phase == WorkerPhase::kDead; }
  bool any_alive() const;
  int busy_count() const;
  /// Live entries in the idle queue.
  int idle_live() const;
  /// The worker holding `task_id`, or -1.
  int holder(std::int32_t task_id) const;
  /// The busy worker, not mid-shrink and whose task is not in `paired`, with
  /// the highest score for its remaining frames: their count, or with
  /// `by_time` the count × its expected per-frame time (-1: none has any).
  int split_victim(const std::map<std::int32_t, std::int32_t>& paired,
                   const StragglerDetector* by_time) const;
  /// Every held task's undelivered remainder, for a scheduler checkpoint.
  std::vector<CheckpointRecord::WorkerView> in_flight() const;

  // -- transitions -------------------------------------------------------
  /// Any message from `w` renews its heartbeat, unless it is dead.
  void heard(int w, double now) {
    if (!dead(w)) workers_[w].lease.last_heard = now;
  }
  /// kTagHello (`hello`) or kTagRequest from `w`.
  Admit admit(int w, bool hello, double now);
  /// Drop the task state and queue the worker for dispatch (once).
  void make_idle(int w);
  /// First live worker in the idle queue, dropping dead entries (-1: none);
  /// pop_idle() takes it off.
  int idle_front();
  void pop_idle();
  void assign(int w, const RenderTask& task);
  void charge(int w, int tenant) { workers_[w].charged_tenant = tenant; }
  /// Un-charge the assignment once: returns the tenant to release.
  int take_charge(int w);
  /// The held task was refused: idle, but not queued (the worker asks again
  /// when its other work is done). Returns the task to requeue verbatim.
  RenderTask nack(int w);
  /// Shrink ack from a live worker: clears awaiting_ack; when it honors a
  /// shorter end for the held task, ends the chain there and returns the
  /// stolen range (id -1).
  std::optional<RenderTask> shrink_ack(int w, const ShrinkAck& ack);
  void shrink_sent(int w) { workers_[w].awaiting_ack = true; }
  /// Write the held task off: returns its undelivered remainder (id -1,
  /// possibly empty); a parked request goes idle now.
  RenderTask cancel(int w);
  /// End the copy at what it delivered; true when a shrink must go out.
  bool stop_at_delivered(int w);
  void declare_dead(int w);
  /// The order-dependent half of a commit digest: d.worker's chain.
  Advance advance(const CommitDigest& d, double now);

 private:
  std::vector<Worker> workers_;
  std::deque<int> idle_;
  ShardMap shards_;
};

/// Liveness of the remote framebuffer shards (sharded mode with fault
/// tolerance; empty otherwise, when every shard reads alive). Shards hold
/// liveness leases, not progress leases: a shard whose owned range is
/// already complete legitimately commits nothing, but it must keep
/// answering. A dead shard's frames are rolled back by the scheduler and
/// held from dispatch until a rebuilt incarnation says hello.
class ShardTable {
 public:
  /// What to do with a commit digest from a shard rank.
  enum class Fence : std::uint8_t {
    kApply,  // not a tracked shard, or a live one
    kReset,  // a declared-dead incarnation is still talking: its commits
             // were rolled back and its chain state is poison, so force a
             // rebuild from its journal segment — once per death
    kDrop,   // the reset already went out: ignore silently
  };

  ShardTable() = default;
  /// Every shard of `map` alive, its liveness lease `lease_length` long
  /// and heard at `now`.
  ShardTable(const ShardMap& map, double lease_length, double now);

  int size() const { return static_cast<int>(shards_.size()); }
  /// Shard index of world rank `rank` (-1: untracked or not a shard).
  int index_of(int rank) const;
  /// False for an untracked shard.
  bool dead(int shard) const {
    return shard >= 0 && shard < size() && shards_[shard].dead;
  }
  /// A live shard's lease (null: the shard is dead or untracked).
  Lease* live_lease(int shard);
  double last_heard(int shard) const { return shards_[shard].lease.last_heard; }

  /// Any message from `rank` renews a live shard's lease.
  void heard(int rank, double now);
  /// A commit digest from `rank`: apply it, or fence a dead incarnation.
  Fence fence(int rank);
  /// Returns false when the shard was already dead.
  bool declare_dead(int shard);
  /// A rebuilt incarnation said hello: alive, lease restarted at `now`.
  void rejoin(int shard, double now);
  /// The task touches a dead shard's frames (its results would be lost).
  bool blocks(const RenderTask& task) const;

 private:
  struct Shard {
    bool dead = false;
    bool reset_sent = false;
    Lease lease{Lease::Kind::kLiveness};
  };
  std::vector<Shard> shards_;
  ShardMap map_;
};

}  // namespace now
