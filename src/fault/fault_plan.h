// Deterministic, schedulable fault descriptions for the render farm.
//
// A FaultPlan is data, not behavior: it lists the faults that *will* happen
// during a run — a worker crash at virtual/wall time T or after its N-th
// delivered frame, the loss or duplication of a specific message, a window
// of extra link delay, a window of degraded compute speed. The SimRuntime
// injects these as discrete events (bit-reproducible across runs); the
// Thread and TCP runtimes apply the same plan through injection hooks on
// their send/receive paths (crash, drop, duplicate and delay; slowdown is
// simulation-only because wall-clock compute cannot be throttled honestly).
//
// Times are seconds since the start of the run: virtual seconds under
// SimRuntime, wall seconds elsewhere. Ranks use world numbering: workers are
// 1..worker_count, framebuffer shards (when sharded) follow the workers, and
// rank 0 is the scheduler. Any rank may be faulted — shard crashes need a
// journal segment to rebuild from, and a scheduler crash is only meaningful
// under the sim backend with journaling (the run ends partial and a --resume
// restart continues it).
#pragma once

#include <string>
#include <vector>

namespace now {

enum class FaultKind {
  kCrash,             // rank goes permanently silent (fail-stop)
  kDropMessage,       // swallow the n-th matching message sent by rank
  kDuplicateMessage,  // deliver the n-th matching message twice
  kReorderMessage,    // hold the n-th matching message; deliver it after the
                      // rank's next send to the same destination
  kDelaySpike,        // extra delivery latency into rank during a window
  kSlowdown,          // scale rank's compute speed during a window (sim only)
  kRejoin,            // a crashed rank restarts and re-announces itself
};

const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Target rank (the crashing sender, the sender of the dropped/duplicated
  /// message, the receiver of delayed deliveries, the slowed machine).
  int rank = -1;

  // -- kCrash / kRejoin trigger --------------------------------------------
  /// kCrash: crash once the rank's clock reaches this time (set exactly one
  /// of at_time / after_frames). kRejoin: restart the rank at this time (set
  /// exactly one of at_time / after_crash_seconds).
  double at_time = -1.0;
  /// Crash immediately after the rank has delivered this many progress
  /// messages (frame results); the N-th result itself still arrives.
  int after_frames = -1;
  /// kRejoin only: restart this many seconds after the rank's crash actually
  /// fires (usable with after_frames crashes, whose time is unknowable up
  /// front). The runtimes learn the resolved time through the injector's
  /// rejoin hook.
  double after_crash_seconds = -1.0;

  // -- kDropMessage / kDuplicateMessage / kReorderMessage ------------------
  /// 1-based index among the rank's matching cross-rank sends.
  int nth_message = 1;
  /// Only count messages with this tag (-1 = any tag).
  int tag = -1;

  // -- kDelaySpike / kSlowdown window [t_begin, t_end) --------------------
  double t_begin = 0.0;
  double t_end = 0.0;
  /// kDelaySpike: seconds added to each delivery inside the window.
  double extra_seconds = 0.0;
  /// kSlowdown: speed multiplier inside the window (0.5 = half speed).
  double factor = 1.0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Tag counted as "one frame of progress" for after_frames crash triggers
  /// on worker ranks. render_farm() sets this to the protocol's frame-result
  /// tag.
  int progress_tag = -1;
  /// Progress tag for shard ranks (commit digests) and the rank-0 scheduler
  /// (task assignments), so after_frames triggers mean "after N digests" /
  /// "after N assignments" there. -1 falls back to progress_tag.
  int shard_progress_tag = -1;
  int scheduler_progress_tag = -1;
  /// First shard rank in world numbering (workers end just below it); -1
  /// when the run is unsharded and every non-zero rank is a worker.
  int first_shard_rank = -1;
  /// Tag delivered to a rank when its kRejoin event fires (the "you have
  /// been restarted" signal). render_farm() sets this to the protocol's
  /// rejoin tag; -1 disables rejoin delivery.
  int rejoin_tag = -1;

  bool empty() const { return events.empty(); }
  /// True when `rank` has a kRejoin event scheduled.
  bool rank_rejoins(int rank) const;
  /// The progress tag armed for `rank` given its world role.
  int progress_tag_for(int rank) const;

  // Convenience builders.
  static FaultEvent crash_at(int rank, double time);
  static FaultEvent crash_after_frames(int rank, int frames);
  static FaultEvent drop_nth(int rank, int nth, int tag = -1);
  static FaultEvent duplicate_nth(int rank, int nth, int tag = -1);
  static FaultEvent reorder_nth(int rank, int nth, int tag = -1);
  static FaultEvent delay_window(int rank, double t_begin, double t_end,
                                 double extra_seconds);
  static FaultEvent slowdown_window(int rank, double t_begin, double t_end,
                                    double factor);
  static FaultEvent rejoin_at(int rank, double time);
  static FaultEvent rejoin_after_crash(int rank, double seconds);
};

/// One human-readable line per event plus the plan's tag wiring — printed by
/// the chaos tests so any failing schedule can be read and replayed.
std::string describe_fault_plan(const FaultPlan& plan);

/// Throws std::invalid_argument with a precise message when an event is
/// malformed or targets a rank outside the faultable range. Ranks must be in
/// [1, world_size); a kCrash on rank 0 (scheduler kill, recovered by resume)
/// is additionally allowed when `allow_scheduler_crash` is set.
void validate_fault_plan(const FaultPlan& plan, int world_size,
                         bool allow_scheduler_crash = false);

}  // namespace now
