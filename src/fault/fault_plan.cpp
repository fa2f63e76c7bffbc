#include "src/fault/fault_plan.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace now {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDropMessage: return "drop";
    case FaultKind::kDuplicateMessage: return "duplicate";
    case FaultKind::kReorderMessage: return "reorder";
    case FaultKind::kDelaySpike: return "delay";
    case FaultKind::kSlowdown: return "slowdown";
    case FaultKind::kRejoin: return "rejoin";
  }
  return "unknown";
}

bool FaultPlan::rank_rejoins(int rank) const {
  for (const FaultEvent& e : events) {
    if (e.kind == FaultKind::kRejoin && e.rank == rank) return true;
  }
  return false;
}

int FaultPlan::progress_tag_for(int rank) const {
  if (rank == 0 && scheduler_progress_tag >= 0) return scheduler_progress_tag;
  if (first_shard_rank > 0 && rank >= first_shard_rank &&
      shard_progress_tag >= 0) {
    return shard_progress_tag;
  }
  return progress_tag;
}

FaultEvent FaultPlan::crash_at(int rank, double time) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.rank = rank;
  e.at_time = time;
  return e;
}

FaultEvent FaultPlan::crash_after_frames(int rank, int frames) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.rank = rank;
  e.after_frames = frames;
  return e;
}

FaultEvent FaultPlan::drop_nth(int rank, int nth, int tag) {
  FaultEvent e;
  e.kind = FaultKind::kDropMessage;
  e.rank = rank;
  e.nth_message = nth;
  e.tag = tag;
  return e;
}

FaultEvent FaultPlan::duplicate_nth(int rank, int nth, int tag) {
  FaultEvent e;
  e.kind = FaultKind::kDuplicateMessage;
  e.rank = rank;
  e.nth_message = nth;
  e.tag = tag;
  return e;
}

FaultEvent FaultPlan::reorder_nth(int rank, int nth, int tag) {
  FaultEvent e;
  e.kind = FaultKind::kReorderMessage;
  e.rank = rank;
  e.nth_message = nth;
  e.tag = tag;
  return e;
}

FaultEvent FaultPlan::delay_window(int rank, double t_begin, double t_end,
                                   double extra_seconds) {
  FaultEvent e;
  e.kind = FaultKind::kDelaySpike;
  e.rank = rank;
  e.t_begin = t_begin;
  e.t_end = t_end;
  e.extra_seconds = extra_seconds;
  return e;
}

FaultEvent FaultPlan::slowdown_window(int rank, double t_begin, double t_end,
                                      double factor) {
  FaultEvent e;
  e.kind = FaultKind::kSlowdown;
  e.rank = rank;
  e.t_begin = t_begin;
  e.t_end = t_end;
  e.factor = factor;
  return e;
}

FaultEvent FaultPlan::rejoin_at(int rank, double time) {
  FaultEvent e;
  e.kind = FaultKind::kRejoin;
  e.rank = rank;
  e.at_time = time;
  return e;
}

FaultEvent FaultPlan::rejoin_after_crash(int rank, double seconds) {
  FaultEvent e;
  e.kind = FaultKind::kRejoin;
  e.rank = rank;
  e.after_crash_seconds = seconds;
  return e;
}

std::string describe_fault_plan(const FaultPlan& plan) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "fault plan: %zu event(s), progress tags worker=%d shard=%d "
                "scheduler=%d, first shard rank %d\n",
                plan.events.size(), plan.progress_tag,
                plan.shard_progress_tag, plan.scheduler_progress_tag,
                plan.first_shard_rank);
  out += line;
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    switch (e.kind) {
      case FaultKind::kCrash:
        if (e.after_frames >= 0) {
          std::snprintf(line, sizeof(line),
                        "  [%zu] crash rank %d after %d progress message(s)\n",
                        i, e.rank, e.after_frames);
        } else {
          std::snprintf(line, sizeof(line),
                        "  [%zu] crash rank %d at t=%.3f\n", i, e.rank,
                        e.at_time);
        }
        break;
      case FaultKind::kDropMessage:
      case FaultKind::kDuplicateMessage:
      case FaultKind::kReorderMessage:
        std::snprintf(line, sizeof(line),
                      "  [%zu] %s rank %d message #%d (tag %d)\n", i,
                      to_string(e.kind), e.rank, e.nth_message, e.tag);
        break;
      case FaultKind::kDelaySpike:
        std::snprintf(line, sizeof(line),
                      "  [%zu] delay into rank %d +%.3fs over [%.3f, %.3f)\n",
                      i, e.rank, e.extra_seconds, e.t_begin, e.t_end);
        break;
      case FaultKind::kSlowdown:
        std::snprintf(line, sizeof(line),
                      "  [%zu] slowdown rank %d x%.3f over [%.3f, %.3f)\n", i,
                      e.rank, e.factor, e.t_begin, e.t_end);
        break;
      case FaultKind::kRejoin:
        if (e.after_crash_seconds > 0.0) {
          std::snprintf(line, sizeof(line),
                        "  [%zu] rejoin rank %d %.3fs after its crash\n", i,
                        e.rank, e.after_crash_seconds);
        } else {
          std::snprintf(line, sizeof(line),
                        "  [%zu] rejoin rank %d at t=%.3f\n", i, e.rank,
                        e.at_time);
        }
        break;
    }
    out += line;
  }
  return out;
}

void validate_fault_plan(const FaultPlan& plan, int world_size,
                         bool allow_scheduler_crash) {
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& e = plan.events[i];
    const std::string where = "FaultPlan event " + std::to_string(i) + " (" +
                              to_string(e.kind) + "): ";
    const bool rank0_crash = e.kind == FaultKind::kCrash && e.rank == 0;
    if (rank0_crash) {
      if (!allow_scheduler_crash) {
        throw std::invalid_argument(
            where + "a scheduler (rank 0) crash needs the sim backend and a "
                    "journal to restart from");
      }
    } else if (e.rank < 1 || e.rank >= world_size) {
      throw std::invalid_argument(
          where + "rank " + std::to_string(e.rank) +
          " outside faultable range [1, " + std::to_string(world_size) + ")");
    }
    switch (e.kind) {
      case FaultKind::kCrash: {
        const bool by_time = e.at_time >= 0.0;
        const bool by_frames = e.after_frames >= 0;
        if (by_time == by_frames) {
          throw std::invalid_argument(
              where + "set exactly one of at_time or after_frames");
        }
        break;
      }
      case FaultKind::kDropMessage:
      case FaultKind::kDuplicateMessage:
      case FaultKind::kReorderMessage:
        if (e.nth_message < 1) {
          throw std::invalid_argument(where + "nth_message must be >= 1");
        }
        break;
      case FaultKind::kDelaySpike:
        if (!(e.t_end > e.t_begin)) {
          throw std::invalid_argument(where + "window needs t_end > t_begin");
        }
        if (!(e.extra_seconds >= 0.0) || !std::isfinite(e.extra_seconds)) {
          throw std::invalid_argument(where + "extra_seconds must be >= 0");
        }
        break;
      case FaultKind::kSlowdown:
        if (!(e.t_end > e.t_begin)) {
          throw std::invalid_argument(where + "window needs t_end > t_begin");
        }
        if (!(e.factor > 0.0) || !std::isfinite(e.factor)) {
          throw std::invalid_argument(where + "factor must be > 0");
        }
        break;
      case FaultKind::kRejoin: {
        const bool by_time = e.at_time >= 0.0 && std::isfinite(e.at_time);
        const bool by_delay = e.after_crash_seconds > 0.0 &&
                              std::isfinite(e.after_crash_seconds);
        if (by_time == by_delay) {
          throw std::invalid_argument(
              where + "set exactly one of at_time or after_crash_seconds");
        }
        // A rejoin only makes sense against exactly one crash of the same
        // rank, and (when both are time-triggered) strictly after it —
        // multiple crash/rejoin cycles per rank are not modeled. A relative
        // rejoin (after_crash_seconds) is ordered after the crash by
        // construction, whichever trigger the crash uses.
        int crashes = 0;
        double crash_time = -1.0;
        int rejoins = 0;
        for (const FaultEvent& other : plan.events) {
          if (other.rank != e.rank) continue;
          if (other.kind == FaultKind::kCrash) {
            ++crashes;
            crash_time = other.at_time;
          } else if (other.kind == FaultKind::kRejoin) {
            ++rejoins;
          }
        }
        if (crashes != 1) {
          throw std::invalid_argument(
              where + "rank must have exactly one crash event to rejoin");
        }
        if (rejoins != 1) {
          throw std::invalid_argument(
              where + "rank may have at most one rejoin event");
        }
        if (by_time && crash_time >= 0.0 && !(e.at_time > crash_time)) {
          throw std::invalid_argument(
              where + "rejoin must be scheduled after the rank's crash");
        }
        break;
      }
    }
  }
}

}  // namespace now
