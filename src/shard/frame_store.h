// FrameStore: the one place a frame result becomes committed pixels.
//
// A store owns a contiguous range of frames and turns each kTagFrameResult
// message into a CommitDigest: decode, validate against the task's chain and
// the image bounds, pass the idempotent-commit gate (the authoritative
// FrameLedger, src/shard/frame_ledger.h; the scheduler keeps a mirror of the
// same type), assemble the pixels (a sparse result on top of the committed
// predecessor frame), journal the region commit and, when a frame's last
// cell lands, write the frame through the FrameSink and charge the
// frame-write cost. A --shards 1 master owns one store over the whole frame
// space; each remote FrameShard owns one over its range. The scheduler only
// ever sees the digests.
//
// Chains are per task, because a store may see only a slice of a worker's
// result stream: a task's first result must be dense, and each later one
// must carry exactly the next frame. A gap, a sparse first result or a
// malformed result poisons the chain — it and everything after it from the
// same task is rejected, and the scheduler reclaims the range.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/ckpt/journal.h"
#include "src/image/framebuffer.h"
#include "src/net/runtime.h"
#include "src/obs/metrics.h"
#include "src/shard/digest.h"
#include "src/shard/frame_ledger.h"
#include "src/shard/frame_sink.h"

namespace now {

struct FrameStoreConfig {
  int width = 0;
  int height = 0;
  /// Owned global frames: [first_frame, first_frame + frame_count); grow()
  /// extends the range.
  int first_frame = 0;
  int frame_count = 0;
  /// Reference seconds charged when a frame completes and is written.
  double frame_write_seconds = 0.0;
  /// Rank that receives the results: labels the endpoint.<rank>.frame_bytes
  /// and endpoint.<rank>.frame_decode_failures counters.
  int endpoint_rank = 0;
  /// Sink for those counters and net.frame_decode_failures. Null disables.
  MetricsRegistry* metrics = nullptr;
};

/// What the store did with the results it received.
struct StoreReport {
  std::int64_t frame_results = 0;     // decoded results received
  std::int64_t frames_committed = 0;  // fresh region-frame commits
  std::int64_t frames_completed = 0;  // owned frames fully assembled
  std::int64_t frames_restored = 0;   // owned frames loaded on resume
  std::int64_t duplicates = 0;        // commit-gate hits (chain advanced)
  std::int64_t stale_results = 0;     // redeliveries behind the chain
  std::int64_t chain_rejects = 0;     // results that broke their chain
  /// Envelopes that failed to decode, and decoded results that were
  /// malformed (sparse with no predecessor, outside the owned frames or the
  /// image, or larger than the frame's missing area).
  std::int64_t decode_failures = 0;
  std::int64_t frame_bytes = 0;       // wire payload bytes received
  /// Completed frames whose file failed to write: no completion record was
  /// journaled, so a resume re-renders them.
  std::int64_t frame_write_failures = 0;
};

class FrameStore {
 public:
  /// `sink` receives every commit and completion; it must outlive the store
  /// or be replaced through reset().
  FrameStore(const FrameStoreConfig& config, FrameSink* sink);

  /// Commit one kTagFrameResult message. Charges the frame-write cost to
  /// `ctx` when the result completes a frame.
  CommitDigest commit(Context& ctx, const Message& msg);

  /// Append `frames` empty frames to the owned range.
  void grow(int frames);

  /// Forget every frame, gate and chain (failover: memory is gone) and
  /// write through `sink` from now on. Report counters are kept.
  void reset(FrameSink* sink);

  /// Load completed frames from a journal replay (both vectors indexed by
  /// global frame; missing entries are skipped) and re-arm their gates, so a
  /// duplicate commit can never double-apply into a finished frame. Returns
  /// the number of frames restored.
  int restore(const std::vector<std::optional<Framebuffer>>& frames,
              const std::vector<std::vector<RegionCommitRecord>>& commits);

  /// Reject every result for global frames [first, first + count) from now
  /// on, poisoning the sender's chain (the frames were written off, e.g. a
  /// cancelled shot).
  void write_off(int first, int count);

  int first_frame() const { return config_.first_frame; }
  int end_frame() const { return first_frame() + frame_count(); }
  int frame_count() const { return static_cast<int>(frames_.size()); }
  /// Frame by global index (must be owned).
  const Framebuffer& frame(int global) const {
    return frames_[global - first_frame()];
  }
  const StoreReport& report() const { return report_; }

 private:
  struct Chain {
    std::int32_t next = -1;  // next frame a chain-valid result must carry
    bool started = false;    // first (dense) result seen
    bool broken = false;     // rejected once; everything later is rejected
  };

  /// Poison `chain` and fill `d` as a chain reject; `malformed` also counts
  /// a decode failure.
  CommitDigest reject(Chain& chain, CommitDigest d, bool malformed);
  void count_decode_failure();
  std::int64_t ledger_area() const {
    return std::int64_t{config_.width} * config_.height;
  }

  FrameStoreConfig config_;
  FrameSink* sink_;
  std::vector<Framebuffer> frames_;
  /// Authoritative idempotent-commit gate over the owned frames.
  FrameLedger ledger_;
  std::vector<char> written_off_;  // per owned frame: see write_off()
  std::map<std::int32_t, Chain> chains_;

  Counter* decode_failures_ = nullptr;     // net.frame_decode_failures
  Counter* ep_decode_failures_ = nullptr;  // endpoint.<rank>.frame_decode_...
  Counter* ep_frame_bytes_ = nullptr;      // endpoint.<rank>.frame_bytes

  StoreReport report_;
};

}  // namespace now
