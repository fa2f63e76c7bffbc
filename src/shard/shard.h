// FrameShard: one framebuffer/IO shard of the sharded master (rank
// worker_count+1+shard_index). It owns a contiguous frame range of the
// animation: workers send their (delta-coded) frame results straight here,
// the shard's FrameStore commits them against its own committed predecessor
// state and journals each commit to the shard's own crash-consistent
// segment, and the shard answers every result with a CommitDigest to the
// scheduler (rank 0).
//
// The commit logic is the FrameStore the master uses for --shards 1,
// restricted to the owned range, so a sharded run's frames are
// byte-identical to the single-store run's. What the shard adds are the
// actor duties of a remote rank: answering the scheduler's liveness pings,
// rebuilding from its journal segment after a crash or a fence, and sending
// the digests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/ckpt/recovery.h"
#include "src/net/runtime.h"
#include "src/obs/event_trace.h"
#include "src/obs/metrics.h"
#include "src/par/cost_model.h"
#include "src/shard/frame_sink.h"
#include "src/shard/frame_store.h"
#include "src/shard/ownership.h"

namespace now {

struct ShardConfig {
  ShardMap map;
  int shard_index = 0;
  int width = 0;
  int height = 0;
  CostModel cost;
  /// Per-frame targa output for owned frames ("" disables).
  std::string output_dir;
  std::string output_prefix = "frame";
  /// This shard's journal segment ("" disables journaling).
  std::string journal_path;
  bool journal_fsync = true;
  /// Replayed state from a previous run (null = fresh start): restored
  /// frames in the owned range are loaded, and the segment is appended to
  /// from its valid prefix.
  const RecoveryState* recovery = nullptr;
  EventTracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

struct ShardReport : StoreReport {
  std::int64_t journal_records = 0;
  std::int64_t journal_bytes = 0;
  bool journal_ok = true;
  /// Failover rebuilds: the shard rank died (or was fenced by the
  /// scheduler), replayed its journal segment, and re-announced itself.
  std::int64_t rebuilds = 0;
};

class FrameShard final : public Actor {
 public:
  explicit FrameShard(const ShardConfig& config);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& msg) override;

  /// Owned frames. Valid after the runtime finishes.
  const FrameStore& store() const { return store_; }
  ShardReport report() const;

 private:
  void handle_frame_result(Context& ctx, const Message& msg);
  /// Failover restart (kTagRejoin from the runtime, or kTagShardReset from
  /// a scheduler that declared this incarnation dead): forget all in-memory
  /// state, rebuild committed frames + the idempotent gate from the journal
  /// segment, reopen the sink on the segment's valid prefix, and re-Hello
  /// the scheduler.
  void handle_rebuild(Context& ctx);

  ShardConfig config_;
  std::unique_ptr<FrameSink> sink_;
  FrameStore store_;
  std::int64_t rebuilds_ = 0;
};

}  // namespace now
