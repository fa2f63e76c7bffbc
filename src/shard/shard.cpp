#include "src/shard/shard.h"

#include <cassert>

#include "src/par/protocol.h"

namespace now {
namespace {

FrameStoreConfig store_config(const ShardConfig& config) {
  const auto range = config.map.range_of(config.shard_index);
  FrameStoreConfig store;
  store.width = config.width;
  store.height = config.height;
  store.first_frame = range.first;
  store.frame_count = range.second - range.first;
  store.frame_write_seconds = config.cost.master_frame_write_seconds;
  store.endpoint_rank = config.map.rank_of_shard(config.shard_index);
  store.metrics = config.metrics;
  return store;
}

/// Open the FrameSink on the journal segment: `resume` appends after
/// `valid_bytes` (0 starts a fresh segment), false truncates and starts over.
std::unique_ptr<FrameSink> open_sink(const ShardConfig& config, bool resume,
                                     std::size_t valid_bytes) {
  FrameSinkConfig sink;
  sink.output_dir = config.output_dir;
  sink.output_prefix = config.output_prefix;
  sink.journal_path = config.journal_path;
  sink.journal_fsync = config.journal_fsync;
  sink.header.width = config.width;
  sink.header.height = config.height;
  sink.header.frame_count = config.map.frame_count;
  sink.header.shard_count = config.map.shard_count;
  sink.header.shard_index = config.shard_index;
  sink.resume = resume;
  sink.resume_valid_bytes = valid_bytes;
  sink.metrics = config.metrics;
  sink.endpoint_rank = config.map.rank_of_shard(config.shard_index);
  return std::make_unique<FrameSink>(sink);
}

std::size_t resume_valid_bytes(const ShardConfig& config) {
  if (config.recovery == nullptr) return 0;
  const std::vector<std::size_t>& bytes = config.recovery->shard_valid_bytes;
  return config.shard_index < static_cast<int>(bytes.size())
             ? bytes[config.shard_index]
             : 0;
}

}  // namespace

// Everything — allocation, resume restore, segment open/truncate — happens
// in the constructor, not on_start: a fully-restored resume lets the
// scheduler stop the run during ITS on_start, before any other actor
// starts, and the restored pixels and repaired segment must exist anyway.
FrameShard::FrameShard(const ShardConfig& config)
    : config_(config),
      sink_(open_sink(config, config.recovery != nullptr,
                      resume_valid_bytes(config))),
      store_(store_config(config), sink_.get()) {
  if (config_.tracer != nullptr && !config_.tracer->enabled()) {
    config_.tracer = nullptr;
  }
  // Resume: owned frames the previous run completed (segment record +
  // verified targa) are restored wholesale, with their idempotent gates
  // re-armed from the replayed commit records.
  if (config_.recovery != nullptr) {
    store_.restore(config_.recovery->frames, config_.recovery->frame_commits);
  }
}

void FrameShard::on_start(Context& ctx) {
  const std::int64_t restored = store_.report().frames_restored;
  if (config_.tracer != nullptr && restored > 0) {
    config_.tracer->instant(ctx.rank(), "shard", "resume.restore", ctx.now(),
                            {{"frames", restored}});
  }
}

void FrameShard::on_message(Context& ctx, const Message& msg) {
  ctx.charge(config_.cost.master_per_message_seconds);
  switch (msg.tag) {
    case kTagFrameResult:
      handle_frame_result(ctx, msg);
      break;
    case kTagPing:
      // Liveness probe from the scheduler's shard lease: any answer renews
      // the lease (the pong itself is the heartbeat).
      ctx.send(0, kTagPong, {});
      break;
    case kTagRejoin:   // runtime revived this rank after a crash
    case kTagShardReset:  // scheduler fenced a falsely-declared incarnation
      handle_rebuild(ctx);
      break;
    case kTagStop:
      // The scheduler broadcasts kTagStop at run end; shards have no
      // shutdown work (the runtime drains them when the scheduler stops).
      break;
    default:
      assert(false && "unexpected message tag at shard");
      break;
  }
}

void FrameShard::handle_frame_result(Context& ctx, const Message& msg) {
  const CommitDigest d = store_.commit(ctx, msg);
  if (d.kind == CommitKind::kFresh && config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "shard", "frame.result", ctx.now(),
                            {{"worker", msg.source},
                             {"frame", d.frame},
                             {"full", d.full_render ? 1 : 0}});
    if (d.trace_ctx != 0) {
      config_.tracer->flow_step(
          ctx.rank(), trace_flow_id(d.trace_ctx, d.frame), ctx.now(),
          {{"task", d.task_id}, {"frame", d.frame}, {"step", 3}});
    }
  }
  ctx.send(0, kTagCommitDigest, encode_commit_digest(d));
}

void FrameShard::handle_rebuild(Context& ctx) {
  // The previous incarnation's memory is gone (or declared gone): rebuild
  // from the journal segment, the only durable truth. Completed frames come
  // back verified from disk with their gates re-armed; partially-committed
  // frames are lost and revert to full area — the scheduler performs the
  // matching rollback on its digest mirror and re-covers those cells.
  sink_.reset();  // release the dead incarnation's journal fd before reopening
  ShardRebuild rb;
  if (!config_.journal_path.empty()) {
    rb = rebuild_shard_segment(
        config_.journal_path, config_.output_dir, config_.output_prefix,
        config_.width, config_.height, config_.map.frame_count,
        config_.map.shard_count, config_.shard_index);
  }
  sink_ = open_sink(config_, /*resume=*/true, rb.ok ? rb.valid_bytes : 0);
  store_.reset(sink_.get());
  const int restored = rb.ok ? store_.restore(rb.frames, rb.frame_commits) : 0;
  ++rebuilds_;

  if (config_.tracer != nullptr) {
    config_.tracer->instant(ctx.rank(), "shard", "shard.rebuild", ctx.now(),
                            {{"frames", restored}});
  }
  // Re-admission: the scheduler treats a Hello from a shard rank as "this
  // shard is (back) alive with exactly its durable state".
  ctx.send(0, kTagHello, {});
}

ShardReport FrameShard::report() const {
  ShardReport r;
  static_cast<StoreReport&>(r) = store_.report();
  r.journal_records = sink_->journal_records();
  r.journal_bytes = sink_->journal_bytes();
  r.journal_ok = sink_->journal_ok();
  r.rebuilds = rebuilds_;
  return r;
}

}  // namespace now
