#include "src/shard/frame_store.h"

#include <string>

#include "src/par/protocol.h"

namespace now {

FrameStore::FrameStore(const FrameStoreConfig& config, FrameSink* sink)
    : config_(config),
      sink_(sink),
      ledger_(ledger_area(), config.first_frame, 0) {
  grow(config_.frame_count);
  if (config_.metrics != nullptr) {
    const std::string prefix =
        "endpoint." + std::to_string(config_.endpoint_rank) + ".";
    decode_failures_ =
        &config_.metrics->counter("net.frame_decode_failures");
    ep_decode_failures_ =
        &config_.metrics->counter(prefix + "frame_decode_failures");
    ep_frame_bytes_ = &config_.metrics->counter(prefix + "frame_bytes");
  }
}

void FrameStore::grow(int frames) {
  const std::size_t n = frames_.size() + static_cast<std::size_t>(frames);
  frames_.resize(n, Framebuffer(config_.width, config_.height));
  ledger_.grow(frames);
  written_off_.resize(n, 0);
}

void FrameStore::write_off(int first, int count) {
  for (int f = first; f < first + count; ++f) {
    written_off_[f - first_frame()] = 1;
  }
}

void FrameStore::reset(FrameSink* sink) {
  const int owned = frame_count();
  frames_.clear();
  ledger_ = FrameLedger(ledger_area(), config_.first_frame, 0);
  written_off_.clear();
  chains_.clear();
  grow(owned);
  sink_ = sink;
}

int FrameStore::restore(
    const std::vector<std::optional<Framebuffer>>& frames,
    const std::vector<std::vector<RegionCommitRecord>>& commits) {
  for (int f = first_frame(); f < end_frame(); ++f) {
    if (f < static_cast<int>(frames.size()) && frames[f].has_value()) {
      frames_[f - first_frame()] = *frames[f];
    }
  }
  const int restored = ledger_.restore(frames, commits);
  report_.frames_restored += restored;
  return restored;
}

void FrameStore::count_decode_failure() {
  ++report_.decode_failures;
  if (decode_failures_ != nullptr) decode_failures_->inc();
  if (ep_decode_failures_ != nullptr) ep_decode_failures_->inc();
}

CommitDigest FrameStore::reject(Chain& chain, CommitDigest d, bool malformed) {
  if (malformed) count_decode_failure();
  chain.broken = true;
  ++report_.chain_rejects;
  d.kind = CommitKind::kChainReject;
  return d;
}

CommitDigest FrameStore::commit(Context& ctx, const Message& msg) {
  report_.frame_bytes += static_cast<std::int64_t>(msg.payload.size());
  if (ep_frame_bytes_ != nullptr) {
    ep_frame_bytes_->inc(static_cast<std::int64_t>(msg.payload.size()));
  }

  CommitDigest d;
  d.worker = msg.source;

  FrameResult result;
  if (!decode_frame_result(&result, msg.payload)) {
    // Envelope failed CRC/structure validation. Nothing ties it to a task,
    // so the digest only names the sender; the worker's next valid result
    // or its lease surfaces the gap.
    count_decode_failure();
    d.kind = CommitKind::kDecodeFail;
    return d;
  }
  ++report_.frame_results;
  d.task_id = result.task_id;
  d.frame = result.frame;
  d.trace_ctx = result.trace_ctx;
  d.rect = result.payload.rect;
  d.full_render = result.full_render;
  d.rays = result.rays;
  d.shadow_rays = result.shadow_rays;
  d.pixels_recomputed = result.pixels_recomputed;
  d.compute_seconds = result.compute_seconds;
  d.render_seconds = result.render_seconds;

  const int frame = result.frame;
  const PixelRect& region = result.payload.rect;
  Chain& chain = chains_[result.task_id];
  if (chain.broken) return reject(chain, d, /*malformed=*/false);

  // A result can pass the CRC and still be malformed. Workers only send
  // owned frames and rects inside the image, so anything else is
  // corruption and must never index the frame table or the pixels.
  const bool in_image =
      region.x0 >= 0 && region.y0 >= 0 &&
      std::int64_t{region.x0} + region.width <= config_.width &&
      std::int64_t{region.y0} + region.height <= config_.height;
  if (frame < first_frame() || frame >= end_frame() || !in_image) {
    return reject(chain, d, /*malformed=*/true);
  }
  if (written_off_[frame - first_frame()]) {
    return reject(chain, d, /*malformed=*/false);
  }
  if (!chain.started) {
    // A task's first result is always a dense key frame (workers promote at
    // a task's first frame and at every ownership boundary): a sparse one
    // references a predecessor this store never got from this task. Later
    // results sit past a dense start, so a chain-valid sparse result always
    // has its predecessor in the owned range.
    if (!result.payload.dense) return reject(chain, d, /*malformed=*/true);
    chain.started = true;
    chain.next = frame;
  }
  if (frame < chain.next) {
    // Duplicated delivery behind the chain: already handled, just ack.
    d.kind = CommitKind::kStale;
    ++report_.stale_results;
    return d;
  }
  if (frame > chain.next) {
    // A result vanished in transit; the sparse chain is broken from the gap
    // onward.
    return reject(chain, d, /*malformed=*/false);
  }

  // Idempotent-commit gate: a (region, frame) already committed — by a
  // speculation partner or an overlapping reclaim — advances the chain but
  // is applied nowhere. Both copies render identical pixels (the coherence
  // guarantee), so skipping the apply keeps this sender's later sparse
  // results valid against the predecessor frame. Partition rects never
  // partially overlap, so a fresh rect always fits in what the frame still
  // misses.
  chain.next = frame + 1;
  const FrameLedger::Commit gate = ledger_.commit(frame, region);
  if (gate == FrameLedger::Commit::kDuplicate) {
    d.kind = CommitKind::kDuplicate;
    ++report_.duplicates;
    return d;
  }
  if (gate == FrameLedger::Commit::kOversize) {
    return reject(chain, d, /*malformed=*/true);
  }

  const int local = frame - first_frame();
  if (!result.payload.dense) {
    frames_[local].blit(region, frames_[local - 1].extract(region));
  }
  apply_payload(&frames_[local], result.payload);
  // The journal digest runs over the *decoded* pixels, never wire bytes, so
  // raw and delta transports write identical records.
  sink_->commit_region(result.task_id, region, frame, frames_[local]);
  ++report_.frames_committed;

  if (gate == FrameLedger::Commit::kCompleted) {
    ++report_.frames_completed;
    ctx.charge(config_.frame_write_seconds);
    // The sink writes the frame file atomically before the record that
    // declares it durable, and writes no record for a file that failed.
    if (!sink_->complete_frame(frame, frames_[local])) {
      ++report_.frame_write_failures;
    }
  }
  d.kind = CommitKind::kFresh;
  return d;
}

}  // namespace now
