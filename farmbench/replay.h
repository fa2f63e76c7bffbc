// Stage replay: a single-threaded walk of one workload's tiles and frames
// through each layer's public functions, in the order a worker and a shard
// call them, with one span per call. It gives per-stage self times whose
// counts repeat exactly from run to run, unlike the wall-clock farm run.
//
// Per frame of the scene:   scene.world_build (world_at + grid accelerator)
//                           trace.render      (plain full-frame render)
// Per task region x frame:  core.renderer_init (first frame of a task)
//                           core.render_frame  (CoherentRenderer)
//                           image.payload_encode (make_*_payload + encode)
//                           net.codec_encode     (frame envelope)
//                           par.frame_result_codec (encode+decode message)
//                           net.codec_decode
//                           image.payload_apply  (decode + apply on frame)
//                           shard.region_commit  (FrameSink)
// Per completed frame:      image.tga_write   (durable workloads)
//                           shard.frame_complete (FrameSink)
// Once, afterwards:         ckpt.replay (replay_journal of the farm run's
//                                        journal, durable workloads)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace farmbench {

/// Span names that are layer stages; every other span ("replay",
/// "task_frame") only groups them, and its self time is unattributed.
const std::vector<std::string>& stage_names();

struct ReplayCounts {
  // trace: plain renders
  std::uint64_t plain_rays = 0;
  std::uint64_t plain_shadow_rays = 0;
  std::int64_t plain_pixels = 0;
  // core: coherent renders
  std::int64_t pixels_recomputed = 0;
  std::int64_t pixels_total = 0;
  std::int64_t full_renders = 0;
  std::int64_t full_render_pixels = 0;
  std::int64_t voxels_marked = 0;
  std::int64_t dirty_voxels = 0;
  std::int64_t peak_mark_bytes = 0;
  /// render_frame span durations, split by FrameRenderResult::full_render.
  std::vector<double> full_frame_s;
  std::vector<double> incremental_frame_s;
  /// render_frame time outside the parallel section, per threaded frame.
  std::vector<double> serial_outside_chunks;
  // image/net: payload bytes before and after the frame envelope
  std::int64_t frame_bytes_raw = 0;
  std::int64_t frame_bytes_wire = 0;
};

struct ReplayResult {
  std::vector<Span> spans;
  ReplayCounts counts;
  /// Per-frame verdicts: every frame the replay assembled and every plain
  /// render equals the reference.
  std::vector<bool> frame_ok;
};

/// Replay `workload` into `work_dir` (fresh, for TGAs and journals).
/// `farm_journal` is the journal of a completed farm run of the same
/// workload (empty when it keeps none) for the ckpt.replay stage.
ReplayResult run_stage_replay(const Workload& workload,
                              const std::vector<now::Framebuffer>& reference,
                              const std::string& work_dir,
                              const std::string& farm_journal);

}  // namespace farmbench
