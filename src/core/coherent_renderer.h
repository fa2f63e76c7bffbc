// CoherentRenderer: the complete frame-coherence rendering loop of Figure 3.
//
//   parse the user input parameters
//   initialize frame coherence data structures
//   for each frame of the animation
//     for each pixel that needs to be computed
//       for each voxel that a ray associated with this pixel intersects
//         add the pixel to the voxel's pixel list
//     find the voxels in which change occurs in the next frame
//     mark those pixels on the pixel list of the changed voxels for
//     recomputation in the next frame
//
// The renderer owns a persistent CoherenceGrid spanning the whole animation
// extent and renders frames of a pixel region in ascending order. The first
// frame (or any out-of-sequence frame, or a frame across a camera cut) is a
// full render; subsequent consecutive frames recompute only predicted-dirty
// pixels. Output is guaranteed byte-identical to a from-scratch render.
//
// Granularity is per pixel. Setting `block_size > 0` switches to the
// Jevans-1992 baseline the paper contrasts against: "if one pixel in the
// block needs to be updated, all pixels in the block are re-computed."
//
// Intra-worker parallelism (`threads`): the region's pixels are sharded into
// fixed row-band chunks; a thread pool shades chunks concurrently, each with
// its own Tracer and a BufferedRayRecorder that defers grid marks and ray
// stats into per-chunk buffers. After the join, CoherenceGrid::merge
// appends the buffered marks on the same pool, split by voxel-cell range,
// as if replayed in ascending chunk order; compaction and dirty-pixel
// collection split the same way. Stats are reduced in chunk order. The
// framebuffer, the grid's mark lists, and every FrameRenderResult counter
// are byte-identical to a `threads = 1` render (only the wall-clock
// `chunks` timing metadata differs; it is empty when sequential).
#pragma once

#include <memory>
#include <optional>

#include "src/core/change_detector.h"
#include "src/core/coherence_grid.h"
#include "src/core/ray_recorder.h"
#include "src/core/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/scene/animated_scene.h"
#include "src/trace/render.h"
#include "src/trace/uniform_grid.h"

namespace now {

struct CoherenceOptions {
  TraceOptions trace;

  /// Use frame coherence at all (false = full render every frame).
  bool enabled = true;

  /// Mark shadow-ray paths (must stay true while shadows are on; exposed for
  /// the shadow-coherence ablation with shadows disabled).
  bool record_shadow_rays = true;

  /// Jevans-style block granularity; 0 = the paper's per-pixel granularity.
  int block_size = 0;

  /// Render threads inside this renderer: 0 = one per hardware thread, 1 =
  /// sequential. Output is bit-deterministic for every value (render_farm
  /// forces 1 under the sim backend so virtual-time traces stay
  /// reproducible).
  int threads = 0;

  /// Coherence-grid resolution heuristic inputs (see VoxelGrid::heuristic).
  double grid_density = 3.0;
  int grid_max_axis = 64;

  /// Explicit coherence grid override (resolution-sweep benchmarks).
  std::optional<VoxelGrid> grid_override;

  /// Optional metrics sink: per-frame coherence counters (coherence.*) are
  /// published here. Null = no instrumentation, zero overhead.
  MetricsRegistry* metrics = nullptr;
};

/// Wall-clock timing of one parallel render chunk (a row band of the
/// region). Timing metadata only: inherently nondeterministic, excluded from
/// the threads-vs-sequential byte-identity guarantee.
struct ChunkTiming {
  int chunk = 0;    // index in fixed row-band order
  int thread = 0;   // pool worker that rendered it
  int y0 = 0;       // first image row of the band
  int rows = 0;
  double start_seconds = 0.0;  // offset from the frame's render start
  double seconds = 0.0;        // time spent shading the band
};

struct FrameRenderResult {
  TraceStats stats;
  std::int64_t pixels_recomputed = 0;
  std::int64_t pixels_total = 0;
  std::int64_t dirty_voxels = 0;
  /// Coherence bookkeeping volume: voxels visited by the DDA marker this
  /// frame (0 when coherence is disabled). Drives the overhead cost model.
  std::int64_t voxels_marked = 0;
  bool full_render = false;
  /// Pixels recomputed this frame (full-image coordinates; only pixels of
  /// the renderer's region can be set). Drives sparse network returns and
  /// the Figure 2 predicted-difference images.
  PixelMask recomputed;
  /// Per-chunk wall timings of the parallel section (empty when the frame
  /// was rendered sequentially). See ChunkTiming.
  std::vector<ChunkTiming> chunks;
};

/// Voxel-grid extent covering the scene's geometry across every frame, so
/// moving objects never escape the coherence grid.
Aabb animation_extent(const AnimatedScene& scene);

class CoherentRenderer {
 public:
  /// Renders pixels of `region` (full-image coordinates) of `scene`.
  CoherentRenderer(const AnimatedScene& scene, const PixelRect& region,
                   const CoherenceOptions& options = {});

  /// Render `frame` into `fb` (full image size). Frames rendered in
  /// ascending consecutive order reuse coherence; anything else triggers a
  /// full render of the region.
  FrameRenderResult render_frame(int frame, Framebuffer* fb);

  const CoherenceGrid& coherence_grid() const { return *grid_; }
  const PixelRect& region() const { return region_; }
  /// Resolved render-thread count (>= 1).
  int thread_count() const { return threads_; }

  /// Predicted-dirty mask for the transition last_frame → last_frame+1
  /// without rendering (used by the Figure 2 accuracy benchmark). Read-only:
  /// the grid, and so the next render, are left exactly as they were.
  PixelMask predict_dirty(int next_frame) const;

 private:
  FrameRenderResult full_render(Framebuffer* fb);
  FrameRenderResult incremental_render(int frame, Framebuffer* fb);
  void rebuild_frame_state(int frame);
  void expand_to_blocks(PixelMask* mask) const;

  /// Shade the region's pixels (those in `mask`, or all when null) on the
  /// thread pool and merge marks/stats deterministically. `bump_epochs`
  /// retires each pixel's stale marks before re-marking (incremental path).
  void render_pixels_parallel(const PixelMask* mask, bool bump_epochs,
                              Framebuffer* fb, FrameRenderResult* result);

  const AnimatedScene& scene_;
  PixelRect region_;
  CoherenceOptions options_;
  int threads_ = 1;

  std::unique_ptr<CoherenceGrid> grid_;
  std::unique_ptr<RayRecorder> recorder_;

  // Per-frame scratch reused across the incremental hot loop: the change
  // detector's voxel-dedup bitset and the dirty-pixel list from
  // collect_pixels (sorted ascending = row-major shading order).
  DirtyScratch dirty_scratch_;
  std::vector<std::uint32_t> dirty_pixels_;

  // Parallel-render state, created on first threaded frame: the pool, and
  // one mark-dedup stamp array + pixel serial per pool worker (see
  // BufferedRayRecorder).
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::vector<std::uint64_t>> mark_stamp_;
  std::vector<std::uint64_t> mark_serial_;

  // Cached instruments (null when options_.metrics is null): the registry
  // lookup by name happens once at construction, not per frame.
  Counter* metric_full_renders_ = nullptr;
  Counter* metric_incremental_renders_ = nullptr;
  Counter* metric_pixels_recomputed_ = nullptr;
  Counter* metric_voxels_marked_ = nullptr;
  Counter* metric_dirty_voxels_ = nullptr;

  int last_frame_ = -1;
  World world_;                                   // world of last_frame_
  std::unique_ptr<UniformGridAccelerator> accel_; // accel over world_
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace now
