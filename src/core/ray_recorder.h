// RayRecorder: the RayListener that implements the inner loop of Figure 3 —
//   "for each voxel that a ray associated with this pixel intersects,
//    add the pixel to the voxel's pixel list."
//
// Each reported ray segment is walked through the coherence grid with the
// 3D-DDA (the paper's "modified 3D-DDA algorithm"), clipped at the segment's
// termination parameter: objects behind a hit point cannot affect the pixel,
// so voxels beyond it are not marked. Shadow-ray marking can be disabled to
// measure the cost/benefit of the paper's shadow-coherence feature (only
// valid with shadows off, otherwise occluder motion would be missed).
//
// BufferedRayRecorder is the multithreaded variant: it performs the same DDA
// walk but defers the grid updates into a private per-chunk MarkBuffer,
// which the renderer hands to CoherenceGrid::merge in fixed chunk order
// after the parallel section — the grid ends byte-identical to a sequential
// render (see CoherentRenderer's "Intra-worker parallelism" notes).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/coherence_grid.h"
#include "src/trace/tracer.h"

namespace now {

struct RayRecorderStats {
  std::uint64_t segments = 0;
  std::uint64_t voxels_visited = 0;
};

class RayRecorder final : public RayListener {
 public:
  explicit RayRecorder(CoherenceGrid* grid, bool record_shadow_rays = true)
      : grid_(grid), record_shadow_rays_(record_shadow_rays) {}

  void on_segment(int px, int py, const Ray& ray, double t_end,
                  RayKind kind) override;

  const RayRecorderStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Fold a buffered chunk's counts in, so per-frame stat deltas stay
  /// consistent when sequential and threaded frames alternate.
  void accumulate(const RayRecorderStats& s) {
    stats_.segments += s.segments;
    stats_.voxels_visited += s.voxels_visited;
  }

 private:
  CoherenceGrid* grid_;
  bool record_shadow_rays_;
  RayRecorderStats stats_;
};

/// Mark buffer for one render chunk. The owning render thread announces each
/// pixel with begin_pixel() before shading it; every subsequent segment's
/// DDA-visited cells are appended to that pixel's entry. CoherenceGrid::merge
/// then stores the buffered marks in recording order.
///
/// Dedup invariant: sequential rendering processes each pixel contiguously,
/// so the grid's "skip the immediate duplicate" tail check collapses to "at
/// most one mark per (pixel, cell) per frame". The recorder applies exactly
/// that rule at buffer time (via a caller-owned stamp array, reusable across
/// chunks on the same pool worker); a pixel's epoch bump (or the grid reset
/// before a full render) rules out the remaining cross-frame duplicate, so
/// the merge needs no tail check and the stored mark lists end
/// byte-identical to a sequential render.
class BufferedRayRecorder final : public RayListener {
 public:
  /// `cell_stamp` must have grid.cell_count() entries and live as long as
  /// the recorder; `stamp_serial` is the monotonically increasing pixel
  /// serial shared by every recorder using that stamp array.
  BufferedRayRecorder(const VoxelGrid& grid, bool record_shadow_rays,
                      std::vector<std::uint64_t>* cell_stamp,
                      std::uint64_t* stamp_serial)
      : grid_(grid),
        record_shadow_rays_(record_shadow_rays),
        cell_stamp_(cell_stamp),
        stamp_serial_(stamp_serial) {}

  /// Start buffering marks for pixel (x, y) — full-image coordinates.
  void begin_pixel(int x, int y);

  void on_segment(int px, int py, const Ray& ray, double t_end,
                  RayKind kind) override;

  /// The marks buffered so far, for CoherenceGrid::merge.
  const MarkBuffer& marks() const { return marks_; }

  const RayRecorderStats& stats() const { return stats_; }

 private:
  const VoxelGrid& grid_;
  bool record_shadow_rays_;
  std::vector<std::uint64_t>* cell_stamp_;
  std::uint64_t* stamp_serial_;
  MarkBuffer marks_;
  RayRecorderStats stats_;
};

}  // namespace now
