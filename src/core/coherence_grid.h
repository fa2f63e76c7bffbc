// CoherenceGrid: the voxel → pixel-list data structure at the heart of the
// paper's frame-coherence algorithm (Figure 3).
//
// "As rays are fired during the rendering process, the frame coherence
//  algorithm tracks their paths and marks all of the voxels that they pass
//  through. ... If a particular voxel experiences some sort of change in the
//  next frame, all of the pixels whose rays pass through that voxel must be
//  updated."
//
// Marks are retired lazily with per-pixel epochs: when a pixel is about to
// be recomputed its epoch is bumped, which invalidates every mark it left
// behind; the new computation re-marks its (possibly different) ray paths.
// Stale entries are dropped whenever a voxel's list is scanned, plus in a
// global compaction pass when the stale fraction grows too large. Memory is
// proportional to the tracked pixel region — the property that makes frame
// division cheaper per worker than sequence division (Section 3).
//
// Multithreaded renders buffer their marks per chunk (MarkBuffer) and hand
// them to merge(), which appends them on a ThreadPool: the cell lists are
// split into disjoint contiguous index ranges, so no list is shared between
// threads, and each range walks the buffers in order, so every list ends in
// the order a sequential render would have produced.
#pragma once

#include <cstdint>
#include <vector>

#include "src/geom/voxel_grid.h"
#include "src/image/framebuffer.h"
#include "src/image/image_diff.h"

namespace now {

class ThreadPool;

struct CoherenceGridStats {
  std::int64_t live_marks = 0;
  std::int64_t total_marks = 0;  // live + stale currently stored
  std::int64_t compactions = 0;
  /// Mark slots *allocated* across all cell lists (vector capacities).
  /// Compaction and reset shrink sizes but keep capacity, so this is the
  /// memory high-water behavior the allocator actually sees.
  std::int64_t reserved_marks = 0;
  /// Fixed overhead allocated at construction: the per-pixel epoch and
  /// live-mark arrays plus the cell-list headers.
  std::int64_t fixed_bytes = 0;
  /// Allocated footprint, not live-entry count: stale-but-stored marks and
  /// grown-but-unused capacity both occupy real memory, and the paper's
  /// "memory proportional to image area" claim is about the allocation.
  std::int64_t bytes() const {
    return fixed_bytes +
           reserved_marks * static_cast<std::int64_t>(2 * sizeof(std::uint32_t));
  }
};

/// One render chunk's marks, buffered instead of written to the grid: the
/// chunk's pixels in shading order, each with the number of marks it left,
/// and those marks' cells concatenated in the same order. A pixel holds at
/// most one mark per cell (see BufferedRayRecorder).
struct MarkBuffer {
  struct Pixel {
    std::int32_t x;  // full-image coordinates
    std::int32_t y;
    std::uint32_t cell_count;
  };
  std::vector<Pixel> pixels;
  std::vector<std::uint32_t> cells;
};

class CoherenceGrid {
 public:
  /// Track pixels of `region` (a subarea of the full image) against `grid`.
  CoherenceGrid(const VoxelGrid& grid, const PixelRect& region);

  const VoxelGrid& grid() const { return grid_; }
  const PixelRect& region() const { return region_; }

  /// Append pixel (x, y) — full-image coordinates, must lie in the region —
  /// to the pixel list of the given voxel cell.
  void mark(int cell, int x, int y);

  /// The pixel is about to be recomputed: retire all marks it left.
  void begin_pixel(int x, int y);

  /// Forget everything (used when a full re-render invalidates all state).
  void reset();

  /// Store `chunks`' marks exactly as if each pixel, in chunk order and then
  /// buffer order, had been announced with begin_pixel() (only when
  /// `bump_epochs`) and had its cells mark()ed — lists, epochs and stats
  /// all end identical. A pixel may appear only once across `chunks` (the
  /// renderer's chunks are disjoint row bands). Without `bump_epochs` no
  /// list may already end in a buffered pixel's current-epoch mark, which
  /// holds right after reset(). The appends run on `pool`, one task per
  /// cell range; null runs them on the calling thread.
  void merge(const std::vector<const MarkBuffer*>& chunks, bool bump_epochs,
             ThreadPool* pool);

  /// Union of the live pixels of the given voxel cells into `out` (mask in
  /// full-image coordinates). Scanned lists are compacted in passing.
  /// When `pixels` is non-null it additionally receives the region-local
  /// index of every pixel newly set in `out` (deduplicated via the mask, in
  /// scan order — not sorted); callers that iterate only the dirty pixels
  /// avoid rescanning the whole region. With a `pool`, ranges of `cells`
  /// (which must be distinct) are scanned concurrently and `pixels` comes
  /// out ascending; the mask, the lists and the stats end the same.
  void collect_pixels(const std::vector<std::uint32_t>& cells, PixelMask* out,
                      std::vector<std::uint32_t>* pixels = nullptr,
                      ThreadPool* pool = nullptr);

  /// Union of the live pixels of the given voxel cells into `out`, leaving
  /// the grid untouched: stale marks are skipped, not dropped.
  void peek_pixels(const std::vector<std::uint32_t>& cells,
                   PixelMask* out) const;

  /// Drop stale marks everywhere when they exceed `stale_fraction` of all
  /// stored marks, one task per cell range on `pool` (null = the calling
  /// thread). Returns true if a compaction ran.
  bool maybe_compact(double stale_fraction = 0.5, ThreadPool* pool = nullptr);

  const CoherenceGridStats& stats() const { return stats_; }

 private:
  struct Mark {
    std::uint32_t pixel;  // region-local index
    std::uint32_t epoch;
  };

  std::uint32_t local_index(int x, int y) const {
    return static_cast<std::uint32_t>((y - region_.y0) * region_.width +
                                      (x - region_.x0));
  }

  /// Drop the list's stale marks, calling visit(mark) on each kept one;
  /// returns how many were dropped.
  template <typename Visit>
  std::size_t compact_cell(std::vector<Mark>& list, Visit&& visit) const;
  /// Range-balancing weight of a cell: the marks its list holds, plus one.
  std::int64_t list_weight(int cell) const;
  void collect_pixels_ranged(const std::vector<std::uint32_t>& cells,
                             PixelMask* out,
                             std::vector<std::uint32_t>* pixels,
                             ThreadPool* pool);

  VoxelGrid grid_;
  PixelRect region_;
  std::vector<std::vector<Mark>> cells_;
  std::vector<std::uint32_t> pixel_epoch_;  // per region-local pixel
  std::vector<std::uint32_t> pixel_marks_;  // live marks held per pixel
  CoherenceGridStats stats_;
};

}  // namespace now
