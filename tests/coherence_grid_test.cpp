#include "src/core/coherence_grid.h"

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/thread_pool.h"

namespace now {
namespace {

VoxelGrid small_grid() {
  return VoxelGrid({{0, 0, 0}, {4, 4, 4}}, 4, 4, 4);
}

TEST(CoherenceGrid, MarkAndCollect) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 2);
  grid.mark(0, 3, 4);
  grid.mark(5, 1, 2);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 2);
  EXPECT_TRUE(mask.at(1, 2));
  EXPECT_TRUE(mask.at(3, 4));
  mask = PixelMask(8, 8);
  grid.collect_pixels({5}, &mask);
  EXPECT_EQ(mask.count(), 1);
  mask = PixelMask(8, 8);
  grid.collect_pixels({7}, &mask);
  EXPECT_EQ(mask.count(), 0);
}

TEST(CoherenceGrid, BeginPixelRetiresMarks) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(3, 1, 1);
  grid.begin_pixel(1, 1);  // recompute: old paths invalid
  PixelMask mask(8, 8);
  grid.collect_pixels({0, 3}, &mask);
  EXPECT_EQ(mask.count(), 0);
  // New marks after the bump are live.
  grid.mark(2, 1, 1);
  grid.collect_pixels({2}, &mask);
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, OtherPixelsUnaffectedByRetirement) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 2, 2);
  grid.begin_pixel(1, 1);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_TRUE(mask.at(2, 2));
}

TEST(CoherenceGrid, RegionLocalPixels) {
  // Region offset from the image origin: marks use full-image coordinates.
  CoherenceGrid grid(small_grid(), {4, 6, 3, 2});
  grid.mark(1, 5, 7);
  PixelMask mask(8, 8);
  grid.collect_pixels({1}, &mask);
  EXPECT_TRUE(mask.at(5, 7));
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, DuplicateConsecutiveMarksCollapse) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 1, 1);
  grid.mark(0, 1, 1);
  EXPECT_EQ(grid.stats().total_marks, 1);
}

TEST(CoherenceGrid, StatsTrackLiveAndTotal) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(1, 1, 1);
  grid.mark(2, 2, 2);
  EXPECT_EQ(grid.stats().live_marks, 3);
  EXPECT_EQ(grid.stats().total_marks, 3);
  grid.begin_pixel(1, 1);
  EXPECT_EQ(grid.stats().live_marks, 1);
  EXPECT_EQ(grid.stats().total_marks, 3);  // stale entries still stored
  EXPECT_GT(grid.stats().bytes(), 0);
}

TEST(CoherenceGrid, CollectCompactsScannedLists) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 2, 2);
  grid.begin_pixel(1, 1);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(grid.stats().total_marks, 1);  // stale entry dropped in passing
}

TEST(CoherenceGrid, MaybeCompactRemovesStaleMarks) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  for (int i = 0; i < 10; ++i) grid.mark(i, i % 8, i / 8);
  for (int i = 0; i < 8; ++i) grid.begin_pixel(i, 0);
  EXPECT_FALSE(grid.maybe_compact(0.95));  // threshold not reached
  EXPECT_TRUE(grid.maybe_compact(0.5));
  EXPECT_EQ(grid.stats().total_marks, grid.stats().live_marks);
  EXPECT_EQ(grid.stats().compactions, 1);
}

TEST(CoherenceGrid, ResetClearsEverything) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.begin_pixel(1, 1);
  grid.mark(0, 1, 1);
  grid.reset();
  EXPECT_EQ(grid.stats().total_marks, 0);
  EXPECT_EQ(grid.stats().live_marks, 0);
  PixelMask mask(8, 8);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 0);
  // Fresh marks after reset work normally.
  grid.mark(0, 3, 3);
  grid.collect_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, EpochReuseAfterRecompute) {
  // A pixel recomputed twice: only the newest generation of marks counts.
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);   // generation 0
  grid.begin_pixel(1, 1);
  grid.mark(1, 1, 1);   // generation 1
  grid.begin_pixel(1, 1);
  grid.mark(2, 1, 1);   // generation 2
  PixelMask mask(8, 8);
  grid.collect_pixels({0, 1}, &mask);
  EXPECT_EQ(mask.count(), 0);
  grid.collect_pixels({2}, &mask);
  EXPECT_EQ(mask.count(), 1);
}

TEST(CoherenceGrid, PeekLeavesStaleMarksInPlace) {
  CoherenceGrid grid(small_grid(), {0, 0, 8, 8});
  grid.mark(0, 1, 1);
  grid.mark(0, 2, 2);
  grid.begin_pixel(1, 1);
  PixelMask mask(8, 8);
  grid.peek_pixels({0}, &mask);
  EXPECT_EQ(mask.count(), 1);
  EXPECT_TRUE(mask.at(2, 2));
  EXPECT_EQ(grid.stats().total_marks, 2);  // the stale mark is still stored
}

// -------------------------------------------------------------------------
// CoherenceGrid::merge against the sequential begin_pixel/mark loop it
// replaces: each row marks the same history into two grids, then feeds the
// same chunked marks through both paths and compares every stat and every
// cell's list of live pixels, in order.

struct PixelCells {
  int x;
  int y;
  std::vector<std::uint32_t> cells;
};
using Chunk = std::vector<PixelCells>;

struct MergeRow {
  std::string name;
  bool reset;        // reset() before the chunks, as full renders do
  bool bump_epochs;  // incremental renders retire each pixel's old marks
  std::vector<Chunk> chunks;
};

void PrintTo(const MergeRow& row, std::ostream* os) { *os << row.name; }

const PixelRect kMergeRegion{2, 1, 8, 8};

std::vector<std::uint32_t> all_cells() {
  std::vector<std::uint32_t> cells;
  for (std::uint32_t c = 0; c < 64; ++c) cells.push_back(c);
  return cells;
}

/// Previous frames' marks, stored in both grids before a row's chunks.
void mark_history(CoherenceGrid* grid) {
  const Chunk frame0 = {{2, 1, {0, 5, 9}},
                        {3, 1, {5, 9, 40}},
                        {4, 2, {9, 63}},
                        {9, 8, {1, 2, 3}}};
  const Chunk frame1 = {{3, 1, {9, 41}}, {9, 8, {3, 2}}};
  for (const Chunk* frame : {&frame0, &frame1}) {
    for (const PixelCells& p : *frame) {
      grid->begin_pixel(p.x, p.y);
      for (const std::uint32_t c : p.cells) {
        grid->mark(static_cast<int>(c), p.x, p.y);
      }
    }
  }
}

void expect_same_stats(const CoherenceGridStats& a,
                       const CoherenceGridStats& b) {
  EXPECT_EQ(a.live_marks, b.live_marks);
  EXPECT_EQ(a.total_marks, b.total_marks);
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_EQ(a.reserved_marks, b.reserved_marks);
  EXPECT_EQ(a.fixed_bytes, b.fixed_bytes);
}

class CoherenceGridMerge : public ::testing::TestWithParam<MergeRow> {};

TEST_P(CoherenceGridMerge, MatchesSequentialMarks) {
  const MergeRow& row = GetParam();
  for (const int threads : {0, 1, 2, 3, 4}) {
    SCOPED_TRACE("pool threads " + std::to_string(threads));
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);

    CoherenceGrid sequential(small_grid(), kMergeRegion);
    CoherenceGrid merged(small_grid(), kMergeRegion);
    mark_history(&sequential);
    mark_history(&merged);
    if (row.reset) {
      sequential.reset();
      merged.reset();
    }

    std::vector<MarkBuffer> buffers;
    for (const Chunk& chunk : row.chunks) {
      MarkBuffer& buffer = buffers.emplace_back();
      for (const PixelCells& p : chunk) {
        if (row.bump_epochs) sequential.begin_pixel(p.x, p.y);
        for (const std::uint32_t c : p.cells) {
          sequential.mark(static_cast<int>(c), p.x, p.y);
        }
        buffer.pixels.push_back(
            {p.x, p.y, static_cast<std::uint32_t>(p.cells.size())});
        buffer.cells.insert(buffer.cells.end(), p.cells.begin(),
                            p.cells.end());
      }
    }
    std::vector<const MarkBuffer*> chunks;
    for (const MarkBuffer& b : buffers) chunks.push_back(&b);
    merged.merge(chunks, row.bump_epochs, pool.get());
    expect_same_stats(sequential.stats(), merged.stats());

    // Collect every cell from both grids, the merged one on the pool.
    std::vector<std::uint32_t> every_cell = all_cells();
    PixelMask seq_mask(12, 10);
    PixelMask merged_mask(12, 10);
    sequential.collect_pixels(every_cell, &seq_mask);
    merged.collect_pixels(every_cell, &merged_mask, nullptr, pool.get());
    EXPECT_TRUE(seq_mask == merged_mask);
    expect_same_stats(sequential.stats(), merged.stats());

    // List order: a single cell's collected pixels come out in list order.
    for (const std::uint32_t c : every_cell) {
      PixelMask a(12, 10);
      PixelMask b(12, 10);
      std::vector<std::uint32_t> seq_pixels;
      std::vector<std::uint32_t> merged_pixels;
      sequential.collect_pixels({c}, &a, &seq_pixels);
      merged.collect_pixels({c}, &b, &merged_pixels);
      EXPECT_EQ(seq_pixels, merged_pixels) << "cell " << c;
    }

    // Retire every other row, then compact both ways.
    for (int y = kMergeRegion.y0; y < kMergeRegion.y0 + 8; y += 2) {
      for (int x = kMergeRegion.x0; x < kMergeRegion.x0 + 8; ++x) {
        sequential.begin_pixel(x, y);
        merged.begin_pixel(x, y);
      }
    }
    EXPECT_EQ(sequential.maybe_compact(0.0),
              merged.maybe_compact(0.0, pool.get()));
    expect_same_stats(sequential.stats(), merged.stats());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Rows, CoherenceGridMerge,
    ::testing::Values(
        MergeRow{"FullRenderAfterReset",
                 true,
                 false,
                 {{{2, 1, {5, 0}}, {3, 1, {5}}},
                  {{4, 2, {9, 10, 11}}},
                  {{9, 8, {63, 0}}}}},
        MergeRow{"IncrementalWithBump",
                 false,
                 true,
                 {{{3, 1, {9, 41}}}, {{2, 1, {0, 5, 9}}, {5, 5, {12}}}}},
        MergeRow{"AllDirtyReset",
                 true,
                 true,
                 {{{2, 1, {1}}, {3, 1, {9, 5}}},
                  {{4, 2, {63}}, {9, 8, {3, 2, 1}}}}},
        MergeRow{"EmptyChunk",
                 false,
                 true,
                 {{}, {{3, 1, {40}}}, {}}},
        MergeRow{"PixelWithZeroMarks",
                 false,
                 true,
                 {{{2, 1, {}}, {3, 1, {5}}}, {{9, 8, {}}}}},
        MergeRow{"PixelStraddlesRangeBoundary",
                 false,
                 true,
                 {{{4, 2, all_cells()}}, {{5, 3, {63, 31, 32, 0}}}}}),
    [](const ::testing::TestParamInfo<MergeRow>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace now
