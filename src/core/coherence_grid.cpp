#include "src/core/coherence_grid.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <numeric>

#include "src/core/thread_pool.h"

namespace now {

namespace {

/// Ranges per pool thread for compaction and collection. More ranges than
/// threads lets the pool's dynamic scheduling absorb a thread that starts
/// late. The merge uses one range per thread: each of its ranges scans every
/// buffered mark.
constexpr int kRangesPerThread = 8;

/// Sum of fn(lo, hi) over disjoint contiguous index ranges [lo, hi) that
/// cover [0, n) and hold about equal total weight(i): `ranges_per_thread`
/// tasks per thread of `pool`, or one range on the calling thread when
/// `pool` is null.
template <typename Weight, typename Fn>
std::int64_t sum_over_ranges(ThreadPool* pool, int ranges_per_thread, int n,
                             Weight&& weight, Fn&& fn) {
  const int ranges =
      pool == nullptr
          ? 1
          : std::clamp(ranges_per_thread * pool->thread_count(), 1,
                       std::max(n, 1));
  if (ranges == 1) return fn(0, n);
  std::int64_t total = 0;
  for (int i = 0; i < n; ++i) total += weight(i);
  std::vector<int> bounds(static_cast<std::size_t>(ranges) + 1, n);
  bounds[0] = 0;
  std::int64_t seen = 0;
  for (int i = 0, r = 1; i < n && r < ranges; ++i) {
    seen += weight(i);
    while (r < ranges && seen * ranges >= total * r) {
      bounds[static_cast<std::size_t>(r++)] = i + 1;
    }
  }
  std::vector<std::int64_t> sums(static_cast<std::size_t>(ranges), 0);
  pool->parallel_for(ranges, [&](int r, int) {
    const auto i = static_cast<std::size_t>(r);
    sums[i] = fn(bounds[i], bounds[i + 1]);
  });
  return std::accumulate(sums.begin(), sums.end(), std::int64_t{0});
}

}  // namespace

CoherenceGrid::CoherenceGrid(const VoxelGrid& grid, const PixelRect& region)
    : grid_(grid),
      region_(region),
      cells_(static_cast<std::size_t>(grid.cell_count())),
      pixel_epoch_(static_cast<std::size_t>(region.area()), 0),
      pixel_marks_(static_cast<std::size_t>(region.area()), 0) {
  stats_.fixed_bytes =
      static_cast<std::int64_t>(region.area()) * 2 * sizeof(std::uint32_t) +
      static_cast<std::int64_t>(cells_.size()) * sizeof(std::vector<Mark>);
}

void CoherenceGrid::mark(int cell, int x, int y) {
  assert(region_.contains(x, y));
  const std::uint32_t pixel = local_index(x, y);
  const std::uint32_t epoch = pixel_epoch_[pixel];
  std::vector<Mark>& list = cells_[cell];
  // Successive rays of one pixel often pierce the same voxel; skipping the
  // immediate duplicate removes most of that redundancy for free.
  if (!list.empty() && list.back().pixel == pixel &&
      list.back().epoch == epoch) {
    return;
  }
  // Capacity-delta accounting: compaction and reset shrink sizes but never
  // release capacity, so allocation only ever grows here.
  const std::size_t before = list.capacity();
  list.push_back({pixel, epoch});
  stats_.reserved_marks +=
      static_cast<std::int64_t>(list.capacity() - before);
  ++stats_.total_marks;
  ++stats_.live_marks;
  ++pixel_marks_[pixel];
}

void CoherenceGrid::begin_pixel(int x, int y) {
  const std::uint32_t pixel = local_index(x, y);
  ++pixel_epoch_[pixel];
  stats_.live_marks -= pixel_marks_[pixel];
  pixel_marks_[pixel] = 0;
}

void CoherenceGrid::reset() {
  for (auto& list : cells_) list.clear();
  std::fill(pixel_epoch_.begin(), pixel_epoch_.end(), 0);
  std::fill(pixel_marks_.begin(), pixel_marks_.end(), 0);
  stats_.live_marks = 0;
  stats_.total_marks = 0;
}

std::int64_t CoherenceGrid::list_weight(int cell) const {
  const std::size_t stored = cells_[static_cast<std::size_t>(cell)].size();
  return static_cast<std::int64_t>(stored) + 1;
}

template <typename Visit>
std::size_t CoherenceGrid::compact_cell(std::vector<Mark>& list,
                                        Visit&& visit) const {
  std::size_t keep = 0;
  for (const Mark& m : list) {
    if (m.epoch != pixel_epoch_[m.pixel]) continue;
    list[keep++] = m;
    visit(m);
  }
  const std::size_t dropped = list.size() - keep;
  list.resize(keep);
  return dropped;
}

void CoherenceGrid::merge(const std::vector<const MarkBuffer*>& chunks,
                          bool bump_epochs, ThreadPool* pool) {
  // Per-pixel pass: every count a pixel's marks move is known from its
  // buffered cell_count, so the stats need no per-mark update.
  for (const MarkBuffer* chunk : chunks) {
    for (const MarkBuffer::Pixel& p : chunk->pixels) {
      if (bump_epochs) begin_pixel(p.x, p.y);
      pixel_marks_[local_index(p.x, p.y)] += p.cell_count;
      stats_.live_marks += p.cell_count;
      stats_.total_marks += p.cell_count;
    }
  }

  // Append pass: epochs are final, so each range reads them freely and
  // writes only its own lists. Ranges are balanced by the marks their lists
  // already hold (last frame's marks land where this frame's will).
  stats_.reserved_marks += sum_over_ranges(
      pool, 1, static_cast<int>(cells_.size()),
      [&](int c) { return list_weight(c); },
      [&](int lo, int hi) {
        const auto first = static_cast<std::uint32_t>(lo);
        const auto span = static_cast<std::uint32_t>(hi - lo);
        std::int64_t grown = 0;
        for (const MarkBuffer* chunk : chunks) {
          const std::uint32_t* cell = chunk->cells.data();
          for (const MarkBuffer::Pixel& p : chunk->pixels) {
            const std::uint32_t pixel = local_index(p.x, p.y);
            const Mark m{pixel, pixel_epoch_[pixel]};
            for (const std::uint32_t* end = cell + p.cell_count; cell != end;
                 ++cell) {
              if (*cell - first >= span) continue;
              std::vector<Mark>& list = cells_[*cell];
              // mark()'s tail check cannot fire here: a pixel buffers each
              // cell once, and its epoch was bumped (or the grid reset)
              // since its previous marks.
              assert(list.empty() || list.back().pixel != m.pixel ||
                     list.back().epoch != m.epoch);
              const std::size_t before = list.capacity();
              list.push_back(m);
              grown += static_cast<std::int64_t>(list.capacity() - before);
            }
          }
          assert(cell == chunk->cells.data() + chunk->cells.size());
        }
        return grown;
      });
}

void CoherenceGrid::collect_pixels(const std::vector<std::uint32_t>& cells,
                                   PixelMask* out,
                                   std::vector<std::uint32_t>* pixels,
                                   ThreadPool* pool) {
  if (pool != nullptr) {
    collect_pixels_ranged(cells, out, pixels, pool);
    return;
  }
  for (const std::uint32_t cell : cells) {
    std::vector<Mark>& list = cells_[cell];
    std::size_t keep = 0;
    for (const Mark& m : list) {
      if (m.epoch != pixel_epoch_[m.pixel]) continue;  // stale: drop
      list[keep++] = m;
      const int x = region_.x0 + static_cast<int>(m.pixel) % region_.width;
      const int y = region_.y0 + static_cast<int>(m.pixel) / region_.width;
      if (!out->at(x, y)) {
        out->set(x, y, true);
        if (pixels != nullptr) pixels->push_back(m.pixel);
      }
    }
    stats_.total_marks -= static_cast<std::int64_t>(list.size() - keep);
    list.resize(keep);
  }
}

void CoherenceGrid::collect_pixels_ranged(
    const std::vector<std::uint32_t>& cells, PixelMask* out,
    std::vector<std::uint32_t>* pixels, ThreadPool* pool) {
  // Ranges of `cells` compact their own lists; several may find one pixel,
  // so they flag it in a region-local byte array with atomic stores.
  std::vector<std::uint8_t> found(pixel_epoch_.size(), 0);
  stats_.total_marks -= sum_over_ranges(
      pool, kRangesPerThread, static_cast<int>(cells.size()),
      [&](int i) {
        return list_weight(
            static_cast<int>(cells[static_cast<std::size_t>(i)]));
      },
      [&](int lo, int hi) {
        std::int64_t dropped = 0;
        for (int i = lo; i < hi; ++i) {
          dropped += static_cast<std::int64_t>(compact_cell(
              cells_[cells[static_cast<std::size_t>(i)]],
              [&](const Mark& m) {
                std::atomic_ref<std::uint8_t>(found[m.pixel])
                    .store(1, std::memory_order_relaxed);
              }));
        }
        return dropped;
      });
  for (std::uint32_t p = 0; p < found.size(); ++p) {
    if (found[p] == 0) continue;
    const int x = region_.x0 + static_cast<int>(p) % region_.width;
    const int y = region_.y0 + static_cast<int>(p) / region_.width;
    if (!out->at(x, y)) {
      out->set(x, y, true);
      if (pixels != nullptr) pixels->push_back(p);
    }
  }
}

void CoherenceGrid::peek_pixels(const std::vector<std::uint32_t>& cells,
                                PixelMask* out) const {
  for (const std::uint32_t cell : cells) {
    for (const Mark& m : cells_[cell]) {
      if (m.epoch != pixel_epoch_[m.pixel]) continue;
      out->set(region_.x0 + static_cast<int>(m.pixel) % region_.width,
               region_.y0 + static_cast<int>(m.pixel) / region_.width, true);
    }
  }
}

bool CoherenceGrid::maybe_compact(double stale_fraction, ThreadPool* pool) {
  const std::int64_t stale = stats_.total_marks - stats_.live_marks;
  if (stats_.total_marks == 0 ||
      static_cast<double>(stale) <
          stale_fraction * static_cast<double>(stats_.total_marks)) {
    return false;
  }
  stats_.total_marks -= sum_over_ranges(
      pool, kRangesPerThread, static_cast<int>(cells_.size()),
      [&](int c) { return list_weight(c); },
      [&](int lo, int hi) {
        std::int64_t dropped = 0;
        for (int c = lo; c < hi; ++c) {
          dropped += static_cast<std::int64_t>(compact_cell(
              cells_[static_cast<std::size_t>(c)], [](const Mark&) {}));
        }
        return dropped;
      });
  ++stats_.compactions;
  return true;
}

}  // namespace now
