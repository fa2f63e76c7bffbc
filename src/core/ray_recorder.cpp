#include "src/core/ray_recorder.h"

#include <cassert>

namespace now {

namespace {

/// Marking limit for a segment ending at `t_end`: extend fractionally past
/// the hit so the voxel containing the hit point is marked even when the hit
/// lies exactly on a cell boundary.
double mark_limit(double t_end) {
  return t_end >= kRayInfinity ? kRayInfinity : t_end * (1.0 + 1e-9) + 1e-12;
}

}  // namespace

void RayRecorder::on_segment(int px, int py, const Ray& ray, double t_end,
                             RayKind kind) {
  if (kind == RayKind::kShadow && !record_shadow_rays_) return;
  ++stats_.segments;
  const VoxelGrid& vg = grid_->grid();
  vg.walk(ray, 0.0, mark_limit(t_end),
          [&](int ix, int iy, int iz, double, double) {
            grid_->mark(vg.cell_index(ix, iy, iz), px, py);
            ++stats_.voxels_visited;
            return true;
          });
}

void BufferedRayRecorder::begin_pixel(int x, int y) {
  ++*stamp_serial_;
  marks_.pixels.push_back({x, y, 0});
}

void BufferedRayRecorder::on_segment(int px, int py, const Ray& ray,
                                     double t_end, RayKind kind) {
  if (kind == RayKind::kShadow && !record_shadow_rays_) return;
  assert(!marks_.pixels.empty() && marks_.pixels.back().x == px &&
         marks_.pixels.back().y == py && "segment outside begin_pixel scope");
  (void)px;
  (void)py;
  ++stats_.segments;
  const std::uint64_t serial = *stamp_serial_;
  std::vector<std::uint64_t>& stamp = *cell_stamp_;
  grid_.walk(ray, 0.0, mark_limit(t_end),
             [&](int ix, int iy, int iz, double, double) {
               ++stats_.voxels_visited;
               const int cell = grid_.cell_index(ix, iy, iz);
               // One buffered mark per (pixel, cell): the grid's consecutive-
               // duplicate check would drop the rest during a sequential
               // render anyway (pixels are processed contiguously).
               if (stamp[static_cast<std::size_t>(cell)] != serial) {
                 stamp[static_cast<std::size_t>(cell)] = serial;
                 marks_.cells.push_back(static_cast<std::uint32_t>(cell));
                 ++marks_.pixels.back().cell_count;
               }
               return true;
             });
}

}  // namespace now
