#include "src/core/change_detector.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/coherent_renderer.h"
#include "src/geom/cylinder.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/scene/builtin_scenes.h"
#include "tests/segment_box_oracle.h"

namespace now {
namespace {

World world_with_sphere(const Vec3& center, double radius) {
  World world;
  const int mat = world.add_material(Material::matte(Color::white()));
  world.add_object(std::make_unique<Sphere>(center, radius), mat, 0);
  return world;
}

VoxelGrid grid8() { return VoxelGrid({{0, 0, 0}, {8, 8, 8}}, 8, 8, 8); }

TEST(ChangeDetector, NoChangesNoDirtyVoxels) {
  const World a = world_with_sphere({2, 2, 2}, 0.5);
  const World b = world_with_sphere({2, 2, 2}, 0.5);
  const DirtyVoxels dirty = find_dirty_voxels(grid8(), a, b, {});
  EXPECT_TRUE(dirty.empty());
}

TEST(ChangeDetector, MovingSphereDirtiesOldAndNewFootprint) {
  const VoxelGrid grid = grid8();
  const World a = world_with_sphere({1.5, 1.5, 1.5}, 0.4);
  const World b = world_with_sphere({6.5, 6.5, 6.5}, 0.4);
  const DirtyVoxels dirty = find_dirty_voxels(grid, a, b, {0});
  ASSERT_FALSE(dirty.all_dirty);
  std::set<std::uint32_t> cells(dirty.cells.begin(), dirty.cells.end());
  // Old position cell (1,1,1) and new position cell (6,6,6) both dirty.
  EXPECT_TRUE(cells.count(grid.cell_index(1, 1, 1)));
  EXPECT_TRUE(cells.count(grid.cell_index(6, 6, 6)));
  // A far-away cell is untouched.
  EXPECT_FALSE(cells.count(grid.cell_index(1, 6, 1)));
}

TEST(ChangeDetector, CellsAreDeduplicated) {
  const VoxelGrid grid = grid8();
  // Tiny move within the same cells: footprints overlap heavily.
  const World a = world_with_sphere({2.5, 2.5, 2.5}, 0.4);
  const World b = world_with_sphere({2.6, 2.5, 2.5}, 0.4);
  const DirtyVoxels dirty = find_dirty_voxels(grid, a, b, {0});
  std::set<std::uint32_t> unique(dirty.cells.begin(), dirty.cells.end());
  EXPECT_EQ(unique.size(), dirty.cells.size());
}

TEST(ChangeDetector, DirtySetIsConservative) {
  // Every grid cell that geometrically overlaps either footprint must be in
  // the dirty set.
  const VoxelGrid grid = grid8();
  const Sphere old_s({2.0, 3.0, 4.0}, 0.9);
  const Sphere new_s({3.5, 3.0, 4.0}, 0.9);
  const World a = world_with_sphere(old_s.center(), old_s.radius());
  const World b = world_with_sphere(new_s.center(), new_s.radius());
  const DirtyVoxels dirty = find_dirty_voxels(grid, a, b, {0});
  std::set<std::uint32_t> cells(dirty.cells.begin(), dirty.cells.end());
  for (int iz = 0; iz < 8; ++iz) {
    for (int iy = 0; iy < 8; ++iy) {
      for (int ix = 0; ix < 8; ++ix) {
        const Aabb box = grid.cell_bounds(ix, iy, iz);
        if (old_s.overlaps_box(box) || new_s.overlaps_box(box)) {
          EXPECT_TRUE(cells.count(grid.cell_index(ix, iy, iz)))
              << ix << "," << iy << "," << iz;
        }
      }
    }
  }
}

TEST(ChangeDetector, MovingPlaneDirtiesEverything) {
  World a;
  World b;
  const int mat_a = a.add_material(Material::matte(Color::white()));
  const int mat_b = b.add_material(Material::matte(Color::white()));
  a.add_object(std::make_unique<Plane>(Vec3{0, 1, 0}, 1.0), mat_a, 0);
  b.add_object(std::make_unique<Plane>(Vec3{0, 1, 0}, 2.0), mat_b, 0);
  const DirtyVoxels dirty = find_dirty_voxels(grid8(), a, b, {0});
  EXPECT_TRUE(dirty.all_dirty);
}

TEST(ChangeDetector, ObjectOutsideGridContributesNothing) {
  const World a = world_with_sphere({50, 50, 50}, 1.0);
  const World b = world_with_sphere({60, 60, 60}, 1.0);
  const DirtyVoxels dirty = find_dirty_voxels(grid8(), a, b, {0});
  EXPECT_TRUE(dirty.empty());
}

TEST(ChangeDetector, MissingObjectIdIsIgnored) {
  const World a = world_with_sphere({2, 2, 2}, 0.5);
  const World b = world_with_sphere({3, 2, 2}, 0.5);
  const DirtyVoxels dirty = find_dirty_voxels(grid8(), a, b, {42});
  EXPECT_TRUE(dirty.empty());
}

TEST(AddFootprint, MatchesOverlapTests) {
  const VoxelGrid grid = grid8();
  const Sphere s({4.0, 4.0, 4.0}, 1.2);
  std::vector<std::uint32_t> cells;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(grid.cell_count()), 0);
  add_footprint(grid, s, &cells, &seen);
  std::int64_t expected = 0;
  for (int iz = 0; iz < 8; ++iz) {
    for (int iy = 0; iy < 8; ++iy) {
      for (int ix = 0; ix < 8; ++ix) {
        if (s.overlaps_box(grid.cell_bounds(ix, iy, iz))) ++expected;
      }
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(cells.size()), expected);
}

// The closed-form capsule-box distance must not move one footprint cell on
// the paper's scene: every object of the Newton cradle in every frame,
// rasterised over the coherence lattice, gives the same cell list as a
// rasterisation that decides cylinders with the ternary-search oracle.
TEST(AddFootprint, NewtonCradleMatchesOracleRasterisation) {
  const AnimatedScene scene = newton_cradle_scene();
  const CoherenceOptions options;
  const VoxelGrid grid = VoxelGrid::heuristic(
      animation_extent(scene), scene.object_count(), options.grid_density,
      options.grid_max_axis);
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(grid.cell_count()),
                                 0);
  int cylinders = 0;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    const World world = scene.world_at(frame);
    for (const WorldObject& obj : world.objects()) {
      const Primitive& prim = *obj.primitive;
      if (!prim.is_bounded()) continue;
      std::vector<std::uint32_t> cells;
      add_footprint(grid, prim, &cells, &seen);
      for (const std::uint32_t cell : cells) seen[cell] = 0;

      const auto* cylinder = prim.type() == ShapeType::kCylinder
                                 ? static_cast<const Cylinder*>(&prim)
                                 : nullptr;
      if (cylinder != nullptr) ++cylinders;
      std::vector<std::uint32_t> expected;
      int ix0, iy0, iz0, ix1, iy1, iz1;
      if (grid.cell_range(prim.bounds(), &ix0, &iy0, &iz0, &ix1, &iy1,
                          &iz1)) {
        for (int iz = iz0; iz <= iz1; ++iz) {
          for (int iy = iy0; iy <= iy1; ++iy) {
            for (int ix = ix0; ix <= ix1; ++ix) {
              const Aabb box = grid.cell_bounds(ix, iy, iz);
              if (cylinder != nullptr
                      ? oracle_cylinder_overlaps_box(*cylinder, box)
                      : prim.overlaps_box(box)) {
                expected.push_back(
                    static_cast<std::uint32_t>(grid.cell_index(ix, iy, iz)));
              }
            }
          }
        }
      }
      ASSERT_EQ(cells, expected)
          << "frame " << frame << ", object " << obj.object_id;
    }
  }
  // The paper's inventory: sixteen cylinders in every frame.
  EXPECT_EQ(cylinders, 16 * scene.frame_count());
}

}  // namespace
}  // namespace now
