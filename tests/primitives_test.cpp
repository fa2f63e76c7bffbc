#include <gtest/gtest.h>

#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/disc.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/geom/triangle.h"
#include "src/math/rng.h"

namespace now {
namespace {

TEST(Sphere, HitFromOutside) {
  const Sphere s({0, 0, 0}, 1.0);
  Hit hit;
  ASSERT_TRUE(s.intersect({{0, 0, 5}, {0, 0, -1}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 4.0, 1e-12);
  EXPECT_NEAR(hit.normal.z, 1.0, 1e-12);
  EXPECT_TRUE(hit.front_face);
}

TEST(Sphere, HitFromInside) {
  const Sphere s({0, 0, 0}, 1.0);
  Hit hit;
  ASSERT_TRUE(s.intersect({{0, 0, 0}, {0, 0, -1}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 1.0, 1e-12);
  EXPECT_FALSE(hit.front_face);
  // Normal opposes the ray direction.
  EXPECT_GT(dot(hit.normal, Vec3(0, 0, 1)), 0.0);
}

TEST(Sphere, MissAndRange) {
  const Sphere s({0, 0, 0}, 1.0);
  Hit hit;
  EXPECT_FALSE(s.intersect({{0, 3, 5}, {0, 0, -1}}, 1e-9, 1e9, &hit));
  // Hit exists at t=4 but range excludes it.
  EXPECT_FALSE(s.intersect({{0, 0, 5}, {0, 0, -1}}, 1e-9, 3.0, &hit));
  EXPECT_FALSE(s.intersect({{0, 0, 5}, {0, 0, -1}}, 6.01, 1e9, &hit));
}

TEST(Sphere, BoundsAndTransform) {
  const Sphere s({1, 2, 3}, 0.5);
  const Aabb b = s.bounds();
  EXPECT_EQ(b.lo, Vec3(0.5, 1.5, 2.5));
  EXPECT_EQ(b.hi, Vec3(1.5, 2.5, 3.5));

  Transform t = Transform::translate({1, 0, 0});
  t.scale = 2.0;
  auto moved = s.transformed(t);
  const auto* ms = dynamic_cast<const Sphere*>(moved.get());
  ASSERT_NE(ms, nullptr);
  EXPECT_DOUBLE_EQ(ms->radius(), 1.0);
  EXPECT_EQ(ms->center(), Vec3(3, 4, 6));
}

TEST(Plane, HitAndParallelMiss) {
  const Plane p({0, 1, 0}, 0.0);  // y = 0
  Hit hit;
  ASSERT_TRUE(p.intersect({{0, 2, 0}, {0, -1, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 2.0, 1e-12);
  EXPECT_NEAR(hit.normal.y, 1.0, 1e-12);
  // Parallel ray misses.
  EXPECT_FALSE(p.intersect({{0, 2, 0}, {1, 0, 0}}, 1e-9, 1e9, &hit));
}

TEST(Plane, Through) {
  const Plane p = Plane::through({0, 3, 0}, {0, 2, 0});
  EXPECT_NEAR(p.d(), 3.0, 1e-12);
  EXPECT_NEAR(p.normal().length(), 1.0, 1e-12);
}

TEST(Plane, IsUnbounded) {
  const Plane p({0, 1, 0}, 0.0);
  EXPECT_FALSE(p.is_bounded());
  EXPECT_TRUE(p.bounds().empty());
}

TEST(Plane, TransformedKeepsGeometry) {
  const Plane p({0, 1, 0}, 1.0);  // y = 1
  const Transform t = Transform::translate({0, 2, 0});
  auto moved = p.transformed(t);
  Hit hit;
  // Plane should now be y = 3.
  ASSERT_TRUE(moved->intersect({{0, 5, 0}, {0, -1, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 2.0, 1e-12);
}

TEST(Box, AxisAlignedHit) {
  const Box b = Box::from_corners({-1, -1, -1}, {1, 1, 1});
  Hit hit;
  ASSERT_TRUE(b.intersect({{5, 0, 0}, {-1, 0, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 4.0, 1e-12);
  EXPECT_NEAR(hit.normal.x, 1.0, 1e-12);
}

TEST(Box, InsideHitReportsExitFace) {
  const Box b = Box::from_corners({-1, -1, -1}, {1, 1, 1});
  Hit hit;
  ASSERT_TRUE(b.intersect({{0, 0, 0}, {0, 1, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 1.0, 1e-12);
  EXPECT_FALSE(hit.front_face);
}

TEST(Box, RotatedHit) {
  // 45-degree rotated box: a ray along x hits the edge-on corner closer
  // than the unrotated half-extent.
  const Box b({0, 0, 0}, {1, 1, 1}, Mat3::rotation_y(kPi / 4));
  Hit hit;
  ASSERT_TRUE(b.intersect({{5, 0, 0}, {-1, 0, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 5.0 - std::sqrt(2.0), 1e-9);
}

TEST(Box, BoundsCoverRotation) {
  const Box b({0, 0, 0}, {1, 1, 1}, Mat3::rotation_z(kPi / 4));
  const Aabb bounds = b.bounds();
  EXPECT_NEAR(bounds.hi.x, std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(bounds.hi.y, std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(bounds.hi.z, 1.0, 1e-9);
}

TEST(Cylinder, LateralHit) {
  const Cylinder c({0, 0, 0}, {0, 2, 0}, 0.5);
  Hit hit;
  ASSERT_TRUE(c.intersect({{5, 1, 0}, {-1, 0, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 4.5, 1e-12);
  EXPECT_NEAR(hit.normal.x, 1.0, 1e-12);
}

TEST(Cylinder, CapHit) {
  const Cylinder c({0, 0, 0}, {0, 2, 0}, 0.5);
  Hit hit;
  ASSERT_TRUE(c.intersect({{0.2, 5, 0}, {0, -1, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 3.0, 1e-12);
  EXPECT_NEAR(hit.normal.y, 1.0, 1e-12);
}

TEST(Cylinder, MissesBeyondCaps) {
  const Cylinder c({0, 0, 0}, {0, 2, 0}, 0.5);
  Hit hit;
  // Ray passes the infinite cylinder but above the cap.
  EXPECT_FALSE(c.intersect({{5, 3, 0}, {-1, 0, 0}}, 1e-9, 1e9, &hit));
}

TEST(Cylinder, TightBounds) {
  const Cylinder c({0, 0, 0}, {0, 2, 0}, 0.5);
  const Aabb b = c.bounds();
  EXPECT_NEAR(b.lo.x, -0.5, 1e-9);
  EXPECT_NEAR(b.hi.x, 0.5, 1e-9);
  EXPECT_NEAR(b.lo.y, 0.0, 1e-9);   // axis-aligned: no radial pad along axis
  EXPECT_NEAR(b.hi.y, 2.0, 1e-9);
}

TEST(Cylinder, DiagonalBoundsAreTight) {
  const Cylinder c({0, 0, 0}, {1, 1, 0}, 0.1);
  const Aabb b = c.bounds();
  // Radial pad along x/y is r/sqrt(2), full r along z.
  EXPECT_NEAR(b.hi.z, 0.1, 1e-9);
  EXPECT_NEAR(b.hi.x, 1.0 + 0.1 / std::sqrt(2.0), 1e-9);
}

// A cylinder derives its unit axis, height and bounds once, at
// construction. One reached through transformed() or clone() must answer
// exactly like one built directly from the same endpoints.
TEST(Cylinder, TransformedAndClonedMatchDirectConstruction) {
  const Cylinder source({0.1, -0.3, 0.2}, {0.7, 1.4, -0.5}, 0.25);
  const Transform t{Mat3::axis_angle(Vec3(1, 2, 3).normalized(), 0.7),
                    {0.5, -1.0, 2.0}, 1.5};
  const auto moved = source.transformed(t);
  const Cylinder direct(t.apply_point(source.p0()), t.apply_point(source.p1()),
                        source.radius() * t.scale);
  const auto copy = direct.clone();
  const Aabb box = direct.bounds();
  Rng rng(11);
  int hits = 0;
  for (const Primitive* derived : {moved.get(), copy.get()}) {
    EXPECT_EQ(derived->bounds(), box);
    for (int i = 0; i < 500; ++i) {
      // Aim at points near the cylinder so most rays hit it.
      const Vec3 origin = rng.point_in_box(box.lo - Vec3{3, 3, 3},
                                           box.hi + Vec3{3, 3, 3});
      const Vec3 target = rng.point_in_box(box.lo, box.hi);
      const Ray ray{origin, (target - origin).normalized()};
      Hit h_direct, h_derived;
      const bool f_direct = direct.intersect(ray, 1e-9, 1e9, &h_direct);
      ASSERT_EQ(derived->intersect(ray, 1e-9, 1e9, &h_derived), f_direct);
      if (!f_direct) continue;
      ++hits;
      EXPECT_EQ(h_derived.t, h_direct.t);
      EXPECT_EQ(h_derived.point, h_direct.point);
      EXPECT_EQ(h_derived.normal, h_direct.normal);
      EXPECT_EQ(h_derived.front_face, h_direct.front_face);
    }
  }
  EXPECT_GT(hits, 100);
}

TEST(Cylinder, ZeroLengthNeverHits) {
  const Cylinder c({1, 1, 1}, {1, 1, 1}, 0.5);
  const auto moved = c.transformed(Transform::translate({0, 2, 0}));
  const auto copy = c.clone();
  EXPECT_EQ(c.bounds(), Aabb({0.5, 0.5, 0.5}, {1.5, 1.5, 1.5}));
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    const Vec3 dir = rng.unit_vector();
    Hit hit;
    // Rays straight through each cylinder's (degenerate) centre.
    EXPECT_FALSE(c.intersect({Vec3{1, 1, 1} - dir * 3.0, dir}, 1e-9, 1e9,
                             &hit));
    EXPECT_FALSE(copy->intersect({Vec3{1, 1, 1} - dir * 3.0, dir}, 1e-9, 1e9,
                                 &hit));
    EXPECT_FALSE(moved->intersect({Vec3{1, 3, 1} - dir * 3.0, dir}, 1e-9,
                                  1e9, &hit));
  }
}

TEST(Disc, HitAndRadiusMiss) {
  const Disc d({0, 1, 0}, {0, 1, 0}, 0.5);
  Hit hit;
  ASSERT_TRUE(d.intersect({{0.3, 3, 0}, {0, -1, 0}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 2.0, 1e-12);
  EXPECT_FALSE(d.intersect({{0.6, 3, 0}, {0, -1, 0}}, 1e-9, 1e9, &hit));
}

TEST(Triangle, HitInsideMissOutside) {
  const Triangle tri({0, 0, 0}, {1, 0, 0}, {0, 1, 0});
  Hit hit;
  ASSERT_TRUE(tri.intersect({{0.2, 0.2, 5}, {0, 0, -1}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 5.0, 1e-12);
  EXPECT_FALSE(tri.intersect({{0.9, 0.9, 5}, {0, 0, -1}}, 1e-9, 1e9, &hit));
}

TEST(Mesh, BehavesLikeItsTriangles) {
  // A quad out of two triangles.
  std::vector<Vec3> verts = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  std::vector<int> idx = {0, 1, 2, 0, 2, 3};
  const Mesh mesh(verts, idx);
  EXPECT_EQ(mesh.triangle_count(), 2);
  Hit hit;
  ASSERT_TRUE(mesh.intersect({{0.5, 0.5, 3}, {0, 0, -1}}, 1e-9, 1e9, &hit));
  EXPECT_NEAR(hit.t, 3.0, 1e-12);
  EXPECT_FALSE(mesh.intersect({{1.5, 0.5, 3}, {0, 0, -1}}, 1e-9, 1e9, &hit));
}

TEST(Mesh, BvhMatchesBruteForceOnRandomRays) {
  // Random triangle soup; compare BVH mesh hits against per-triangle tests.
  Rng rng(21);
  std::vector<Vec3> verts;
  std::vector<int> idx;
  std::vector<Triangle> tris;
  for (int i = 0; i < 60; ++i) {
    const Vec3 a = rng.point_in_box({-2, -2, -2}, {2, 2, 2});
    const Vec3 b = a + rng.unit_vector() * 0.7;
    const Vec3 c = a + rng.unit_vector() * 0.7;
    verts.push_back(a);
    verts.push_back(b);
    verts.push_back(c);
    idx.push_back(3 * i);
    idx.push_back(3 * i + 1);
    idx.push_back(3 * i + 2);
    tris.emplace_back(a, b, c);
  }
  const Mesh mesh(verts, idx);
  for (int i = 0; i < 300; ++i) {
    const Ray ray{rng.point_in_box({-4, -4, -4}, {4, 4, 4}),
                  rng.unit_vector()};
    Hit mesh_hit;
    const bool mesh_found = mesh.intersect(ray, 1e-9, 1e9, &mesh_hit);
    Hit best;
    bool found = false;
    for (const Triangle& tri : tris) {
      Hit h;
      if (tri.intersect(ray, 1e-9, found ? best.t : 1e9, &h)) {
        best = h;
        found = true;
      }
    }
    ASSERT_EQ(mesh_found, found) << "ray " << i;
    if (found) {
      EXPECT_NEAR(mesh_hit.t, best.t, 1e-9) << "ray " << i;
    }
  }
}

TEST(AllPrimitives, CloneMatchesOriginal) {
  std::vector<std::unique_ptr<Primitive>> prims;
  prims.push_back(std::make_unique<Sphere>(Vec3{1, 0, 0}, 0.5));
  prims.push_back(std::make_unique<Plane>(Vec3{0, 1, 0}, 2.0));
  prims.push_back(std::make_unique<Box>(Box::from_corners({0, 0, 0}, {1, 2, 1})));
  prims.push_back(std::make_unique<Cylinder>(Vec3{0, 0, 0}, Vec3{0, 1, 0}, 0.3));
  prims.push_back(std::make_unique<Disc>(Vec3{0, 0, 0}, Vec3{0, 0, 1}, 1.0));
  prims.push_back(std::make_unique<Triangle>(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}));

  Rng rng(5);
  for (const auto& prim : prims) {
    const auto copy = prim->clone();
    EXPECT_EQ(copy->type(), prim->type());
    for (int i = 0; i < 50; ++i) {
      const Ray ray{rng.point_in_box({-3, -3, -3}, {3, 3, 3}),
                    rng.unit_vector()};
      Hit h1, h2;
      const bool f1 = prim->intersect(ray, 1e-9, 1e9, &h1);
      const bool f2 = copy->intersect(ray, 1e-9, 1e9, &h2);
      ASSERT_EQ(f1, f2) << to_string(prim->type());
      if (f1) {
        EXPECT_DOUBLE_EQ(h1.t, h2.t);
      }
    }
  }
}

TEST(ShapeType, Names) {
  EXPECT_STREQ(to_string(ShapeType::kSphere), "sphere");
  EXPECT_STREQ(to_string(ShapeType::kMesh), "mesh");
}

}  // namespace
}  // namespace now
