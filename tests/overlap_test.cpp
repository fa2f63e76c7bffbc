// Primitive-vs-box overlap predicates: the change detector's correctness
// rests on these being conservative (no false negatives), so each predicate
// is validated against a sampling oracle.
#include "src/geom/overlap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>

#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/geom/triangle.h"
#include "src/math/rng.h"
#include "tests/segment_box_oracle.h"

namespace now {
namespace {

TEST(PointBoxDistance, InsideIsZero) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(point_box_distance_squared({0.5, 0.5, 0.5}, box), 0.0);
  EXPECT_DOUBLE_EQ(point_box_distance_squared({0, 0, 0}, box), 0.0);
}

TEST(PointBoxDistance, OutsideAxisAndCorner) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(point_box_distance_squared({2, 0.5, 0.5}, box), 1.0);
  EXPECT_DOUBLE_EQ(point_box_distance_squared({2, 2, 2}, box), 3.0);
}

TEST(SegmentBoxDistance, IntersectingSegmentIsZero) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_NEAR(segment_box_distance({-1, 0.5, 0.5}, {2, 0.5, 0.5}, box), 0.0,
              1e-9);
}

TEST(SegmentBoxDistance, ParallelSegment) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_NEAR(segment_box_distance({-1, 3, 0.5}, {2, 3, 0.5}, box), 2.0, 1e-6);
}

TEST(SegmentBoxDistance, EndpointNearest) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  // Segment pointing away: nearest point is the endpoint at (2, 0.5, 0.5).
  EXPECT_NEAR(segment_box_distance({2, 0.5, 0.5}, {5, 0.5, 0.5}, box), 1.0,
              1e-6);
}

// -- Closed form vs the ternary-search oracle -------------------------------
//
// Over seeded segment/box/radius triples the closed form must make the same
// footprint decision (distance <= r + 1e-9) as the oracle and never return
// more than it: the oracle evaluates a point on the segment, so it can only
// overestimate the true minimum.

::testing::AssertionResult agrees_with_oracle(const Vec3& a, const Vec3& b,
                                              const Aabb& box, double r) {
  const double closed = segment_box_distance(a, b, box);
  const double oracle = ternary_segment_box_distance(a, b, box);
  if ((closed <= r + 1e-9) == (oracle <= r + 1e-9) &&
      closed <= oracle + 1e-12) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::setprecision(17) << "segment " << a << " -> " << b
         << ", box " << box.lo << " .. " << box.hi << ", r " << r
         << ": closed " << closed << " vs oracle " << oracle;
}

Aabb random_box(Rng& rng) {
  const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
  return {lo, lo + rng.point_in_box({0.05, 0.05, 0.05}, {2, 2, 2})};
}

// One box face value on `axis`, picked at random.
double random_face(Rng& rng, const Aabb& box, int axis) {
  return rng.next_below(2) == 0 ? box.lo[axis] : box.hi[axis];
}

TEST(SegmentBoxOracle, RandomSegments) {
  Rng rng(0x5e6b0c);
  for (int iter = 0; iter < 400000; ++iter) {
    const Aabb box = random_box(rng);
    const Vec3 a = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    const Vec3 b = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    ASSERT_TRUE(agrees_with_oracle(a, b, box, rng.uniform(0.0, 1.0)))
        << "iter " << iter;
  }
}

// The cradle's legs, rails and resting strings run along one axis. Some
// segments also sit exactly on a face value across the axis.
TEST(SegmentBoxOracle, AxisParallelSegments) {
  Rng rng(0xa1150);
  for (int iter = 0; iter < 200000; ++iter) {
    const Aabb box = random_box(rng);
    const int axis = static_cast<int>(rng.next_below(3));
    Vec3 a = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    if (rng.next_below(4) == 0) {
      const int across = (axis + 1 + static_cast<int>(rng.next_below(2))) % 3;
      a[across] = random_face(rng, box, across);
    }
    Vec3 b = a;
    b[axis] += rng.uniform(-3.0, 3.0);
    ASSERT_TRUE(agrees_with_oracle(a, b, box, rng.uniform(0.0, 1.0)))
        << "iter " << iter;
  }
}

TEST(SegmentBoxOracle, ZeroLengthSegments) {
  Rng rng(0x2e60);
  for (int iter = 0; iter < 200000; ++iter) {
    const Aabb box = random_box(rng);
    const Vec3 a = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    ASSERT_TRUE(agrees_with_oracle(a, a, box, rng.uniform(0.0, 1.0)))
        << "iter " << iter;
    // A point: the distance is exactly the point-box distance.
    ASSERT_EQ(segment_box_distance(a, a, box),
              std::sqrt(point_box_distance_squared(a, box)));
  }
}

TEST(SegmentBoxOracle, SegmentsInAFacePlane) {
  Rng rng(0xface);
  for (int iter = 0; iter < 200000; ++iter) {
    const Aabb box = random_box(rng);
    const int axis = static_cast<int>(rng.next_below(3));
    Vec3 a = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    Vec3 b = rng.point_in_box({-3, -3, -3}, {3, 3, 3});
    a[axis] = b[axis] = random_face(rng, box, axis);
    const double r = rng.next_below(2) == 0 ? 0.0 : rng.uniform(0.0, 1.0);
    ASSERT_TRUE(agrees_with_oracle(a, b, box, r)) << "iter " << iter;
  }
}

// Segments that touch the box at exactly one point of an edge or at a
// corner, either at an endpoint or in their interior: distance 0, so even
// r = 0 must count as overlap.
TEST(SegmentBoxOracle, SegmentsTouchingAnEdgeOrCorner) {
  Rng rng(0xc0e7);
  for (int iter = 0; iter < 200000; ++iter) {
    const Aabb box = random_box(rng);
    const bool corner = rng.next_below(2) == 0;
    const int free_axis = corner ? -1 : static_cast<int>(rng.next_below(3));
    Vec3 touch;
    Vec3 out;  // +1 / -1: the outward direction on each clamped axis
    for (int axis = 0; axis < 3; ++axis) {
      if (axis == free_axis) {
        touch[axis] = rng.uniform(box.lo[axis], box.hi[axis]);
        continue;
      }
      const bool high = rng.next_below(2) == 0;
      touch[axis] = high ? box.hi[axis] : box.lo[axis];
      out[axis] = high ? 1.0 : -1.0;
    }
    const int c0 = free_axis == 0 ? 1 : 0;       // first clamped axis
    const int c1 = free_axis == 2 ? 1 : 2;       // a second clamped axis
    Vec3 a;
    Vec3 b;
    if (rng.next_below(2) == 0) {
      // Endpoint touch: leave outward on every clamped axis.
      Vec3 w = rng.point_in_box({0, 0, 0}, {2, 2, 2});
      for (int axis = 0; axis < 3; ++axis) {
        w[axis] = axis == free_axis ? rng.uniform(-2.0, 2.0)
                                    : w[axis] * out[axis];
      }
      a = touch;
      b = touch + w;
    } else {
      // Interior touch: one half leaves through c0, the other through c1.
      Vec3 u = rng.point_in_box({-2, -2, -2}, {2, 2, 2});
      u[c0] = out[c0] * rng.uniform(0.01, 2.0);
      u[c1] = -out[c1] * rng.uniform(0.01, 2.0);
      a = touch + u;
      b = touch - u;
    }
    const double r = rng.next_below(2) == 0 ? 0.0 : rng.uniform(0.0, 0.1);
    ASSERT_TRUE(agrees_with_oracle(a, b, box, r)) << "iter " << iter;
    ASSERT_LE(segment_box_distance(a, b, box), 1e-9) << "iter " << iter;
  }
}

TEST(PlaneOverlap, Basics) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(plane_overlaps_box({0, 1, 0}, 0.5, box));
  EXPECT_TRUE(plane_overlaps_box({0, 1, 0}, 0.0, box));   // touching face
  EXPECT_FALSE(plane_overlaps_box({0, 1, 0}, 1.5, box));
  EXPECT_FALSE(plane_overlaps_box({0, 1, 0}, -0.5, box));
  // Diagonal plane through the corner region.
  const Vec3 n = Vec3(1, 1, 1).normalized();
  EXPECT_TRUE(plane_overlaps_box(n, 0.5, box));
  EXPECT_FALSE(plane_overlaps_box(n, 10.0, box));
}

TEST(TriangleOverlap, ContainedAndDisjoint) {
  const Aabb box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(triangle_overlaps_box({0.5, 0.5, 1}, {1.5, 0.5, 1},
                                    {1, 1.5, 1}, box));
  EXPECT_FALSE(triangle_overlaps_box({5, 5, 5}, {6, 5, 5}, {5, 6, 5}, box));
}

TEST(TriangleOverlap, PiercingTriangle) {
  // Large triangle whose plane slices the box but whose vertices are all
  // outside: must still report overlap.
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_TRUE(triangle_overlaps_box({-5, 0.5, -5}, {5, 0.5, -5},
                                    {0, 0.5, 10}, box));
}

TEST(TriangleOverlap, NearMissAboveFace) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  EXPECT_FALSE(triangle_overlaps_box({-5, 1.01, -5}, {5, 1.01, -5},
                                     {0, 1.01, 10}, box));
}

TEST(OrientedBoxOverlap, AxisAlignedCases) {
  const Aabb box{{0, 0, 0}, {2, 2, 2}};
  EXPECT_TRUE(oriented_box_overlaps_box({1, 1, 1}, Mat3::identity(),
                                        {0.5, 0.5, 0.5}, box));
  EXPECT_FALSE(oriented_box_overlaps_box({5, 1, 1}, Mat3::identity(),
                                         {0.5, 0.5, 0.5}, box));
  // Touching exactly at a face.
  EXPECT_TRUE(oriented_box_overlaps_box({2.5, 1, 1}, Mat3::identity(),
                                        {0.5, 0.5, 0.5}, box));
}

TEST(OrientedBoxOverlap, RotationMatters) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  // A slab rotated 45° about z reaches down into the box corner that the
  // axis-aligned version misses (its long axis points at the corner).
  const Vec3 center{1.7, 1.7, 0.5};
  const Vec3 half{1.0, 0.1, 0.4};
  EXPECT_FALSE(oriented_box_overlaps_box(center, Mat3::identity(), half, box));
  EXPECT_TRUE(oriented_box_overlaps_box(center, Mat3::rotation_z(kPi / 4),
                                        half, box));
}

// Sampling oracle: predicates must never report "no overlap" when random
// point sampling finds a shared point (conservativeness).
TEST(OverlapOracle, SphereNeverFalseNegative) {
  Rng rng(31);
  for (int iter = 0; iter < 300; ++iter) {
    const Sphere s(rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                   rng.uniform(0.2, 1.0));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (s.overlaps_box(box)) continue;  // claims overlap: fine either way
    // Claims disjoint: no sampled box point may be inside the sphere.
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      ASSERT_GT((p - s.center()).length(), s.radius())
          << "false negative at iter " << iter;
    }
  }
}

TEST(OverlapOracle, CylinderNeverFalseNegative) {
  Rng rng(32);
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 p0 = rng.point_in_box({-2, -2, -2}, {2, 2, 2});
    const Cylinder c(p0, p0 + rng.unit_vector() * rng.uniform(0.5, 2.0),
                     rng.uniform(0.1, 0.6));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (c.overlaps_box(box)) continue;
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      Hit h;
      // Point-in-cylinder test via projection.
      const Vec3 axis = c.p1() - c.p0();
      const double len = axis.length();
      const Vec3 a = axis / len;
      const double t = dot(p - c.p0(), a);
      const bool inside = t >= 0 && t <= len &&
                          (p - (c.p0() + a * t)).length() <= c.radius();
      ASSERT_FALSE(inside) << "false negative at iter " << iter;
    }
  }
}

TEST(OverlapOracle, OrientedBoxNeverFalseNegative) {
  Rng rng(33);
  for (int iter = 0; iter < 200; ++iter) {
    const Box obb(rng.point_in_box({-2, -2, -2}, {2, 2, 2}),
                  rng.point_in_box({0.1, 0.1, 0.1}, {1, 1, 1}),
                  Mat3::axis_angle(rng.unit_vector(), rng.uniform(0, kTwoPi)));
    const Vec3 lo = rng.point_in_box({-2, -2, -2}, {1, 1, 1});
    const Aabb box{lo, lo + rng.point_in_box({0.2, 0.2, 0.2}, {2, 2, 2})};
    if (obb.overlaps_box(box)) continue;
    const Mat3 inv = obb.rotation().transposed();
    for (int i = 0; i < 200; ++i) {
      const Vec3 p = rng.point_in_box(box.lo, box.hi);
      const Vec3 local = inv * (p - obb.center());
      const bool inside = std::fabs(local.x) <= obb.half_extents().x &&
                          std::fabs(local.y) <= obb.half_extents().y &&
                          std::fabs(local.z) <= obb.half_extents().z;
      ASSERT_FALSE(inside) << "false negative at iter " << iter;
    }
  }
}

}  // namespace
}  // namespace now
