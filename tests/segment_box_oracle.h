// Test-only reference for segment_box_distance: a 64-step ternary search on
// the convex distance-along-segment function (129 point–box evaluations).
// The library's closed form must agree with it on every footprint decision
// and never exceed it.
#pragma once

#include <cmath>

#include "src/geom/cylinder.h"
#include "src/geom/overlap.h"

namespace now {

inline double ternary_segment_box_distance(const Vec3& a, const Vec3& b,
                                           const Aabb& box) {
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    const double d1 = point_box_distance_squared(lerp(a, b, m1), box);
    const double d2 = point_box_distance_squared(lerp(a, b, m2), box);
    if (d1 < d2) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  const double t = 0.5 * (lo + hi);
  return std::sqrt(point_box_distance_squared(lerp(a, b, t), box));
}

/// Cylinder::overlaps_box with the oracle distance in place of the closed
/// form.
inline bool oracle_cylinder_overlaps_box(const Cylinder& c, const Aabb& box) {
  if (!c.bounds().overlaps(box)) return false;
  return ternary_segment_box_distance(c.p0(), c.p1(), box) <=
         c.radius() + 1e-9;
}

}  // namespace now
