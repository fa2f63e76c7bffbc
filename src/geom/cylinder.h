#pragma once

#include "src/geom/primitive.h"

namespace now {

/// Capped cylinder between endpoints p0 and p1 with the given radius.
/// The Newton cradle's frame and strings are built from these.
class Cylinder final : public Primitive {
 public:
  Cylinder(const Vec3& p0, const Vec3& p1, double radius);

  ShapeType type() const override { return ShapeType::kCylinder; }
  bool intersect(const Ray& ray, double t_min, double t_max,
                 Hit* hit) const override;
  Aabb bounds() const override { return bounds_; }

  /// Conservative: capsule (cylinder + spherical caps) vs box. A superset of
  /// the capped cylinder, as the change detector requires.
  bool overlaps_box(const Aabb& box) const override;

  std::unique_ptr<Primitive> transformed(const Transform& t) const override;
  std::unique_ptr<Primitive> clone() const override;

  const Vec3& p0() const { return p0_; }
  const Vec3& p1() const { return p1_; }
  double radius() const { return radius_; }

 private:
  Vec3 p0_;
  Vec3 p1_;
  double radius_;
  // Derived once here rather than per intersect/overlaps_box call.
  double height_;  // |p1 - p0|
  Vec3 axis_;      // unit axis p0 -> p1; zero when degenerate
  Aabb bounds_;
};

}  // namespace now
