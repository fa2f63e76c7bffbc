#include "src/geom/cylinder.h"

#include <algorithm>
#include <cmath>

#include "src/geom/overlap.h"

namespace now {

Cylinder::Cylinder(const Vec3& p0, const Vec3& p1, double radius)
    : p0_(p0), p1_(p1), radius_(radius), height_((p1 - p0).length()) {
  if (height_ > 0.0) axis_ = (p1_ - p0_) / height_;
  // Tight bounds of a capped cylinder: per axis, extent of the endpoints
  // expanded by r*sqrt(1 - a[axis]^2) where a is the unit axis.
  Vec3 pad{radius_, radius_, radius_};
  if (height_ > 1e-12) {
    for (int i = 0; i < 3; ++i) {
      const double s = 1.0 - axis_[i] * axis_[i];
      pad[i] = radius_ * std::sqrt(std::max(0.0, s));
    }
  }
  bounds_ = {min(p0_, p1_) - pad, max(p0_, p1_) + pad};
}

bool Cylinder::intersect(const Ray& ray, double t_min, double t_max,
                         Hit* hit) const {
  if (height_ < 1e-12) return false;
  const Vec3& a = axis_;

  // Decompose ray into components parallel/perpendicular to the axis.
  const Vec3 oc = ray.origin - p0_;
  const Vec3 d_perp = ray.direction - dot(ray.direction, a) * a;
  const Vec3 oc_perp = oc - dot(oc, a) * a;

  bool found = false;
  double best_t = t_max;
  Vec3 best_normal;

  // Lateral surface: |perp(o + t d)|^2 = r^2.
  const double qa = d_perp.length_squared();
  const double qb = 2.0 * dot(d_perp, oc_perp);
  const double qc = oc_perp.length_squared() - radius_ * radius_;
  if (qa > 1e-18) {
    const double disc = qb * qb - 4.0 * qa * qc;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      for (const double t : {(-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)}) {
        if (t <= t_min || t >= best_t) continue;
        const Vec3 p = ray.at(t);
        const double h = dot(p - p0_, a);
        if (h < 0.0 || h > height_) continue;
        best_t = t;
        best_normal = (p - (p0_ + a * h)) / radius_;
        found = true;
      }
    }
  }

  // End caps: discs at p0 (normal -a) and p1 (normal +a).
  const double denom = dot(ray.direction, a);
  if (std::fabs(denom) > 1e-12) {
    for (int cap = 0; cap < 2; ++cap) {
      const Vec3& c = cap == 0 ? p0_ : p1_;
      const Vec3 n = cap == 0 ? -a : a;
      const double t = dot(c - ray.origin, a) / denom;
      if (t <= t_min || t >= best_t) continue;
      const Vec3 p = ray.at(t);
      if ((p - c).length_squared() > radius_ * radius_) continue;
      best_t = t;
      best_normal = n;
      found = true;
    }
  }

  if (!found) return false;
  hit->t = best_t;
  hit->point = ray.at(best_t);
  hit->set_normal(ray, best_normal);
  return true;
}

bool Cylinder::overlaps_box(const Aabb& box) const {
  if (!bounds_.overlaps(box)) return false;
  return segment_box_distance(p0_, p1_, box) <= radius_ + 1e-9;
}

std::unique_ptr<Primitive> Cylinder::transformed(const Transform& t) const {
  return std::make_unique<Cylinder>(t.apply_point(p0_), t.apply_point(p1_),
                                    radius_ * t.scale);
}

std::unique_ptr<Primitive> Cylinder::clone() const {
  return std::make_unique<Cylinder>(*this);
}

}  // namespace now
