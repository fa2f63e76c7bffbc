// Core 3-vector and color types for the NOW renderer.
//
// Everything in the renderer is double precision: the coherence grid walks
// long ray segments through voxel space and single precision DDA stepping
// accumulates enough error to mis-mark voxels on grazing rays.
#pragma once

#include <cmath>
#include <cstdint>
#include <iosfwd>

namespace now {

/// A 3-component vector used for points, directions and offsets.
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr double operator[](int i) const { return i == 0 ? x : (i == 1 ? y : z); }
  double& operator[](int i) { return i == 0 ? x : (i == 1 ? y : z); }

  constexpr Vec3 operator-() const { return {-x, -y, -z}; }
  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator*(const Vec3& o) const { return {x * o.x, y * o.y, z * o.z}; }

  Vec3& operator+=(const Vec3& o) { x += o.x; y += o.y; z += o.z; return *this; }
  Vec3& operator-=(const Vec3& o) { x -= o.x; y -= o.y; z -= o.z; return *this; }
  Vec3& operator*=(double s) { x *= s; y *= s; z *= s; return *this; }
  Vec3& operator/=(double s) { x /= s; y /= s; z /= s; return *this; }

  constexpr bool operator==(const Vec3& o) const { return x == o.x && y == o.y && z == o.z; }
  constexpr bool operator!=(const Vec3& o) const { return !(*this == o); }

  double length() const { return std::sqrt(x * x + y * y + z * z); }
  constexpr double length_squared() const { return x * x + y * y + z * z; }

  /// Unit-length copy. Undefined for the zero vector.
  Vec3 normalized() const { return *this / length(); }

  /// True when every component is finite (no NaN/inf).
  bool is_finite() const {
    return std::isfinite(x) && std::isfinite(y) && std::isfinite(z);
  }
};

constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

constexpr double dot(const Vec3& a, const Vec3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

constexpr Vec3 cross(const Vec3& a, const Vec3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x};
}

constexpr Vec3 lerp(const Vec3& a, const Vec3& b, double t) {
  return a * (1.0 - t) + b * t;
}

constexpr Vec3 min(const Vec3& a, const Vec3& b) {
  return {a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y, a.z < b.z ? a.z : b.z};
}

constexpr Vec3 max(const Vec3& a, const Vec3& b) {
  return {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y, a.z > b.z ? a.z : b.z};
}

/// Reflect direction `v` about unit normal `n` (v points toward the surface).
inline Vec3 reflect(const Vec3& v, const Vec3& n) { return v - 2.0 * dot(v, n) * n; }

/// Refract unit direction `v` across unit normal `n` with relative index
/// `eta` (n_from / n_to). Returns false on total internal reflection.
bool refract(const Vec3& v, const Vec3& n, double eta, Vec3* out);

std::ostream& operator<<(std::ostream& os, const Vec3& v);

/// Linear-light RGB color. Components are nominally in [0,1] but may exceed 1
/// before tone clamping at framebuffer write time.
struct Color {
  double r = 0.0;
  double g = 0.0;
  double b = 0.0;

  constexpr Color() = default;
  constexpr Color(double r_, double g_, double b_) : r(r_), g(g_), b(b_) {}
  static constexpr Color black() { return {0, 0, 0}; }
  static constexpr Color white() { return {1, 1, 1}; }
  static constexpr Color gray(double v) { return {v, v, v}; }

  constexpr Color operator+(const Color& o) const { return {r + o.r, g + o.g, b + o.b}; }
  constexpr Color operator-(const Color& o) const { return {r - o.r, g - o.g, b - o.b}; }
  constexpr Color operator*(double s) const { return {r * s, g * s, b * s}; }
  constexpr Color operator*(const Color& o) const { return {r * o.r, g * o.g, b * o.b}; }
  constexpr Color operator/(double s) const { return {r / s, g / s, b / s}; }
  Color& operator+=(const Color& o) { r += o.r; g += o.g; b += o.b; return *this; }
  Color& operator*=(double s) { r *= s; g *= s; b *= s; return *this; }
  constexpr bool operator==(const Color& o) const { return r == o.r && g == o.g && b == o.b; }
  constexpr bool operator!=(const Color& o) const { return !(*this == o); }

  constexpr double max_component() const {
    return r > g ? (r > b ? r : b) : (g > b ? g : b);
  }
};

constexpr Color operator*(double s, const Color& c) { return c * s; }

constexpr Color lerp(const Color& a, const Color& b, double t) {
  return a * (1.0 - t) + b * t;
}

/// Quantize a linear component to the 8-bit value stored in TGA output.
std::uint8_t to_byte(double channel);

std::ostream& operator<<(std::ostream& os, const Color& c);

constexpr double kPi = 3.14159265358979323846;
constexpr double kTwoPi = 2.0 * kPi;

constexpr double degrees_to_radians(double deg) { return deg * kPi / 180.0; }

constexpr double clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

/// Tolerant floating comparison used by tests and geometric predicates.
inline bool nearly_equal(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) <= eps * (1.0 + std::fabs(a) + std::fabs(b));
}

}  // namespace now
