#include "src/scene/builtin_scenes.h"

#include <cmath>

#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/disc.h"
#include "src/geom/triangle.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"

namespace now {
namespace {

/// Angle schedule of an ideal Newton cradle: the left end marble is released
/// from -A, reaches bottom after a quarter period, then the impact energy
/// alternates between the right marble (out and back, half a period) and the
/// left (same). All angles are exactly 0 while a marble rests, so resting
/// marbles produce identity transforms and stay coherent.
struct CradleSchedule {
  double amplitude;  // radians
  double period;     // seconds

  double omega() const { return kTwoPi / period; }

  double left_angle(double t) const {
    const double t0 = period / 4.0;
    if (t < t0) return -amplitude * std::cos(omega() * t);
    const double v = std::fmod(t - t0, period);
    if (v < period / 2.0) return 0.0;  // right marble is swinging
    return -amplitude * std::sin(omega() * (v - period / 2.0));
  }

  double right_angle(double t) const {
    const double t0 = period / 4.0;
    if (t < t0) return 0.0;
    const double v = std::fmod(t - t0, period);
    if (v < period / 2.0) return amplitude * std::sin(omega() * v);
    return 0.0;
  }
};

}  // namespace

AnimatedScene newton_cradle_scene(const CradleParams& params) {
  AnimatedScene scene;
  scene.set_frames(params.frames, params.fps);
  scene.set_resolution(params.width, params.height);
  scene.set_background(Color{0.04, 0.045, 0.07});

  // Geometry layout (meters).
  constexpr double kBallRadius = 0.28;
  constexpr double kBallY = 1.2;       // resting marble center height
  constexpr double kRailY = 2.4;       // string attachment height
  constexpr double kRailZ = 0.5;       // rail half separation
  constexpr double kFrameX = 1.9;      // leg x position
  constexpr int kBallCount = 5;
  // Floor, 6 frame members, and per marble a sphere and two strings.
  scene.reserve_objects(1 + 6 + 3 * kBallCount);

  const CradleSchedule schedule{degrees_to_radians(params.amplitude_degrees),
                                params.period_seconds};

  // Materials.
  const int chrome = scene.add_material(Material::chrome());
  Material wood = Material::textured(std::make_shared<MarbleTexture>(
      Color{0.45, 0.26, 0.12}, Color{0.3, 0.16, 0.07}, 3.0, 1.5));
  wood.specular = 0.15;
  const int frame_mat = scene.add_material(wood);
  Material string_m = Material::matte(Color{0.75, 0.75, 0.7});
  const int string_mat = scene.add_material(string_m);
  Material floor_m = Material::textured(std::make_shared<CheckerTexture>(
      Color{0.55, 0.55, 0.6}, Color{0.2, 0.2, 0.25}, 0.8));
  floor_m.reflectivity = 0.15;  // glossy floor multiplies reflective load
  const int floor_mat = scene.add_material(floor_m);

  // The single plane: the floor.
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0),
                   floor_mat);

  // Frame: 4 legs + 2 rails (6 cylinders).
  for (const double sx : {-1.0, 1.0}) {
    for (const double sz : {-1.0, 1.0}) {
      scene.add_object(
          "leg", std::make_unique<Cylinder>(Vec3{sx * kFrameX, 0, sz * kRailZ},
                                            Vec3{sx * kFrameX, kRailY, sz * kRailZ},
                                            0.06),
          frame_mat);
    }
  }
  for (const double sz : {-1.0, 1.0}) {
    scene.add_object(
        "rail", std::make_unique<Cylinder>(Vec3{-kFrameX, kRailY, sz * kRailZ},
                                           Vec3{kFrameX, kRailY, sz * kRailZ},
                                           0.05),
        frame_mat);
  }

  // Marbles and strings (5 spheres + 10 cylinders).
  for (int i = 0; i < kBallCount; ++i) {
    const double x = (i - (kBallCount - 1) / 2.0) * 2.0 * kBallRadius;
    const bool is_left = (i == 0);
    const bool is_right = (i == kBallCount - 1);

    PivotRotationAnimator::AngleFn angle;
    if (is_left) {
      angle = [schedule](double t) { return schedule.left_angle(t); };
    } else if (is_right) {
      angle = [schedule](double t) { return schedule.right_angle(t); };
    }

    const Vec3 rest_center{x, kBallY, 0};
    std::unique_ptr<Animator> ball_anim;
    if (angle) {
      ball_anim = std::make_unique<PivotRotationAnimator>(
          Vec3{x, kRailY, 0}, Vec3{0, 0, 1}, angle);
    }
    scene.add_object("marble" + std::to_string(i),
                     std::make_unique<Sphere>(rest_center, kBallRadius),
                     chrome, std::move(ball_anim));

    for (const double sz : {-1.0, 1.0}) {
      const Vec3 attach{x, kRailY, sz * kRailZ};
      std::unique_ptr<Animator> string_anim;
      if (angle) {
        // Strings pivot rigidly about their own rail attachment; the
        // rotation is the same z-axis rotation as the marble's.
        string_anim = std::make_unique<PivotRotationAnimator>(
            attach, Vec3{0, 0, 1}, angle);
      }
      scene.add_object("string" + std::to_string(i),
                       std::make_unique<Cylinder>(attach, rest_center, 0.012),
                       string_mat, std::move(string_anim));
    }
  }

  // Lights: a key and a fill so the chrome marbles carry strong highlights
  // and the floor carries shadows (expensive pixels, per Section 4).
  scene.add_light(Light::point({3.0, 4.5, 3.5}, Color{1.0, 0.97, 0.9}, 0.85));
  scene.add_light(Light::point({-2.5, 3.5, 2.0}, Color{0.5, 0.55, 0.7}, 0.5));

  scene.set_camera(Camera{{0.0, 2.0, 5.2},
                          {0.0, 1.35, 0.0},
                          {0, 1, 0},
                          36.0,
                          static_cast<double>(params.width) / params.height});
  return scene;
}

AnimatedScene bouncing_ball_scene(const BounceParams& params) {
  AnimatedScene scene;
  scene.set_frames(params.frames, params.fps);
  scene.set_resolution(params.width, params.height);
  scene.set_background(Color{0.02, 0.02, 0.03});

  // Room: brick walls, checker floor, plain ceiling. Camera looks down the
  // room from near the (open) front face.
  constexpr double kHalfX = 2.5;
  constexpr double kBackZ = -2.5;
  constexpr double kCeilY = 4.0;
  constexpr double kBallR = 0.45;

  Material brick = Material::textured(std::make_shared<BrickTexture>(
      Color{0.55, 0.22, 0.16}, Color{0.65, 0.63, 0.58}, 0.6, 0.25, 0.03));
  const int brick_mat = scene.add_material(brick);
  Material floor_m = Material::textured(std::make_shared<CheckerTexture>(
      Color{0.6, 0.58, 0.5}, Color{0.3, 0.28, 0.25}, 0.7));
  const int floor_mat = scene.add_material(floor_m);
  const int ceil_mat = scene.add_material(Material::matte(Color{0.7, 0.7, 0.68}));
  const int glass_mat = scene.add_material(Material::glass(1.5));

  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0),
                   floor_mat);
  scene.add_object("ceiling", std::make_unique<Plane>(Vec3{0, -1, 0}, -kCeilY),
                   ceil_mat);
  scene.add_object("back", std::make_unique<Plane>(Vec3{0, 0, 1}, kBackZ),
                   brick_mat);
  scene.add_object("left", std::make_unique<Plane>(Vec3{1, 0, 0}, -kHalfX),
                   brick_mat);
  scene.add_object("right", std::make_unique<Plane>(Vec3{-1, 0, 0}, -kHalfX),
                   brick_mat);

  // Simulate the bounce at fine timesteps and keyframe every frame. The
  // sphere is authored at the origin; the keyframe animator translates it.
  Spline path(InterpMode::kLinear);
  {
    Rng rng(params.seed);
    Vec3 pos{-1.2, 2.6, -0.8};
    Vec3 vel{1.4 + rng.uniform(-0.2, 0.2), 0.0, 1.1 + rng.uniform(-0.2, 0.2)};
    constexpr double kG = 9.81;
    const double frame_dt = 1.0 / params.fps;
    constexpr int kSubsteps = 40;
    for (int frame = 0; frame < params.frames; ++frame) {
      path.add_key(frame * frame_dt, pos);
      for (int s = 0; s < kSubsteps; ++s) {
        const double dt = frame_dt / kSubsteps;
        vel.y -= kG * dt;
        pos += vel * dt;
        if (pos.y < kBallR) {
          pos.y = kBallR + (kBallR - pos.y);
          vel.y = -vel.y * params.restitution;
        }
        if (pos.x < -kHalfX + kBallR) {
          pos.x = 2 * (-kHalfX + kBallR) - pos.x;
          vel.x = -vel.x * params.restitution;
        }
        if (pos.x > kHalfX - kBallR) {
          pos.x = 2 * (kHalfX - kBallR) - pos.x;
          vel.x = -vel.x * params.restitution;
        }
        if (pos.z < kBackZ + kBallR) {
          pos.z = 2 * (kBackZ + kBallR) - pos.z;
          vel.z = -vel.z * params.restitution;
        }
        if (pos.z > 1.5 - kBallR) {  // invisible front wall keeps it in view
          pos.z = 2 * (1.5 - kBallR) - pos.z;
          vel.z = -vel.z * params.restitution;
        }
      }
    }
  }
  scene.add_object("ball", std::make_unique<Sphere>(Vec3{0, 0, 0}, kBallR),
                   glass_mat, std::make_unique<KeyframeAnimator>(std::move(path)));

  scene.add_light(Light::point({1.5, 3.6, 1.0}, Color{1.0, 0.98, 0.92}, 0.95));
  scene.add_light(Light::point({-1.8, 3.0, 0.5}, Color{0.45, 0.5, 0.65}, 0.45));

  scene.set_camera(Camera{{0.0, 1.9, 4.6},
                          {0.0, 1.1, -1.0},
                          {0, 1, 0},
                          46.0,
                          static_cast<double>(params.width) / params.height});
  return scene;
}

AnimatedScene orbit_scene(int sphere_count, int frames, int width,
                          int height) {
  AnimatedScene scene;
  scene.set_frames(frames, 15.0);
  scene.set_resolution(width, height);
  scene.set_background(Color{0.03, 0.03, 0.05});

  Material floor_m = Material::textured(std::make_shared<CheckerTexture>(
      Color{0.5, 0.5, 0.55}, Color{0.22, 0.22, 0.26}, 1.0));
  const int floor_mat = scene.add_material(floor_m);
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0),
                   floor_mat);

  Rng rng(42);
  for (int i = 0; i < sphere_count; ++i) {
    Material m = Material::matte(Color{rng.uniform(0.3, 0.9),
                                       rng.uniform(0.3, 0.9),
                                       rng.uniform(0.3, 0.9)});
    m.reflectivity = rng.uniform(0.0, 0.4);
    const int mat = scene.add_material(m);
    const double orbit_r = rng.uniform(0.8, 2.5);
    const double angle0 = rng.uniform(0.0, kTwoPi);
    const double y = rng.uniform(0.4, 2.0);
    const Vec3 start{orbit_r * std::cos(angle0), y, orbit_r * std::sin(angle0)};
    scene.add_object(
        "orb" + std::to_string(i),
        std::make_unique<Sphere>(start, rng.uniform(0.15, 0.35)), mat,
        std::make_unique<OrbitAnimator>(Vec3{0, y, 0}, Vec3{0, 1, 0},
                                        rng.uniform(2.0, 6.0)));
  }

  scene.add_light(Light::point({3, 5, 3}, Color::white(), 0.9));
  scene.set_camera(Camera{{0, 3.2, 6.0},
                          {0, 1.0, 0},
                          {0, 1, 0},
                          42.0,
                          static_cast<double>(width) / height});
  return scene;
}

AnimatedScene random_scene(Rng* rng, int object_count, int frames, int width,
                           int height) {
  AnimatedScene scene;
  scene.set_frames(frames, 15.0);
  scene.set_resolution(width, height);
  scene.set_background(Color{0.05, 0.05, 0.08});

  const int floor_mat = scene.add_material(Material::matte(Color::gray(0.6)));
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, -1.0),
                   floor_mat);

  for (int i = 0; i < object_count; ++i) {
    Material m = Material::matte(Color{rng->uniform(0.2, 0.95),
                                       rng->uniform(0.2, 0.95),
                                       rng->uniform(0.2, 0.95)});
    // Sprinkle in reflective and transmissive surfaces so secondary rays
    // participate in the coherence property tests.
    const double roll = rng->next_double();
    if (roll < 0.25) {
      m.reflectivity = rng->uniform(0.2, 0.7);
    } else if (roll < 0.4) {
      m.transmittance = rng->uniform(0.3, 0.8);
      m.ior = rng->uniform(1.1, 1.8);
    }
    const int mat = scene.add_material(m);

    const Vec3 pos = rng->point_in_box({-2.5, -0.8, -3.5}, {2.5, 2.0, -0.5});
    std::unique_ptr<Primitive> prim;
    switch (rng->next_below(3)) {
      case 0:
        prim = std::make_unique<Sphere>(pos, rng->uniform(0.2, 0.6));
        break;
      case 1:
        prim = std::make_unique<Box>(
            pos, rng->point_in_box({0.15, 0.15, 0.15}, {0.5, 0.5, 0.5}),
            Mat3::rotation_y(rng->uniform(0.0, kTwoPi)));
        break;
      default:
        prim = std::make_unique<Cylinder>(
            pos, pos + rng->unit_vector() * rng->uniform(0.4, 1.0),
            rng->uniform(0.08, 0.25));
        break;
    }

    std::unique_ptr<Animator> anim;
    const double motion_roll = rng->next_double();
    if (motion_roll < 0.35) {  // translating
      Spline s(InterpMode::kLinear);
      const Vec3 delta = rng->unit_vector() * rng->uniform(0.3, 1.5);
      s.add_key(0.0, Vec3{0, 0, 0});
      s.add_key((frames - 1) / 15.0 + 1e-9, delta);
      anim = std::make_unique<KeyframeAnimator>(std::move(s));
    } else if (motion_roll < 0.45) {  // rotating about a random pivot
      const Vec3 pivot = pos + rng->unit_vector() * rng->uniform(0.0, 0.5);
      const Vec3 axis = rng->unit_vector();
      const double rate = rng->uniform(0.5, 3.0);
      anim = std::make_unique<PivotRotationAnimator>(
          pivot, axis, [rate](double t) { return rate * t; });
    } else if (motion_roll < 0.55) {  // orbiting
      anim = std::make_unique<OrbitAnimator>(
          Vec3{0, pos.y, -2.0}, Vec3{0, 1, 0}, rng->uniform(2.0, 6.0));
    }
    scene.add_object("obj" + std::to_string(i), std::move(prim), mat,
                     std::move(anim));
  }

  scene.add_light(Light::point({2, 4, 2}, Color::white(), 0.9));
  if (rng->next_double() < 0.5) {
    scene.add_light(
        Light::directional({-0.4, -1.0, -0.3}, Color{0.6, 0.6, 0.7}, 0.4));
  }
  scene.set_camera(Camera{{0, 1.0, 3.0},
                          {0, 0.4, -2.0},
                          {0, 1, 0},
                          50.0,
                          static_cast<double>(width) / height});
  return scene;
}

std::unique_ptr<Primitive> make_icosphere(const Vec3& center, double radius,
                                          int subdivisions) {
  // Icosahedron vertices from the three orthogonal golden rectangles.
  const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
  std::vector<Vec3> verts = {
      {-1, phi, 0}, {1, phi, 0}, {-1, -phi, 0}, {1, -phi, 0},
      {0, -1, phi}, {0, 1, phi}, {0, -1, -phi}, {0, 1, -phi},
      {phi, 0, -1}, {phi, 0, 1}, {-phi, 0, -1}, {-phi, 0, 1}};
  std::vector<int> faces = {
      0, 11, 5,  0, 5, 1,   0, 1, 7,   0, 7, 10,  0, 10, 11,
      1, 5, 9,   5, 11, 4,  11, 10, 2, 10, 7, 6,  7, 1, 8,
      3, 9, 4,   3, 4, 2,   3, 2, 6,   3, 6, 8,   3, 8, 9,
      4, 9, 5,   2, 4, 11,  6, 2, 10,  8, 6, 7,   9, 8, 1};

  for (int pass = 0; pass < subdivisions; ++pass) {
    std::vector<int> next;
    next.reserve(faces.size() * 4);
    for (std::size_t f = 0; f + 2 < faces.size(); f += 3) {
      const int a = faces[f], b = faces[f + 1], c = faces[f + 2];
      const auto midpoint = [&](int i, int j) {
        verts.push_back((verts[i] + verts[j]) * 0.5);
        return static_cast<int>(verts.size()) - 1;
      };
      const int ab = midpoint(a, b);
      const int bc = midpoint(b, c);
      const int ca = midpoint(c, a);
      const int tri[12] = {a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca};
      next.insert(next.end(), tri, tri + 12);
    }
    faces = std::move(next);
  }
  for (Vec3& v : verts) v = center + v.normalized() * radius;
  return std::make_unique<Mesh>(std::move(verts), std::move(faces));
}

AnimatedScene gallery_scene(int frames, int width, int height) {
  AnimatedScene scene;
  scene.set_frames(frames, 15.0);
  scene.set_resolution(width, height);
  scene.set_background(Color{0.05, 0.05, 0.08});

  const int floor_mat = scene.add_material(Material::textured(
      std::make_shared<CheckerTexture>(Color::gray(0.6), Color::gray(0.25), 0.8)));
  scene.add_object("floor", std::make_unique<Plane>(Vec3{0, 1, 0}, 0.0),
                   floor_mat);

  const auto slide = [&](double dx, double dz) {
    Spline s(InterpMode::kLinear);
    s.add_key(0.0, {0, 0, 0});
    s.add_key((frames - 1) / 15.0 + 1e-9, {dx, 0.0, dz});
    return std::make_unique<KeyframeAnimator>(std::move(s));
  };

  Material red = Material::matte({0.85, 0.2, 0.15});
  red.reflectivity = 0.2;
  const int m0 = scene.add_material(red);
  const int m1 = scene.add_material(Material::matte({0.2, 0.7, 0.3}));
  const int m2 = scene.add_material(Material::matte({0.25, 0.4, 0.85}));
  const int m3 = scene.add_material(Material::glass(1.4));
  const int m4 = scene.add_material(Material::matte({0.85, 0.75, 0.2}));
  const int m5 = scene.add_material(Material::chrome());

  scene.add_object("sphere", std::make_unique<Sphere>(Vec3{-2.2, 0.5, 0}, 0.5),
                   m0, slide(0.8, 0.3));
  scene.add_object("box",
                   std::make_unique<Box>(Vec3{-1.0, 0.4, -0.6},
                                         Vec3{0.35, 0.4, 0.35},
                                         Mat3::rotation_y(0.5)),
                   m1, slide(-0.5, 0.6));
  scene.add_object("cylinder",
                   std::make_unique<Cylinder>(Vec3{0.2, 0, -0.2},
                                              Vec3{0.2, 1.1, -0.2}, 0.25),
                   m2, slide(0.4, -0.5));
  scene.add_object("disc",
                   std::make_unique<Disc>(Vec3{1.2, 0.8, 0.2},
                                          Vec3(0.3, 0.2, 1).normalized(), 0.5),
                   m3, slide(-0.6, 0.4));
  scene.add_object("triangle",
                   std::make_unique<Triangle>(Vec3{1.8, 0.05, -0.8},
                                              Vec3{2.6, 0.05, -0.4},
                                              Vec3{2.1, 1.1, -0.6}),
                   m4, slide(0.3, 0.7));
  scene.add_object("icosphere", make_icosphere({2.6, 0.45, 0.8}, 0.45, 1),
                   m5, slide(-0.7, -0.3));

  scene.add_light(Light::point({2, 4.5, 3}, Color{1.0, 0.96, 0.9}, 0.9));
  scene.add_light(Light::directional({-0.3, -1.0, -0.4}, Color{0.4, 0.45, 0.6}, 0.35));
  scene.set_camera(Camera{{0.2, 1.8, 5.0},
                          {0.2, 0.6, 0.0},
                          {0, 1, 0},
                          42.0,
                          static_cast<double>(width) / height});
  return scene;
}

AnimatedScene two_shot_scene(int frames, int cut_frame) {
  AnimatedScene scene = orbit_scene(4, frames);
  const Camera second{{4.0, 2.5, 4.0},
                      {0, 1.0, 0},
                      {0, 1, 0},
                      42.0,
                      scene.width() / static_cast<double>(scene.height())};
  scene.add_camera_cut(cut_frame, second);
  return scene;
}

}  // namespace now
