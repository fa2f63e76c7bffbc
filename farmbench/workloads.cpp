#include "workloads.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "src/geom/box.h"
#include "src/geom/cylinder.h"
#include "src/geom/plane.h"
#include "src/geom/sphere.h"
#include "src/math/rng.h"
#include "src/math/spline.h"
#include "src/scene/animator.h"
#include "src/scene/builtin_scenes.h"

namespace farmbench {

using now::FarmBackend;
using now::PartitionScheme;

namespace {

// cradle_journal: the paper's Newton cradle on the threads backend with the
// whole durable commit path on (80-px frame division, 2 framebuffer shards,
// fsync'd journal, TGAs on disk). Low motion: most pixels are coherent.
Workload cradle_journal(std::uint64_t seed) {
  now::Rng rng(seed);
  now::CradleParams params;
  params.frames = 60;
  params.width = 320;
  params.height = 240;
  params.amplitude_degrees = rng.uniform(44.0, 46.0);
  params.period_seconds = rng.uniform(1.97, 2.03);
  Workload w;
  w.scene = now::newton_cradle_scene(params);
  w.config.backend = FarmBackend::kThreads;
  w.config.workers = 4;
  w.config.coherence.threads = 1;
  w.config.partition.scheme = PartitionScheme::kFrameDivision;
  w.config.partition.block_size = 80;
  w.config.shards = 2;
  w.config.journal_fsync = true;
  w.durable = true;
  w.expected_frames = w.scene.frame_count();
  return w;
}

// A vector of length `length` in the image plane (the camera looks down -z).
now::Vec3 in_plane(double angle, double length) {
  return {length * std::cos(angle), length * std::sin(angle), 0.0};
}

// A stratified variant of now::random_scene: the same primitive kinds,
// material classes (reflective, transmissive, matte), lights and camera,
// but every object moves, each sits at the centre of its own cell of a
// 5x4x3 grid, and the kind/material mix is fixed by index. random_scene
// draws the mix, sizes, depths and a second light from the seed, so its
// render cost varies by tens of percent between seeds; here the seed sets
// colours, orientations and motion directions, and the cost stays nearly
// constant.
now::AnimatedScene dense_scene(now::Rng* rng, int frames, int width,
                               int height) {
  using now::Vec3;
  now::AnimatedScene scene;
  scene.set_frames(frames, 15.0);
  scene.set_resolution(width, height);
  scene.set_background(now::Color{0.05, 0.05, 0.08});
  const int floor_mat =
      scene.add_material(now::Material::matte(now::Color::gray(0.6)));
  scene.add_object("floor", std::make_unique<now::Plane>(Vec3{0, 1, 0}, -1.0),
                   floor_mat);

  constexpr int kNx = 5, kNy = 4, kNz = 3;
  const Vec3 lo{-2.5, -0.8, -3.5};
  const Vec3 cell{5.0 / kNx, 2.8 / kNy, 3.0 / kNz};
  for (int i = 0; i < kNx * kNy * kNz; ++i) {
    now::Material m = now::Material::matte(now::Color{
        rng->uniform(0.2, 0.95), rng->uniform(0.2, 0.95),
        rng->uniform(0.2, 0.95)});
    if (i % 20 < 5) {
      m.reflectivity = 0.45;
    } else if (i % 20 < 8) {
      m.transmittance = 0.55;
      m.ior = 1.4;
    }
    const int mat = scene.add_material(m);

    const Vec3 corner{lo.x + cell.x * (i % kNx),
                      lo.y + cell.y * ((i / kNx) % kNy),
                      lo.z + cell.z * (i / (kNx * kNy))};
    const Vec3 pos = corner + cell * 0.5;
    std::unique_ptr<now::Primitive> prim;
    switch (i % 3) {
      case 0:
        prim = std::make_unique<now::Sphere>(pos, 0.3);
        break;
      case 1:
        prim = std::make_unique<now::Box>(
            pos, Vec3{0.25, 0.25, 0.25},
            now::Mat3::rotation_y(rng->uniform(0.0, now::kTwoPi)));
        break;
      default: {
        const Vec3 axis = in_plane(rng->uniform(0.0, now::kTwoPi), 0.3);
        prim = std::make_unique<now::Cylinder>(pos - axis, pos + axis, 0.15);
        break;
      }
    }
    // Sweep across the cell centre, parallel to the image plane: every
    // object moves, and none changes its depth.
    const Vec3 sweep = in_plane(rng->uniform(0.0, now::kTwoPi), 0.35);
    now::Spline track(now::InterpMode::kLinear);
    track.add_key(0.0, -sweep);
    track.add_key((frames - 1) / 15.0 + 1e-9, sweep);
    scene.add_object("obj" + std::to_string(i), std::move(prim), mat,
                     std::make_unique<now::KeyframeAnimator>(std::move(track)));
  }

  scene.add_light(now::Light::point({2, 4, 2}, now::Color::white(), 0.9));
  scene.add_light(now::Light::directional({-0.4, -1.0, -0.3},
                                          now::Color{0.6, 0.6, 0.7}, 0.4));
  scene.set_camera(now::Camera{{0, 1.0, 3.0},
                               {0, 0.4, -2.0},
                               {0, 1, 0},
                               50.0,
                               static_cast<double>(width) / height});
  return scene;
}

// random_dense: a seeded random scene of 60 moving objects, so most pixels
// are dirty every frame and the trace kernel dominates. Sequence division,
// two workers of two render threads each, no journal.
Workload random_dense(std::uint64_t seed) {
  now::Rng rng(seed);
  Workload w;
  w.scene = dense_scene(&rng, 24, 320, 240);
  w.config.backend = FarmBackend::kThreads;
  w.config.workers = 2;
  w.config.coherence.threads = 2;
  w.config.partition.scheme = PartitionScheme::kSequenceDivision;
  w.expected_frames = w.scene.frame_count();
  return w;
}

// service_tcp: the multi-tenant shot service over loopback TCP. Two
// scripted clients submit a closed burst at t = 0: 16 tenants with seeded
// weights 1-3, 8 four-frame shots each, over an orbit scene.
constexpr int kTenants = 16;
constexpr int kShotsPerTenant = 8;
constexpr int kShotFrames = 4;

Workload service_tcp(std::uint64_t seed) {
  now::Rng rng(seed);
  Workload w;
  w.scene = now::orbit_scene(6, 24, 256, 192);
  w.config.backend = FarmBackend::kTcp;
  w.config.workers = 4;
  w.config.coherence.threads = 1;
  w.config.partition.scheme = PartitionScheme::kFrameDivision;
  w.config.partition.block_size = 64;
  w.config.shards = 1;
  w.config.service.enabled = true;
  now::ClientScript clients[2];
  for (int t = 0; t < kTenants; ++t) {
    const double weight = 1.0 + static_cast<double>(rng.next_below(3));
    for (int s = 0; s < kShotsPerTenant; ++s) {
      now::ClientAction a;
      a.at_seconds = 0.0;
      a.kind = now::ClientActionKind::kSubmit;
      a.submit.tenant = "t" + std::to_string(t);
      a.submit.weight = weight;
      a.submit.first_frame = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint32_t>(
              w.scene.frame_count() - kShotFrames + 1)));
      a.submit.frame_count = kShotFrames;
      clients[t % 2].actions.push_back(a);
    }
  }
  w.config.service.clients = {clients[0], clients[1]};
  w.expected_frames = kTenants * kShotsPerTenant * kShotFrames;
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "cradle_journal") {
    w = cradle_journal(seed);
  } else if (name == "random_dense") {
    w = random_dense(seed);
  } else if (name == "service_tcp") {
    w = service_tcp(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.name = name;
  return w;
}

void set_run_paths(const Workload& workload, const std::string& run_dir,
                   now::FarmConfig* config) {
  if (!workload.durable) return;
  config->output_dir = run_dir;
  config->output_prefix = "frame";
  config->journal_path = run_dir + "/render.journal";
}

}  // namespace farmbench
