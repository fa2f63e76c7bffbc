// Accelerator baseline comparison: the paper-era uniform grid (Glassner
// 1984, as in POV-Ray 3.0) vs brute force — wall-clock per frame across
// scene sizes. Both produce identical images (asserted).
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "src/trace/uniform_grid.h"

namespace now {
namespace {

double render_ms(const World& world, const Accelerator& accel, int w, int h,
                 Framebuffer* out) {
  Tracer tracer(world, accel);
  *out = Framebuffer(w, h);
  const auto t0 = std::chrono::steady_clock::now();
  render_frame(&tracer, out);
  const auto t1 = std::chrono::steady_clock::now();
  return 1e3 * std::chrono::duration<double>(t1 - t0).count();
}

int run(bool quick) {
  const int w = quick ? 120 : 240;
  const int h = quick ? 90 : 180;
  std::printf("accelerator comparison — orbit scenes at %dx%d, wall clock "
              "per frame\n\n",
              w, h);
  std::printf("%10s %14s %14s %12s\n", "objects", "brute ms", "grid ms",
              "grid gain");
  bench::print_rule(54);

  for (const int objects : {5, 20, 50, 100, quick ? 150 : 250}) {
    const AnimatedScene scene = orbit_scene(objects, 1, w, h);
    const World world = scene.world_at(0);

    const BruteForceAccelerator brute(world);
    const UniformGridAccelerator grid(world);

    Framebuffer fb_brute, fb_grid;
    const double ms_brute = render_ms(world, brute, w, h, &fb_brute);
    const double ms_grid = render_ms(world, grid, w, h, &fb_grid);

    if (!(fb_brute == fb_grid)) {
      std::fprintf(stderr, "FATAL: accelerators disagree at %d objects\n",
                   objects);
      return 1;
    }
    std::printf("%10d %14.1f %14.1f %11.2fx\n", objects, ms_brute, ms_grid,
                ms_brute / ms_grid);
  }
  std::printf("\n[verified: identical images from both accelerators]\n");
  return 0;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts =
      now::bench::parse_bench_options(argc, argv);
  const int rc = now::run(opts.quick);
  return rc != 0 ? rc : now::bench::finish_bench(opts);
}
