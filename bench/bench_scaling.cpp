// Section 5 extension: "Depending on the number of workstations
// participating in the computation and the performance power of each of the
// machines, one can build an extremely powerful rendering environment" —
// and "further tests with heterogeneous environments, as well as more
// homogeneous ones, will prove beneficial".
//
// Scalability sweep: cluster sizes 1..16, homogeneous and heterogeneous
// mixes, for both partitioning schemes, with efficiency relative to the
// aggregate compute power.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench/bench_util.h"
#include "src/core/coherent_renderer.h"
#include "src/par/render_farm.h"
#include "src/par/serial.h"
#include "src/scene/builtin_scenes.h"

namespace now {
namespace {

double run_farm(const AnimatedScene& scene, PartitionScheme scheme,
                const std::vector<double>& speeds) {
  FarmConfig config;
  config.backend = FarmBackend::kSim;
  config.worker_speeds = speeds;
  config.partition.scheme = scheme;
  config.partition.block_size = 40;
  return render_farm(scene, config).elapsed_seconds;
}

int run(bool quick) {
  CradleParams params;
  params.frames = quick ? 10 : 45;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);

  const SerialResult serial = render_serial(scene);
  std::printf("scaling — Newton, %d frames at %dx%d, coherence on\n",
              scene.frame_count(), scene.width(), scene.height());
  std::printf("serial baseline (speed 1.0, with coherence): %s\n\n",
              bench::hms(serial.virtual_seconds).c_str());

  std::printf("homogeneous clusters (all workers speed 1.0)\n");
  std::printf("%8s %16s %10s %12s %16s %10s %12s\n", "workers", "seq-div",
              "speedup", "efficiency", "frame-div", "speedup", "efficiency");
  bench::print_rule(92);
  for (const int n : {1, 2, 3, 4, 6, 8, 12, 16}) {
    const std::vector<double> speeds(static_cast<std::size_t>(n), 1.0);
    const double seq =
        run_farm(scene, PartitionScheme::kSequenceDivision, speeds);
    const double frame = run_farm(scene, PartitionScheme::kFrameDivision, speeds);
    std::printf("%8d %16s %10s %11.1f%% %16s %10s %11.1f%%\n", n,
                bench::hms(seq).c_str(),
                bench::speedup(serial.virtual_seconds, seq).c_str(),
                100.0 * serial.virtual_seconds / seq / n,
                bench::hms(frame).c_str(),
                bench::speedup(serial.virtual_seconds, frame).c_str(),
                100.0 * serial.virtual_seconds / frame / n);
  }

  std::printf("\nheterogeneous clusters (efficiency vs aggregate power)\n");
  std::printf("%-26s %8s %16s %16s\n", "mix", "power", "seq-div", "frame-div");
  bench::print_rule(72);
  const std::vector<std::pair<const char*, std::vector<double>>> mixes = {
      {"{1.0, 0.5, 0.5} (paper)", {1.0, 0.5, 0.5}},
      {"{1.0, 1.0, 1.0}", {1.0, 1.0, 1.0}},
      {"{2.0, 0.5, 0.5}", {2.0, 0.5, 0.5}},
      {"{1.0, 0.25}", {1.0, 0.25}},
      {"{1.0, 0.75, 0.5, 0.25}", {1.0, 0.75, 0.5, 0.25}},
  };
  for (const auto& [label, speeds] : mixes) {
    const double power =
        std::accumulate(speeds.begin(), speeds.end(), 0.0);
    const double seq =
        run_farm(scene, PartitionScheme::kSequenceDivision, speeds);
    const double frame = run_farm(scene, PartitionScheme::kFrameDivision, speeds);
    std::printf("%-26s %8.2f %9s (%4.0f%%) %9s (%4.0f%%)\n", label, power,
                bench::hms(seq).c_str(),
                100.0 * serial.virtual_seconds / seq / power,
                bench::hms(frame).c_str(),
                100.0 * serial.virtual_seconds / frame / power);
  }
  std::printf("\nexpected shape: frame division holds efficiency further out "
              "(coherence never\nrestarts); sequence division flattens as "
              "subsequences shrink and every worker\npays its own full "
              "first frame\n");
  return 0;
}

/// One scene rendered by a CoherentRenderer at a given thread count.
struct IntraSample {
  double dense_seconds = 0.0;   // full renders (the first frame)
  double sparse_seconds = 0.0;  // incremental frames
  /// Incremental frame wall time outside the parallel section: frame time
  /// minus the span of FrameRenderResult::chunks (all of it at 1 thread).
  double post_join_seconds = 0.0;
  double recomputed_frac = 0.0;  // of incremental frames' pixels
  std::vector<Framebuffer> frames;
};

IntraSample render_intra(const AnimatedScene& scene, int threads) {
  IntraSample s;
  CoherenceOptions options;
  options.threads = threads;
  CoherentRenderer renderer(scene, {0, 0, scene.width(), scene.height()},
                            options);
  Framebuffer fb(scene.width(), scene.height());
  std::int64_t recomputed = 0;
  std::int64_t total = 0;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    const auto t0 = std::chrono::steady_clock::now();
    const FrameRenderResult r = renderer.render_frame(frame, &fb);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (r.full_render) {
      s.dense_seconds += dt;
    } else {
      double chunks_end = 0.0;
      for (const ChunkTiming& c : r.chunks) {
        chunks_end = std::max(chunks_end, c.start_seconds + c.seconds);
      }
      s.sparse_seconds += dt;
      s.post_join_seconds += dt - chunks_end;
      recomputed += r.pixels_recomputed;
      total += r.pixels_total;
    }
    s.frames.push_back(fb);
  }
  s.recomputed_frac =
      total > 0 ? static_cast<double>(recomputed) / static_cast<double>(total)
                : 0.0;
  return s;
}

/// Intra-node sweep: the same sequence rendered at 1/2/4/8 worker threads,
/// measured in wall-clock time (not simulated) and split into the dense
/// first frame vs. the sparse incremental remainder. Every frame is checked
/// byte-identical against the single-threaded run — a mismatch fails the
/// bench, since determinism is the feature, not a nice-to-have.
///
/// The cradle's incremental frames recompute few pixels, so a second scene
/// in which every sphere orbits keeps most pixels dirty: its row shows the
/// share of each incremental frame spent after the parallel section, in the
/// coherence grid's merge, collection and compaction.
int run_intra_node(bool quick) {
  CradleParams params;
  params.frames = quick ? 6 : 16;
  params.width = quick ? 160 : 320;
  params.height = quick ? 120 : 240;
  const AnimatedScene scene = newton_cradle_scene(params);
  const AnimatedScene busy =
      orbit_scene(24, params.frames, params.width, params.height);
  const int thread_counts[] = {1, 2, 4, 8};

  std::printf("\nintra-node threading (wall clock, %d frames at %dx%d)\n",
              scene.frame_count(), scene.width(), scene.height());
  std::printf("%8s %14s %10s %14s %10s %12s\n", "threads", "dense", "speedup",
              "sparse", "speedup", "identical");
  bench::print_rule(74);

  const IntraSample base = render_intra(scene, 1);
  int rc = 0;
  for (const int threads : thread_counts) {
    const IntraSample s = threads == 1 ? base : render_intra(scene, threads);
    const bool identical = s.frames == base.frames;
    if (!identical) rc = 1;
    std::printf("%8d %13.3fs %10s %13.3fs %10s %12s\n", threads,
                s.dense_seconds,
                bench::speedup(base.dense_seconds, s.dense_seconds).c_str(),
                s.sparse_seconds,
                bench::speedup(base.sparse_seconds, s.sparse_seconds).c_str(),
                identical ? "yes" : "MISMATCH");
    const std::string prefix = "intra.threads_" + std::to_string(threads);
    bench::bench_registry().gauge(prefix + ".dense_seconds")
        .set(s.dense_seconds);
    bench::bench_registry().gauge(prefix + ".sparse_seconds")
        .set(s.sparse_seconds);
  }

  const IntraSample busy_base = render_intra(busy, 1);
  std::printf("\nhigh motion: orbit scene, 24 spheres, %.0f%% of pixels "
              "recomputed per incremental frame\n",
              100.0 * busy_base.recomputed_frac);
  std::printf("%8s %14s %10s %14s %10s %12s\n", "threads", "incremental",
              "speedup", "post-join", "share", "identical");
  bench::print_rule(74);
  for (const int threads : thread_counts) {
    const IntraSample s =
        threads == 1 ? busy_base : render_intra(busy, threads);
    const bool identical = s.frames == busy_base.frames;
    if (!identical) rc = 1;
    std::printf("%8d %13.3fs %10s %13.3fs %9.1f%% %12s\n", threads,
                s.sparse_seconds,
                bench::speedup(busy_base.sparse_seconds, s.sparse_seconds)
                    .c_str(),
                s.post_join_seconds,
                s.sparse_seconds > 0
                    ? 100.0 * s.post_join_seconds / s.sparse_seconds
                    : 0.0,
                identical ? "yes" : "MISMATCH");
    const std::string prefix =
        "intra.high_motion.threads_" + std::to_string(threads);
    bench::bench_registry().gauge(prefix + ".incremental_seconds")
        .set(s.sparse_seconds);
    bench::bench_registry().gauge(prefix + ".post_join_seconds")
        .set(s.post_join_seconds);
  }
  if (rc != 0) {
    std::fprintf(stderr,
                 "intra-node sweep: threaded output differs from --threads 1\n");
  }
  return rc;
}

}  // namespace
}  // namespace now

int main(int argc, char** argv) {
  const now::bench::BenchOptions opts =
      now::bench::parse_bench_options(argc, argv);
  int rc = now::run(opts.quick);
  if (rc == 0) rc = now::run_intra_node(opts.quick);
  return rc != 0 ? rc : now::bench::finish_bench(opts);
}
