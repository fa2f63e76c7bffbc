// farmbench_selftest: tests of the benchmark's own machinery — self-time
// arithmetic on a hand-built span tree, the frame checker against
// deliberately altered frames, and the pinned metric -> source map.
//
//   farmbench_selftest [WORK_DIR]
//
// Exits non-zero when any check fails.
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "metrics_map.h"
#include "spans.h"
#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"

namespace farmbench {
namespace {

int g_checks = 0;
int g_failed = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failed;
    std::printf("selftest: FAIL %s\n", what.c_str());
  }
}

bool near(double a, double b) { return a - b < 1e-12 && b - a < 1e-12; }

Span span(const char* name, double start, double end, int parent) {
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void test_self_times() {
  // replay [0,10]
  //   task_frame [1,6]
  //     stage.a [1,3]
  //     stage.b [2.5,5]   (overlaps a: covered union is [1,5])
  //   stage.c [7,9.5]
  //     stage.d [9,11]    (runs past its parent: clipped to [9,9.5])
  const std::vector<Span> spans = {
      span("replay", 0, 10, -1),  span("task_frame", 1, 6, 0),
      span("stage.a", 1, 3, 1),   span("stage.b", 2.5, 5, 1),
      span("stage.c", 7, 9.5, 0), span("stage.d", 9, 11, 4)};
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 10 - 5 - 2.5), "root self = duration - children");
  expect(near(self[1], 5 - 4), "overlapping children counted once");
  expect(near(self[2], 2) && near(self[3], 2.5), "leaf self = duration");
  expect(near(self[4], 2.5 - 0.5), "child clipped to its parent");
  const auto by_name = self_time_by_name(spans);
  expect(by_name.at("stage.a").size() == 1 &&
             near(by_name.at("stage.a")[0], 2),
         "self_time_by_name groups by name");

  // Coverage as the benchmark computes it on a well-nested tree: the named
  // stages' self time, and the remainder (the grouping spans' own time) is
  // unattributed.
  const std::vector<Span> nested = {
      span("replay", 0, 10, -1), span("task_frame", 1, 6, 0),
      span("stage.a", 1, 3, 1),  span("stage.b", 3, 5, 1),
      span("stage.c", 7, 9.5, 0)};
  const double staged =
      self_time_of(nested, {"stage.a", "stage.b", "stage.c"});
  expect(near(staged, 6.5), "named-stage self time");
  const std::vector<double> nested_self = self_times(nested);
  expect(near(10 - staged, nested_self[0] + nested_self[1]),
         "unattributed = the grouping spans' self time");
  expect(near(quantile({3, 1, 2}, 0.5), 2) &&
             near(quantile({1, 2, 3, 4}, 0.5), 2.5) &&
             near(quantile({5}, 0.99), 5) && quantile({}, 0.5) == 0,
         "quantile interpolates");
  const std::string json = chrome_trace_json(spans);
  expect(json.find("\"name\":\"stage.d\"") != std::string::npos &&
             json.find("\"parent\":4") != std::string::npos,
         "chrome trace carries names and parents");
}

std::vector<now::Framebuffer> frames(int n) {
  std::vector<now::Framebuffer> out;
  for (int f = 0; f < n; ++f) {
    now::Framebuffer fb(8, 6);
    fb.fill({static_cast<std::uint8_t>(10 * f), 20, 30});
    out.push_back(fb);
  }
  return out;
}

void test_checker(const std::string& dir) {
  const std::vector<now::Framebuffer> reference = frames(4);

  std::vector<now::Framebuffer> got = reference;
  alter_one_pixel(&got[2]);
  std::vector<bool> ok(reference.size(), true);
  check_frames(got, reference, &ok);
  FrameTally tally;
  tally.add(ok, "altered");
  expect(tally.attempted == 4 && tally.failed == 1,
         "one altered frame counts exactly one failure");

  got = reference;
  got.pop_back();
  ok.assign(reference.size(), true);
  check_frames(got, reference, &ok);
  expect(!ok[3] && ok[0] && ok[1] && ok[2], "a missing frame fails");

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (int f = 0; f < 4; ++f) {
    now::write_tga(reference[static_cast<std::size_t>(f)],
                   now::frame_file_path(dir, "frame", f));
  }
  now::Framebuffer altered = reference[1];
  alter_one_pixel(&altered);
  now::write_tga(altered, now::frame_file_path(dir, "frame", 1));
  std::filesystem::remove(now::frame_file_path(dir, "frame", 3));
  ok.assign(reference.size(), true);
  check_frame_files(dir, "frame", reference, &ok);
  expect(ok[0] && !ok[1] && ok[2] && !ok[3],
         "frame files: altered and missing files fail");
  ok.assign(reference.size(), true);
  check_journal(dir + "/absent.journal", 1, reference, &ok);
  expect(!ok[0] && !ok[3], "a missing journal fails every frame");
  std::filesystem::remove_all(dir);

  // Service: client 0 submits two 2-frame shots; the second is cancelled.
  now::ServiceConfig service;
  service.clients.resize(1);
  for (int s = 0; s < 2; ++s) {
    now::ClientAction a;
    a.submit.first_frame = 2 * s;
    a.submit.frame_count = 2;
    service.clients[0].actions.push_back(a);
  }
  now::FarmResult result;
  result.clients.resize(1);
  result.clients[0].shot_ids = {0, 1};
  for (int s = 0; s < 2; ++s) {
    now::FarmResult::ShotResult shot;
    shot.summary.shot_id = s;
    shot.summary.scene_first_frame = 2 * s;
    shot.summary.frame_count = 2;
    shot.summary.phase = now::ShotPhase::kDone;
    shot.frames = {reference[static_cast<std::size_t>(2 * s)],
                   reference[static_cast<std::size_t>(2 * s + 1)]};
    result.shots.push_back(shot);
  }
  std::vector<bool> shots = check_shots(result, service, reference);
  expect(shots == std::vector<bool>{true, true, true, true},
         "done shots equal to the reference pass");
  alter_one_pixel(&result.shots[0].frames[1]);
  result.shots[1].summary.phase = now::ShotPhase::kCancelled;
  shots = check_shots(result, service, reference);
  expect(shots == std::vector<bool>{true, false, false, false},
         "an altered frame and a cancelled shot fail");
}

void test_metric_map() {
  // Pinned: every metric and the clock it is read from.
  const std::vector<std::pair<std::string, Source>> pinned = {
      {"makespan_s", Source::kSteadyClock},
      {"cpu_s", Source::kRusage},
      {"peak_rss_mb", Source::kRusage},
      {"setup_s", Source::kSteadyClock},
      {"scene.world_build_s", Source::kReplaySpans},
      {"scene.world_build_p99_s", Source::kReplaySpans},
      {"trace.rays", Source::kCount},
      {"trace.shadow_rays", Source::kCount},
      {"trace.kernel_rays_per_s", Source::kDerived},
      {"core.full_frame_s", Source::kReplaySpans},
      {"core.full_frame_p99_s", Source::kReplaySpans},
      {"core.incremental_frame_s", Source::kReplaySpans},
      {"core.incremental_frame_p99_s", Source::kReplaySpans},
      {"core.record_overhead", Source::kDerived},
      {"core.pixels_recomputed_frac", Source::kCount},
      {"core.full_renders", Source::kCount},
      {"core.voxels_marked", Source::kCount},
      {"core.dirty_voxels", Source::kCount},
      {"core.peak_mark_bytes", Source::kCount},
      {"core.chunk_s", Source::kFarmWallField},
      {"core.post_join_s", Source::kReplaySpans},
      {"core.post_join_p99_s", Source::kReplaySpans},
      {"image.payload_encode_s", Source::kReplaySpans},
      {"image.payload_encode_p99_s", Source::kReplaySpans},
      {"image.payload_apply_s", Source::kReplaySpans},
      {"image.payload_apply_p99_s", Source::kReplaySpans},
      {"image.tga_write_s", Source::kReplaySpans},
      {"image.tga_write_p99_s", Source::kReplaySpans},
      {"net.codec_encode_s", Source::kReplaySpans},
      {"net.codec_encode_p99_s", Source::kReplaySpans},
      {"net.codec_decode_s", Source::kReplaySpans},
      {"net.codec_decode_p99_s", Source::kReplaySpans},
      {"net.frame_bytes_raw", Source::kCount},
      {"net.frame_bytes_wire", Source::kCount},
      {"net.wire_ratio", Source::kDerived},
      {"net.messages", Source::kCount},
      {"net.comm_frac", Source::kFarmTrace},
      {"par.frame_result_codec_s", Source::kReplaySpans},
      {"par.frame_result_codec_p99_s", Source::kReplaySpans},
      {"par.worker_busy_frac", Source::kFarmTrace},
      {"par.worker_idle_frac", Source::kFarmTrace},
      {"par.load_imbalance", Source::kFarmTrace},
      {"par.adaptive_splits", Source::kCount},
      {"par.service_grants", Source::kCount},
      {"par.flow_chains_connected", Source::kFarmTrace},
      {"shard.region_commit_s", Source::kReplaySpans},
      {"shard.region_commit_p99_s", Source::kReplaySpans},
      {"shard.frame_complete_s", Source::kReplaySpans},
      {"shard.frame_complete_p99_s", Source::kReplaySpans},
      {"shard.commit_imbalance", Source::kCount},
      {"ckpt.journal_bytes", Source::kCount},
      {"ckpt.journal_records", Source::kCount},
      {"ckpt.replay_s", Source::kReplaySpans},
      {"trace_overhead", Source::kDerived},
      {"stage_replay_s", Source::kReplaySpans},
      {"unattributed_s", Source::kReplaySpans},
      {"stage_coverage", Source::kDerived},
  };
  const std::vector<MetricDef>& defs = metric_defs();
  expect(defs.size() == pinned.size(), "metric map size is pinned");
  std::set<std::string> names;
  for (std::size_t i = 0; i < defs.size() && i < pinned.size(); ++i) {
    const MetricDef& d = defs[i];
    expect(d.name == pinned[i].first && d.source == pinned[i].second,
           "pinned source of " + pinned[i].first);
    expect(names.insert(d.name).second, "metric named once: " + d.name);
    expect(d.better == "lower" || d.better == "higher",
           "direction of " + d.name);
    // A time is never a count, and never read from a cost-model field.
    if (d.unit == "s" || d.unit == "1/s") {
      expect(d.source != Source::kCount, "time metric is clocked: " + d.name);
    }
    for (const std::string& field : cost_model_fields()) {
      expect(d.origin.find(field) == std::string::npos,
             d.name + " is not read from " + field);
    }
  }
  int end_to_end = 0;
  for (const MetricDef& d : defs) end_to_end += d.end_to_end ? 1 : 0;
  expect(end_to_end == 4, "four end-to-end metrics");
}

}  // namespace
}  // namespace farmbench

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : ".bench_build/farmbench-selftest";
  farmbench::test_self_times();
  farmbench::test_checker(dir);
  farmbench::test_metric_map();
  std::printf("selftest: %d checks, %d failed\n", farmbench::g_checks,
              farmbench::g_failed);
  return farmbench::g_failed == 0 ? 0 : 1;
}
