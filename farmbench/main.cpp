// farmbench: wall-clock benchmark of the render farm.
//
//   farmbench --workload NAME --seed N --seconds S --trace 0|1 [--alter-frame]
//
// --trace 0 measures the end-to-end metrics: set-up time, then repeated
// untraced render_farm() runs (after one untimed warm-up) for S seconds,
// reporting the median makespan and CPU time and the process's peak RSS.
// --trace 1 measures the per-layer metrics: alternating untraced and traced
// farm runs for S seconds (tracing overhead, utilization, program counters),
// then one single-threaded stage replay with a span per layer call.
//
// Every run's frames are checked against a plain render_world reference
// built once, before any timing. Runs write their frames, journals and the
// stage replay's Chrome trace under .bench_build/farmbench-work. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the exit code is non-zero when any frame failed.
// --alter-frame flips one pixel of one frame of the first timed run before
// it is checked (the checker's own self-test: it must count exactly one
// failure).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "metrics_map.h"
#include "replay.h"
#include "spans.h"
#include "workloads.h"

namespace farmbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetupReps = 101;
constexpr int kMinTimedRuns = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool alter_frame = false;
};

const std::string kWorkDir = ".bench_build/farmbench-work";

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

using Values = std::map<std::string, double>;
using Samples = std::map<std::string, std::size_t>;

Values traced_run_values(const Workload& w, const now::FarmResult& r);

// What one farm run reports back from the child process it ran in.
struct RunRecord {
  double makespan = 0.0;
  double cpu = 0.0;
  double peak_rss_mb = 0.0;  // the child's ru_maxrss
  std::vector<bool> frame_ok;
  Values traced;  // traced_run_values() of a traced run
};

std::string encode_record(const RunRecord& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "makespan %.9g\ncpu %.9g\nok ", r.makespan,
                r.cpu);
  std::string out = buf;
  for (const bool ok : r.frame_ok) out += ok ? '1' : '0';
  out += '\n';
  for (const auto& [name, v] : r.traced) {
    std::snprintf(buf, sizeof(buf), "value %s %.17g\n", name.c_str(), v);
    out += buf;
  }
  return out;
}

bool decode_record(const std::string& text, RunRecord* r) {
  std::istringstream in(text);
  std::string key;
  bool have_ok = false;
  while (in >> key) {
    if (key == "makespan") {
      in >> r->makespan;
    } else if (key == "cpu") {
      in >> r->cpu;
    } else if (key == "ok") {
      std::string bits;
      in >> bits;
      for (const char c : bits) r->frame_ok.push_back(c == '1');
      have_ok = true;
    } else if (key == "value") {
      std::string name;
      double v = 0.0;
      in >> name >> v;
      r->traced[name] = v;
    } else {
      return false;
    }
  }
  return have_ok && !in.bad();
}

// Run `body` in a forked child and collect what it returns, plus the
// child's peak RSS. Every run starts from the same process state (set-up
// and reference done, no farm run yet) and has its own peak memory. The
// parent is single-threaded when it forks: the reference threads have been
// joined.
bool run_forked(const std::function<std::string()>& body, std::string* out,
                double* peak_rss) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    close(fds[0]);
    int code = 0;
    try {
      const std::string text = body();
      std::size_t done = 0;
      while (done < text.size()) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      if (done != text.size()) code = 4;
    } catch (...) {
      code = 3;
    }
    close(fds[1]);
    std::fflush(stdout);
    _exit(code);
  }
  close(fds[1]);
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  *peak_rss = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MB
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// One render_farm() call with fresh output and journal directories, timed
// on steady_clock and getrusage, then checked frame by frame.
class Bench {
 public:
  Bench(const Workload& w, const std::vector<now::Framebuffer>& reference)
      : w_(w), reference_(reference) {}

  /// One run in a child process, checked; its record carries the timings.
  RunRecord run(bool traced, bool alter) {
    std::string text;
    RunRecord record;
    double rss = 0.0;
    if (!run_forked([&] { return encode_record(farm_run(traced, alter)); },
                    &text, &rss) ||
        !decode_record(text, &record)) {
      record = RunRecord{};
      tally_.notes.push_back(w_.name + ": run process failed");
    }
    record.peak_rss_mb = rss;
    record.frame_ok.resize(static_cast<std::size_t>(w_.expected_frames),
                           false);
    tally_.add(record.frame_ok, w_.name + (traced ? " traced" : ""));
    return record;
  }

  /// The journal of the last run ("" when the workload keeps none).
  std::string journal() const {
    return w_.durable ? kWorkDir + "/run/render.journal" : "";
  }

  FrameTally& tally() { return tally_; }

 private:
  RunRecord farm_run(bool traced, bool alter) const {
    const std::string dir = kWorkDir + "/run";
    fresh_dir(dir);
    now::FarmConfig config = w_.config;
    set_run_paths(w_, dir, &config);
    config.obs.trace = traced;
    RunRecord out;
    const double cpu0 = cpu_seconds();
    const double t0 = steady_seconds();
    now::FarmResult result = now::render_farm(w_.scene, config);
    out.makespan = steady_seconds() - t0;
    out.cpu = cpu_seconds() - cpu0;
    out.frame_ok = check(config, alter, &result);
    if (traced) out.traced = traced_run_values(w_, result);
    return out;
  }

  std::vector<bool> check(const now::FarmConfig& config, bool alter,
                          now::FarmResult* result) const {
    std::vector<bool> ok;
    if (config.service.enabled) {
      if (alter && !result->shots.empty() &&
          !result->shots[0].frames.empty()) {
        alter_one_pixel(&result->shots[0].frames[0]);
      }
      ok = check_shots(*result, config.service, reference_);
    } else {
      if (alter && !result->frames.empty()) {
        alter_one_pixel(&result->frames[result->frames.size() / 2]);
      }
      ok.assign(reference_.size(), true);
      check_frames(result->frames, reference_, &ok);
      if (w_.durable) {
        check_frame_files(config.output_dir, config.output_prefix, reference_,
                          &ok);
        check_journal(config.journal_path, config.shards, reference_, &ok);
      }
    }
    ok.resize(static_cast<std::size_t>(w_.expected_frames), false);
    return ok;
  }

  const Workload& w_;
  const std::vector<now::Framebuffer>& reference_;
  FrameTally tally_;
};

void add_timing(const std::string& name, const std::vector<double>& v,
                Values* values, Samples* samples) {
  (*values)[name] = quantile(v, 0.5);
  std::string p99 = name;
  p99.replace(p99.size() - 2, 2, "_p99_s");
  (*values)[p99] = quantile(v, 0.99);
  (*samples)[name] = (*samples)[p99] = v.size();
}

// Farm-side per-layer numbers of one traced run.
Values traced_run_values(const Workload& w, const now::FarmResult& r) {
  Values v;
  const now::UtilizationReport& u = r.utilization;
  double busy = 0.0, idle = 0.0, comm = 0.0;
  int n = 0;
  for (const now::RankUtilization& rank : u.ranks) {
    if (rank.rank < 1 || rank.rank > w.config.workers) continue;
    busy += rank.busy_frac;
    idle += rank.idle_frac;
    comm += rank.comm_frac;
    ++n;
  }
  if (n > 0) {
    busy /= n;
    idle /= n;
    comm /= n;
  }
  v["par.worker_busy_frac"] = busy;
  v["par.worker_idle_frac"] = idle;
  v["net.comm_frac"] = comm;
  v["par.load_imbalance"] = u.load_imbalance;
  v["par.adaptive_splits"] = static_cast<double>(r.master.adaptive_splits);
  v["par.service_grants"] = static_cast<double>(r.assignment_log.size());
  v["par.flow_chains_connected"] =
      static_cast<double>(r.flow_chains.connected);
  v["net.messages"] = static_cast<double>(r.runtime.messages);
  const double raw =
      static_cast<double>(r.metrics.counter("net.frame_bytes_raw"));
  const double wire =
      static_cast<double>(r.metrics.counter("net.frame_bytes_wire"));
  v["net.frame_bytes_raw"] = raw;
  v["net.frame_bytes_wire"] = wire;
  v["net.wire_ratio"] = raw > 0 ? wire / raw : 0.0;
  std::int64_t peak_marks = 0;
  for (const now::WorkerReport& wr : r.workers) {
    peak_marks = std::max(peak_marks, wr.peak_mark_bytes);
  }
  v["core.peak_mark_bytes"] = static_cast<double>(peak_marks);
  const auto chunk = r.metrics.histograms.find("worker.chunk_seconds");
  v["core.chunk_s"] = chunk != r.metrics.histograms.end() &&
                              chunk->second.count > 0
                          ? chunk->second.sum / chunk->second.count
                          : 0.0;
  // Commit balance across the endpoints that received pixels.
  double max_commits = 0.0, total_commits = 0.0;
  int endpoints = 0;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.rfind("endpoint.", 0) != 0 ||
        name.size() < 17 ||
        name.compare(name.size() - 17, 17, ".frames_committed") != 0 ||
        value == 0) {
      continue;
    }
    max_commits = std::max(max_commits, static_cast<double>(value));
    total_commits += static_cast<double>(value);
    ++endpoints;
  }
  v["shard.commit_imbalance"] =
      endpoints > 0 ? max_commits / (total_commits / endpoints) : 0.0;
  v["ckpt.journal_bytes"] =
      static_cast<double>(r.metrics.counter("ckpt.journal_bytes"));
  v["ckpt.journal_records"] =
      static_cast<double>(r.metrics.counter("ckpt.journal_records"));
  return v;
}

void replay_values(const ReplayResult& rep, Values* values, Samples* samples) {
  const auto by_name = self_time_by_name(rep.spans);
  const auto times = [&](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? std::vector<double>{} : it->second;
  };
  const ReplayCounts& c = rep.counts;

  add_timing("scene.world_build_s", times("scene.world_build"), values,
             samples);
  (*values)["trace.rays"] = static_cast<double>(c.plain_rays);
  (*values)["trace.shadow_rays"] = static_cast<double>(c.plain_shadow_rays);
  const double trace_s = sum(times("trace.render"));
  (*values)["trace.kernel_rays_per_s"] =
      trace_s > 0 ? static_cast<double>(c.plain_rays) / trace_s : 0.0;

  add_timing("core.full_frame_s", c.full_frame_s, values, samples);
  add_timing("core.incremental_frame_s", c.incremental_frame_s, values,
             samples);
  const double plain_per_px =
      c.plain_pixels > 0
          ? (sum(times("scene.world_build")) + trace_s) / c.plain_pixels
          : 0.0;
  const double full_per_px =
      c.full_render_pixels > 0 ? sum(c.full_frame_s) / c.full_render_pixels
                               : 0.0;
  (*values)["core.record_overhead"] =
      plain_per_px > 0 ? full_per_px / plain_per_px - 1.0 : 0.0;
  (*values)["core.pixels_recomputed_frac"] =
      c.pixels_total > 0
          ? static_cast<double>(c.pixels_recomputed) / c.pixels_total
          : 0.0;
  (*values)["core.full_renders"] = static_cast<double>(c.full_renders);
  (*values)["core.voxels_marked"] = static_cast<double>(c.voxels_marked);
  (*values)["core.dirty_voxels"] = static_cast<double>(c.dirty_voxels);
  add_timing("core.post_join_s", c.serial_outside_chunks, values, samples);
  add_timing("image.payload_encode_s", times("image.payload_encode"), values,
             samples);
  add_timing("image.payload_apply_s", times("image.payload_apply"), values,
             samples);
  add_timing("image.tga_write_s", times("image.tga_write"), values, samples);
  add_timing("net.codec_encode_s", times("net.codec_encode"), values,
             samples);
  add_timing("net.codec_decode_s", times("net.codec_decode"), values,
             samples);
  add_timing("par.frame_result_codec_s", times("par.frame_result_codec"),
             values, samples);
  add_timing("shard.region_commit_s", times("shard.region_commit"), values,
             samples);
  add_timing("shard.frame_complete_s", times("shard.frame_complete"), values,
             samples);
  (*values)["ckpt.replay_s"] = sum(times("ckpt.replay"));

  double wall = 0.0;
  for (std::size_t i = 0; i < rep.spans.size(); ++i) {
    if (rep.spans[i].parent < 0) wall += rep.spans[i].duration();
  }
  const double staged = self_time_of(rep.spans, stage_names());
  (*values)["stage_replay_s"] = wall;
  (*values)["unattributed_s"] = wall - staged;
  (*values)["stage_coverage"] = wall > 0 ? staged / wall : 0.0;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const Options& opts) {
  fresh_dir(kWorkDir);
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // Set-up: scene generation plus config validation, repeated; the median
  // is the reported set-up time.
  std::vector<double> setup;
  Workload w;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = steady_seconds();
    Workload candidate = make_workload(opts.workload, opts.seed);
    now::validate_farm_config(candidate.scene, candidate.config);
    setup.push_back(steady_seconds() - t0);
    w = std::move(candidate);
  }

  // Reference frames and warm-up, both outside the timed region.
  const std::vector<now::Framebuffer> reference =
      render_reference(w.scene, w.config.coherence.trace, cores);
  Bench bench(w, reference);
  bench.run(false, false);  // untimed warm-up

  Values values;
  Samples samples;
  std::vector<double> makespan, cpu, rss, traced_makespan;
  std::map<std::string, std::vector<double>> traced;
  const double start = steady_seconds();
  for (int i = 0; steady_seconds() - start < opts.seconds ||
                  static_cast<int>(makespan.size()) < kMinTimedRuns ||
                  (opts.trace &&
                   static_cast<int>(traced_makespan.size()) < kMinTimedRuns);
       ++i) {
    const bool trace_this = opts.trace && i % 2 == 1;
    const RunRecord r = bench.run(trace_this, opts.alter_frame && i == 0);
    std::printf("farmbench: run %d%s makespan %.4f s cpu %.4f s rss %.1f MB\n",
                i, trace_this ? " (traced)" : "", r.makespan, r.cpu,
                r.peak_rss_mb);
    if (trace_this) {
      traced_makespan.push_back(r.makespan);
      for (const auto& [name, v] : r.traced) traced[name].push_back(v);
    } else {
      makespan.push_back(r.makespan);
      cpu.push_back(r.cpu);
      rss.push_back(r.peak_rss_mb);
    }
  }

  if (!opts.trace) {
    values["makespan_s"] = median(makespan);
    values["cpu_s"] = median(cpu);
    values["peak_rss_mb"] = median(rss);
    values["setup_s"] = median(setup);
    samples["makespan_s"] = makespan.size();
    samples["cpu_s"] = cpu.size();
    samples["peak_rss_mb"] = rss.size();
    samples["setup_s"] = setup.size();
  } else {
    for (const auto& [name, v] : traced) {
      values[name] = median(v);
      samples[name] = v.size();
    }
    values["trace_overhead"] = median(traced_makespan) / median(makespan) - 1;
    const std::string replay_dir = kWorkDir + "/replay";
    fresh_dir(replay_dir);
    const ReplayResult rep =
        run_stage_replay(w, reference, replay_dir, bench.journal());
    replay_values(rep, &values, &samples);
    bench.tally().add(rep.frame_ok, w.name + " replay");
    std::ofstream(kWorkDir + "/stage_trace.json")
        << chrome_trace_json(rep.spans);
    fs::remove_all(replay_dir);
  }
  fs::remove_all(kWorkDir + "/run");

  // Every metric of this mode, exactly once.
  std::string metrics_json;
  for (const MetricDef& def : metric_defs()) {
    if (def.end_to_end == opts.trace) continue;
    const auto it = values.find(def.name);
    if (it == values.end()) {
      throw std::logic_error("metric not computed: " + def.name);
    }
    metrics_json += (metrics_json.empty() ? "" : ", ") + ("\"" + def.name +
                    "\": {\"value\": " + json_number(it->second) +
                    ", \"unit\": \"" + def.unit + "\"}");
    const auto n = samples.find(def.name);
    std::printf("farmbench: %-28s %14.6g %-6s%s\n", def.name.c_str(),
                it->second, def.unit.c_str(),
                n == samples.end()
                    ? ""
                    : (" (n=" + std::to_string(n->second) + ")").c_str());
  }
  const FrameTally& tally = bench.tally();
  for (const std::string& note : tally.notes) {
    std::printf("farmbench: FAILED %s\n", note.c_str());
  }
  if (opts.trace && values["stage_coverage"] < 0.95) {
    std::printf("farmbench: stage coverage %.4f is below 0.95\n",
                values["stage_coverage"]);
    return 2;
  }
  std::printf(
      "farmbench: workload=%s seed=%llu trace=%d host_cores=%d "
      "frames_failed_frac=%.6g (%lld/%lld frames)\n",
      w.name.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.trace ? 1 : 0, cores, tally.failed_frac(),
      static_cast<long long>(tally.failed),
      static_cast<long long>(tally.attempted));
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace farmbench

int main(int argc, char** argv) {
  farmbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--alter-frame") {
      opts.alter_frame = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else {
      std::fprintf(stderr, "farmbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  try {
    return farmbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "farmbench: %s\n", e.what());
    return 2;
  }
}
