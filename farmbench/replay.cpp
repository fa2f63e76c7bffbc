#include "replay.h"

#include <algorithm>
#include <memory>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/core/coherent_renderer.h"
#include "src/image/image_io.h"
#include "src/image/pixel_codec.h"
#include "src/net/codec.h"
#include "src/par/partition.h"
#include "src/par/protocol.h"
#include "src/shard/frame_sink.h"
#include "src/shard/ownership.h"
#include "src/trace/render.h"
#include "src/trace/uniform_grid.h"

namespace farmbench {

const std::vector<std::string>& stage_names() {
  static const std::vector<std::string> names = {
      "scene.world_build",   "trace.render",
      "core.renderer_init",  "core.render_frame",
      "image.payload_encode", "net.codec_encode",
      "par.frame_result_codec", "net.codec_decode",
      "image.payload_apply", "shard.region_commit",
      "image.tga_write",     "shard.frame_complete",
      "ckpt.replay"};
  return names;
}

namespace {

using now::Framebuffer;
using now::PixelRect;

// One sequence of consecutive frames over a pixel region: a partition task
// of a classic run, or a task of one shot in service mode.
struct ReplayTask {
  int id = 0;
  PixelRect region;
  int first = 0;  // first frame (scene frame numbering)
  int count = 0;
};

// A group of tasks that together cover `frames` frames of the image: the
// whole animation (classic) or one shot (service). Span frame ids are
// `frame_base` + the frame's index within the group.
struct ReplayGroup {
  int scene_first = 0;
  int frames = 0;
  int frame_base = 0;
  std::vector<ReplayTask> tasks;
};

class Replayer {
 public:
  Replayer(const Workload& w, const std::vector<Framebuffer>& reference,
           const std::string& work_dir)
      : w_(w), reference_(reference), work_dir_(work_dir) {
    const now::FarmConfig& c = w.config;
    map_.shard_count = c.shards;
    map_.worker_count = c.workers;
    map_.frame_count = w.scene.frame_count();
    codec_ = c.frame_codec;
    track_delta_ = codec_ == now::FrameCodec::kDelta && c.sparse_returns;
    // Mirror the program's sinks: one per shard, or one master sink.
    const int sinks = map_.sharded() ? map_.shard_count : 1;
    for (int i = 0; i < sinks; ++i) {
      now::FrameSinkConfig sc;
      if (w.durable) {
        sc.journal_path = work_dir + "/replay.journal";
        if (map_.sharded()) {
          sc.journal_path = now::shard_journal_path(sc.journal_path, i);
        }
      }
      sc.journal_fsync = c.journal_fsync;
      sc.header.width = w.scene.width();
      sc.header.height = w.scene.height();
      sc.header.frame_count = map_.frame_count;
      sc.header.shard_count = map_.shard_count;
      sc.header.shard_index = i;
      sc.endpoint_rank = map_.sharded() ? map_.rank_of_shard(i) : 0;
      sinks_.push_back(std::make_unique<now::FrameSink>(sc));
    }
  }

  // Every scene frame once: world build, then a plain full render.
  void plain_frames() {
    for (int f = 0; f < w_.scene.frame_count(); ++f) {
      std::unique_ptr<now::World> world;
      std::unique_ptr<now::UniformGridAccelerator> accel;
      {
        SpanRecorder::Scope s(&rec_, "scene.world_build", f);
        world = std::make_unique<now::World>(w_.scene.world_at(f));
        accel = std::make_unique<now::UniformGridAccelerator>(*world);
      }
      Framebuffer fb(w_.scene.width(), w_.scene.height());
      now::TraceStats stats;
      {
        SpanRecorder::Scope s(&rec_, "trace.render", f);
        now::Tracer tracer(*world, *accel, w_.config.coherence.trace);
        stats = now::render_frame(&tracer, &fb);
      }
      counts_.plain_rays += stats.total_rays();
      counts_.plain_shadow_rays += stats.shadow_rays;
      counts_.plain_pixels += fb.pixel_count();
      plain_ok_.push_back(fb == reference_[static_cast<std::size_t>(f)]);
    }
  }

  void group(const ReplayGroup& g) {
    const int width = w_.scene.width();
    const int height = w_.scene.height();
    std::vector<std::unique_ptr<now::CoherentRenderer>> renderers(
        g.tasks.size());
    std::vector<Framebuffer> task_fb(g.tasks.size());
    std::vector<std::vector<now::Rgb8>> worker_prev(g.tasks.size());
    std::vector<std::vector<now::Rgb8>> shard_prev(g.tasks.size());
    now::CoherenceOptions opts = w_.config.coherence;
    opts.metrics = nullptr;
    for (int i = 0; i < g.frames; ++i) {
      const int f = g.scene_first + i;      // scene frame
      const int id = g.frame_base + i;      // frame id in spans and sinks
      // Sinks and key-frame boundaries see the farm's frame numbering.
      const int farm_frame = w_.config.service.enabled ? id : f;
      now::FrameSink& sink =
          *sinks_[static_cast<std::size_t>(
              map_.sharded() ? map_.shard_of(farm_frame) : 0)];
      Framebuffer assembled(width, height);
      std::int64_t area = 0;
      for (std::size_t t = 0; t < g.tasks.size(); ++t) {
        const ReplayTask& task = g.tasks[t];
        if (f < task.first || f >= task.first + task.count) continue;
        SpanRecorder::Scope tf(&rec_, "task_frame", id, task.id);
        if (renderers[t] == nullptr) {
          SpanRecorder::Scope s(&rec_, "core.renderer_init", id, task.id);
          renderers[t] = std::make_unique<now::CoherentRenderer>(
              w_.scene, task.region, opts);
          task_fb[t] = Framebuffer(width, height);
        }
        now::FrameRenderResult r;
        {
          const int span = rec_.begin("core.render_frame", id, task.id);
          r = renderers[t]->render_frame(f, &task_fb[t]);
          rec_.end(span);
          const double seconds =
              rec_.spans()[static_cast<std::size_t>(span)].duration();
          (r.full_render ? counts_.full_frame_s : counts_.incremental_frame_s)
              .push_back(seconds);
          if (!r.chunks.empty()) {
            double chunk_end = 0.0;
            for (const now::ChunkTiming& c : r.chunks) {
              chunk_end = std::max(chunk_end, c.start_seconds + c.seconds);
            }
            counts_.serial_outside_chunks.push_back(seconds - chunk_end);
          }
        }
        count_render(r, *renderers[t]);

        // Worker side: the payload the worker would send for this frame.
        const bool dense =
            r.full_render || !w_.config.sparse_returns ||
            map_.key_frame_boundary(farm_frame);
        now::FrameResult msg;
        std::string bytes;
        {
          SpanRecorder::Scope s(&rec_, "image.payload_encode", id, task.id);
          msg.payload = worker_payload(task_fb[t], task.region, r, dense,
                                       &worker_prev[t]);
          bytes = now::encode_payload(msg.payload);
        }
        const std::uint8_t kind =
            dense ? now::kFrameKindKey : now::kFrameKindDelta;
        std::string wire;
        {
          SpanRecorder::Scope s(&rec_, "net.codec_encode", id, task.id);
          wire = now::encode_frame_payload(bytes, kind, codec_);
        }
        counts_.frame_bytes_raw += static_cast<std::int64_t>(bytes.size());
        counts_.frame_bytes_wire += static_cast<std::int64_t>(wire.size());
        {
          SpanRecorder::Scope s(&rec_, "par.frame_result_codec", id, task.id);
          msg.task_id = task.id;
          msg.frame = farm_frame;
          msg.rays = r.stats.total_rays();
          msg.shadow_rays = r.stats.shadow_rays;
          msg.pixels_recomputed = r.pixels_recomputed;
          msg.full_render = r.full_render ? 1 : 0;
          now::FrameResult back;
          if (!now::decode_frame_result(
                  &back, now::encode_frame_result(msg, codec_))) {
            codec_ok_ = false;
          }
        }

        // Shard side: decode against the committed predecessor, apply,
        // commit the region.
        std::string decoded;
        std::uint8_t decoded_kind = 0;
        {
          SpanRecorder::Scope s(&rec_, "net.codec_decode", id, task.id);
          if (!now::decode_frame_payload(&decoded, &decoded_kind, wire)) {
            codec_ok_ = false;
          }
        }
        {
          SpanRecorder::Scope s(&rec_, "image.payload_apply", id, task.id);
          now::PixelPayload p;
          if (!now::decode_payload(&p, decoded)) codec_ok_ = false;
          if (!p.dense) assembled.blit(task.region, shard_prev[t]);
          now::apply_payload(&assembled, p);
          shard_prev[t] = assembled.extract(task.region);
        }
        {
          SpanRecorder::Scope s(&rec_, "shard.region_commit", id, task.id);
          sink.commit_region(task.id, task.region, farm_frame, assembled);
        }
        area += task.region.area();
        if (f + 1 == task.first + task.count) renderers[t].reset();
      }

      // Every region of the frame committed: the shard completes it.
      frame_ok_.push_back(area == static_cast<std::int64_t>(width) * height &&
                          assembled == reference_[static_cast<std::size_t>(f)]);
      if (w_.durable) {
        SpanRecorder::Scope s(&rec_, "image.tga_write", id);
        now::write_tga_atomic(
            assembled, now::frame_file_path(work_dir_, "replay", farm_frame));
      }
      SpanRecorder::Scope s(&rec_, "shard.frame_complete", id);
      sink.complete_frame(farm_frame, assembled);
    }
  }

  void journal_replay(const std::string& journal) {
    if (journal.empty()) return;
    SpanRecorder::Scope s(&rec_, "ckpt.replay");
    bool ok = now::replay_journal(journal).ok;
    if (map_.sharded()) {
      for (int i = 0; i < map_.shard_count; ++i) {
        ok = now::replay_journal(now::shard_journal_path(journal, i)).ok && ok;
      }
    }
    journal_ok_ = ok;
  }

  SpanRecorder& recorder() { return rec_; }

  ReplayResult finish() {
    ReplayResult out;
    out.spans = rec_.spans();
    out.counts = counts_;
    out.frame_ok = frame_ok_;
    out.frame_ok.insert(out.frame_ok.end(), plain_ok_.begin(),
                        plain_ok_.end());
    if (!codec_ok_ || !journal_ok_) {
      out.frame_ok.assign(out.frame_ok.size(), false);
    }
    return out;
  }

 private:
  void count_render(const now::FrameRenderResult& r,
                    const now::CoherentRenderer& renderer) {
    counts_.pixels_recomputed += r.pixels_recomputed;
    counts_.pixels_total += r.pixels_total;
    counts_.voxels_marked += r.voxels_marked;
    counts_.dirty_voxels += r.dirty_voxels;
    if (r.full_render) {
      ++counts_.full_renders;
      counts_.full_render_pixels += r.pixels_total;
    }
    counts_.peak_mark_bytes = std::max(
        counts_.peak_mark_bytes, renderer.coherence_grid().stats().bytes());
  }

  // The worker's payload choice: dense key frames where coherence restarts,
  // otherwise the recomputed pixels, value-diffed against the previous
  // frame under the delta codec (only real changes go on the wire).
  now::PixelPayload worker_payload(const Framebuffer& fb,
                                   const PixelRect& region,
                                   const now::FrameRenderResult& r, bool dense,
                                   std::vector<now::Rgb8>* prev) const {
    if (dense || !track_delta_) {
      if (track_delta_) *prev = fb.extract(region);
      return dense ? now::make_dense_payload(fb, region)
                   : now::make_sparse_payload(fb, region, r.recomputed);
    }
    now::PixelMask changed(fb.width(), fb.height());
    int idx = 0;
    for (int y = region.y0; y < region.y0 + region.height; ++y) {
      for (int x = region.x0; x < region.x0 + region.width; ++x, ++idx) {
        if (!r.recomputed.at(x, y)) continue;
        const now::Rgb8 c = fb.at(x, y);
        if (c != (*prev)[static_cast<std::size_t>(idx)]) {
          changed.set(x, y, true);
          (*prev)[static_cast<std::size_t>(idx)] = c;
        }
      }
    }
    return now::make_sparse_payload(fb, region, changed);
  }

  const Workload& w_;
  const std::vector<Framebuffer>& reference_;
  std::string work_dir_;
  now::ShardMap map_;
  now::FrameCodec codec_ = now::FrameCodec::kRaw;
  bool track_delta_ = false;
  std::vector<std::unique_ptr<now::FrameSink>> sinks_;
  SpanRecorder rec_;
  ReplayCounts counts_;
  std::vector<bool> frame_ok_;
  std::vector<bool> plain_ok_;
  bool codec_ok_ = true;
  bool journal_ok_ = true;
};

std::vector<ReplayTask> tasks_for(const Workload& w, int first, int frames) {
  now::PartitionConfig partition = w.config.partition;
  if (partition.scheme == now::PartitionScheme::kSequenceDivision &&
      partition.sequence_cuts.empty()) {
    for (const auto& shot : w.scene.split_shots()) {
      if (shot.first_frame > 0) {
        partition.sequence_cuts.push_back(shot.first_frame);
      }
    }
  }
  std::vector<ReplayTask> out;
  for (const now::RenderTask& t : now::make_initial_tasks(
           partition, w.scene.width(), w.scene.height(), frames,
           w.config.workers)) {
    out.push_back({t.task_id, t.region, first + t.first_frame, t.frame_count});
  }
  return out;
}

}  // namespace

ReplayResult run_stage_replay(const Workload& workload,
                              const std::vector<Framebuffer>& reference,
                              const std::string& work_dir,
                              const std::string& farm_journal) {
  Replayer replayer(workload, reference, work_dir);
  const int root = replayer.recorder().begin("replay");
  replayer.plain_frames();
  if (workload.config.service.enabled) {
    int base = 0;
    for (const now::ClientScript& client : workload.config.service.clients) {
      for (const now::ClientAction& a : client.actions) {
        if (a.kind != now::ClientActionKind::kSubmit) continue;
        ReplayGroup g;
        g.scene_first = a.submit.first_frame;
        g.frames = a.submit.frame_count;
        g.frame_base = base;
        g.tasks = tasks_for(workload, g.scene_first, g.frames);
        replayer.group(g);
        base += g.frames;
      }
    }
  } else {
    ReplayGroup g;
    g.frames = workload.scene.frame_count();
    g.tasks = tasks_for(workload, 0, g.frames);
    replayer.group(g);
  }
  replayer.journal_replay(farm_journal);
  replayer.recorder().end(root);
  return replayer.finish();
}

}  // namespace farmbench
