#include "check.h"

#include <algorithm>
#include <thread>

#include "src/ckpt/journal.h"
#include "src/ckpt/recovery.h"
#include "src/image/image_io.h"
#include "src/trace/render.h"

namespace farmbench {

void FrameTally::add(const std::vector<bool>& frame_ok,
                     const std::string& label) {
  for (std::size_t f = 0; f < frame_ok.size(); ++f) {
    ++attempted;
    if (frame_ok[f]) continue;
    ++failed;
    if (notes.size() < 8) {
      notes.push_back(label + ": frame " + std::to_string(f) + " wrong");
    }
  }
}

std::vector<now::Framebuffer> render_reference(const now::AnimatedScene& scene,
                                               const now::TraceOptions& trace,
                                               int threads) {
  const int frames = scene.frame_count();
  std::vector<now::Framebuffer> out(static_cast<std::size_t>(frames));
  std::vector<std::thread> pool;
  const int n = std::max(1, std::min(threads, frames));
  for (int t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (int f = t; f < frames; f += n) {
        out[static_cast<std::size_t>(f)] = now::render_world(
            scene.world_at(f), scene.width(), scene.height(), trace);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

void check_frames(const std::vector<now::Framebuffer>& got,
                  const std::vector<now::Framebuffer>& reference,
                  std::vector<bool>* ok) {
  for (std::size_t f = 0; f < reference.size(); ++f) {
    if (f >= got.size() || !(got[f] == reference[f])) (*ok)[f] = false;
  }
}

void check_frame_files(const std::string& dir, const std::string& prefix,
                       const std::vector<now::Framebuffer>& reference,
                       std::vector<bool>* ok) {
  for (std::size_t f = 0; f < reference.size(); ++f) {
    now::Framebuffer fb;
    const std::string path =
        now::frame_file_path(dir, prefix, static_cast<int>(f));
    if (!now::read_tga(&fb, path) || !(fb == reference[f])) (*ok)[f] = false;
  }
}

void check_journal(const std::string& journal_path, int shard_count,
                   const std::vector<now::Framebuffer>& reference,
                   std::vector<bool>* ok) {
  std::vector<std::string> segments;
  if (shard_count > 1) {
    for (int i = 0; i < shard_count; ++i) {
      segments.push_back(now::shard_journal_path(journal_path, i));
    }
  } else {
    segments.push_back(journal_path);
  }
  std::vector<bool> complete(reference.size(), false);
  bool readable = true;
  for (const std::string& path : segments) {
    const now::JournalReplay replay = now::replay_journal(path);
    if (!replay.ok || replay.truncated_tail) {
      readable = false;
      continue;
    }
    for (const auto& [frame, digest] : replay.frame_digest) {
      const auto f = static_cast<std::size_t>(frame);
      if (frame >= 0 && f < reference.size() &&
          digest == now::digest_frame(reference[f])) {
        complete[f] = true;
      }
    }
  }
  if (shard_count > 1) {
    // The scheduler journal carries checkpoints only, but must replay too.
    const now::JournalReplay sched = now::replay_journal(journal_path);
    readable = readable && sched.ok && !sched.truncated_tail;
  }
  for (std::size_t f = 0; f < reference.size(); ++f) {
    if (!readable || !complete[f]) (*ok)[f] = false;
  }
}

std::vector<bool> check_shots(const now::FarmResult& result,
                              const now::ServiceConfig& service,
                              const std::vector<now::Framebuffer>& reference) {
  std::vector<bool> ok;
  for (std::size_t c = 0; c < service.clients.size(); ++c) {
    const now::ClientScript& script = service.clients[c];
    int submit = 0;
    for (const now::ClientAction& action : script.actions) {
      if (action.kind != now::ClientActionKind::kSubmit) continue;
      const int slot = submit++;
      const now::FarmResult::ShotResult* shot = nullptr;
      if (c < result.clients.size()) {
        const auto& ids = result.clients[c].shot_ids;
        if (slot < static_cast<int>(ids.size()) && ids[slot] >= 0) {
          for (const auto& s : result.shots) {
            if (s.summary.shot_id == ids[slot]) shot = &s;
          }
        }
      }
      for (int i = 0; i < action.submit.frame_count; ++i) {
        const std::size_t ref =
            static_cast<std::size_t>(action.submit.first_frame + i);
        ok.push_back(shot != nullptr &&
                     shot->summary.phase == now::ShotPhase::kDone &&
                     shot->summary.scene_first_frame ==
                         action.submit.first_frame &&
                     i < static_cast<int>(shot->frames.size()) &&
                     ref < reference.size() &&
                     shot->frames[static_cast<std::size_t>(i)] ==
                         reference[ref]);
      }
    }
  }
  return ok;
}

void alter_one_pixel(now::Framebuffer* fb) {
  const int x = fb->width() / 2;
  const int y = fb->height() / 2;
  now::Rgb8 c = fb->at(x, y);
  c.r = static_cast<std::uint8_t>(c.r ^ 0x01);
  fb->set(x, y, c);
}

}  // namespace farmbench
