// Correctness checks: every frame a run delivers is compared byte for byte
// with a plain render_world reference; durable runs are also checked on
// disk and through their journal, service runs shot by shot. A frame fails
// if any check of it fails; the failure share is failed / attempted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/image/framebuffer.h"
#include "src/par/render_farm.h"
#include "src/scene/animated_scene.h"

namespace farmbench {

struct FrameTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// The first few failure descriptions, for the log.
  std::vector<std::string> notes;

  /// Fold one run's per-frame verdicts (true = frame correct).
  void add(const std::vector<bool>& frame_ok, const std::string& label);
  double failed_frac() const {
    return attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
  }
};

/// Plain render_world of every frame of `scene`, computed on `threads`
/// threads (frames are independent; each is one serial render).
std::vector<now::Framebuffer> render_reference(const now::AnimatedScene& scene,
                                               const now::TraceOptions& trace,
                                               int threads);

/// ok[f] &= (got[f] == reference[f]); a frame absent from `got` fails.
void check_frames(const std::vector<now::Framebuffer>& got,
                  const std::vector<now::Framebuffer>& reference,
                  std::vector<bool>* ok);

/// ok[f] &= the TGA of frame f under dir/prefix exists and equals
/// reference[f].
void check_frame_files(const std::string& dir, const std::string& prefix,
                       const std::vector<now::Framebuffer>& reference,
                       std::vector<bool>* ok);

/// Replay the run's journal (the scheduler journal plus one segment per
/// shard when shard_count > 1): ok[f] &= frame f has a frame-complete
/// record whose digest matches reference[f]. An unreadable journal or a
/// torn tail fails every frame.
void check_journal(const std::string& journal_path, int shard_count,
                   const std::vector<now::Framebuffer>& reference,
                   std::vector<bool>* ok);

/// Service run: one verdict per submitted shot frame, in submit order per
/// client. A shot that is missing or ends anywhere but kDone fails all its
/// frames; a done shot's frames must equal the reference frames of its
/// scene range.
std::vector<bool> check_shots(const now::FarmResult& result,
                              const now::ServiceConfig& service,
                              const std::vector<now::Framebuffer>& reference);

/// Flip one byte of one pixel: the deliberate fault the self-test injects.
void alter_one_pixel(now::Framebuffer* fb);

}  // namespace farmbench
