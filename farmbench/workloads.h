// The benchmark's workloads: one generated scene (or shot list) plus the
// farm configuration that renders it. Everything is a pure function of the
// workload name and the seed, so the same seed gives the same inputs.
#pragma once

#include <cstdint>
#include <string>

#include "src/par/render_farm.h"
#include "src/scene/animated_scene.h"

namespace farmbench {

struct Workload {
  std::string name;
  now::AnimatedScene scene;
  /// Farm configuration minus the per-run paths (output_dir, journal_path),
  /// which each timed run fills with fresh directories.
  now::FarmConfig config;
  /// Write TGAs to disk and keep an fsync'd journal (cradle_journal).
  bool durable = false;
  /// Frames a correct run delivers: the scene's frame count in classic
  /// mode, the sum of every submitted shot's frames in service mode.
  int expected_frames = 0;
};

/// Generate `name` from `seed`. Throws std::invalid_argument on an unknown
/// name. Runs no render: this plus validate_farm_config is the set-up time.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Point `config` at fresh per-run output and journal locations under
/// `run_dir` (which the caller has just emptied and created).
void set_run_paths(const Workload& workload, const std::string& run_dir,
                   now::FarmConfig* config);

}  // namespace farmbench
