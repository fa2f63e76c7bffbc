#include "src/core/coherent_renderer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace now {

namespace {

/// Rows per parallel render chunk. Fixed (not derived from thread count) so
/// the chunk decomposition — and therefore the merged mark order — is a pure
/// function of the region, independent of `threads`.
constexpr int kChunkRows = 4;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

Aabb animation_extent(const AnimatedScene& scene) {
  Aabb extent;
  for (int frame = 0; frame < scene.frame_count(); ++frame) {
    extent.absorb(scene.world_at(frame).bounded_extent());
  }
  return extent;
}

CoherentRenderer::CoherentRenderer(const AnimatedScene& scene,
                                   const PixelRect& region,
                                   const CoherenceOptions& options)
    : scene_(scene),
      region_(region),
      options_(options),
      threads_(resolve_thread_count(options.threads)) {
  const VoxelGrid voxels =
      options_.grid_override.has_value()
          ? *options_.grid_override
          : VoxelGrid::heuristic(animation_extent(scene), scene.object_count(),
                                 options_.grid_density,
                                 options_.grid_max_axis);
  grid_ = std::make_unique<CoherenceGrid>(voxels, region);
  recorder_ =
      std::make_unique<RayRecorder>(grid_.get(), options_.record_shadow_rays);
  if (options_.metrics != nullptr) {
    metric_full_renders_ = &options_.metrics->counter("coherence.full_renders");
    metric_incremental_renders_ =
        &options_.metrics->counter("coherence.incremental_renders");
    metric_pixels_recomputed_ =
        &options_.metrics->counter("coherence.pixels_recomputed");
    metric_voxels_marked_ =
        &options_.metrics->counter("coherence.voxels_marked");
    metric_dirty_voxels_ = &options_.metrics->counter("coherence.dirty_voxels");
  }
}

void CoherentRenderer::rebuild_frame_state(int frame) {
  world_ = scene_.world_at(frame);
  accel_ = std::make_unique<UniformGridAccelerator>(world_);
  tracer_ = std::make_unique<Tracer>(world_, *accel_, options_.trace);
  tracer_->set_listener(options_.enabled ? recorder_.get() : nullptr);
}

FrameRenderResult CoherentRenderer::render_frame(int frame, Framebuffer* fb) {
  assert(fb->width() >= region_.x0 + region_.width &&
         fb->height() >= region_.y0 + region_.height);
  // A camera or light move invalidates everything the grid knows: restart
  // with a full render (lights are outside the voxel change model).
  const bool continues_sequence =
      options_.enabled && last_frame_ >= 0 && frame == last_frame_ + 1 &&
      !scene_.camera_changed(last_frame_, frame) &&
      !scene_.lights_changed(last_frame_, frame);

  FrameRenderResult result;
  if (continues_sequence) {
    result = incremental_render(frame, fb);
  } else {
    grid_->reset();
    rebuild_frame_state(frame);
    result = full_render(fb);
  }
  last_frame_ = frame;
  if (options_.metrics != nullptr) {
    (result.full_render ? metric_full_renders_ : metric_incremental_renders_)
        ->inc();
    metric_pixels_recomputed_->inc(
        static_cast<std::uint64_t>(result.pixels_recomputed));
    metric_voxels_marked_->inc(
        static_cast<std::uint64_t>(result.voxels_marked));
    metric_dirty_voxels_->inc(static_cast<std::uint64_t>(result.dirty_voxels));
  }
  return result;
}

void CoherentRenderer::render_pixels_parallel(const PixelMask* mask,
                                              bool bump_epochs,
                                              Framebuffer* fb,
                                              FrameRenderResult* result) {
  const int chunk_count = (region_.height + kChunkRows - 1) / kChunkRows;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads_);
    mark_stamp_.assign(
        static_cast<std::size_t>(threads_),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(grid_->grid().cell_count()), 0));
    mark_serial_.assign(static_cast<std::size_t>(threads_), 0);
  }

  struct ChunkState {
    int y0 = 0;
    int rows = 0;
    int worker = 0;
    std::int64_t pixels = 0;
    TraceStats stats;
    std::unique_ptr<BufferedRayRecorder> recorder;
    double start_seconds = 0.0;
    double seconds = 0.0;
  };
  std::vector<ChunkState> chunks(static_cast<std::size_t>(chunk_count));

  const auto frame_start = std::chrono::steady_clock::now();
  pool_->parallel_for(chunk_count, [&](int c, int worker) {
    ChunkState& chunk = chunks[static_cast<std::size_t>(c)];
    const auto chunk_start = std::chrono::steady_clock::now();
    chunk.worker = worker;
    chunk.y0 = region_.y0 + c * kChunkRows;
    chunk.rows = std::min(kChunkRows, region_.y0 + region_.height - chunk.y0);
    Tracer tracer(world_, *accel_, options_.trace);
    if (options_.enabled) {
      chunk.recorder = std::make_unique<BufferedRayRecorder>(
          grid_->grid(), options_.record_shadow_rays,
          &mark_stamp_[static_cast<std::size_t>(worker)],
          &mark_serial_[static_cast<std::size_t>(worker)]);
      tracer.set_listener(chunk.recorder.get());
    }
    for (int y = chunk.y0; y < chunk.y0 + chunk.rows; ++y) {
      for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
        if (mask != nullptr && !mask->at(x, y)) continue;
        if (chunk.recorder != nullptr) chunk.recorder->begin_pixel(x, y);
        fb->set(x, y, tracer.shade_pixel(x, y, fb->width(), fb->height()));
        ++chunk.pixels;
      }
    }
    chunk.stats = tracer.stats();
    const auto chunk_end = std::chrono::steady_clock::now();
    chunk.start_seconds = seconds_between(frame_start, chunk_start);
    chunk.seconds = seconds_between(chunk_start, chunk_end);
  });

  // Deterministic merge: CoherenceGrid::merge stores the buffered marks as
  // if replayed in ascending chunk order, which reproduces the sequential
  // row-major mark order exactly; all stat counters are integers, so
  // chunked summation is byte-identical too.
  std::vector<const MarkBuffer*> buffers;
  result->chunks.reserve(static_cast<std::size_t>(chunk_count));
  for (int c = 0; c < chunk_count; ++c) {
    const ChunkState& chunk = chunks[static_cast<std::size_t>(c)];
    if (chunk.recorder != nullptr) {
      buffers.push_back(&chunk.recorder->marks());
      recorder_->accumulate(chunk.recorder->stats());
    }
    result->stats += chunk.stats;
    result->pixels_recomputed += chunk.pixels;
    result->chunks.push_back({c, chunk.worker, chunk.y0, chunk.rows,
                              chunk.start_seconds, chunk.seconds});
  }
  if (!buffers.empty()) grid_->merge(buffers, bump_epochs, pool_.get());
}

FrameRenderResult CoherentRenderer::full_render(Framebuffer* fb) {
  FrameRenderResult result;
  result.full_render = true;
  result.pixels_total = region_.area();
  result.recomputed = PixelMask(fb->width(), fb->height());
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
      result.recomputed.set(x, y, true);
    }
  }
  const std::uint64_t marks_before = recorder_->stats().voxels_visited;
  if (threads_ > 1) {
    render_pixels_parallel(/*mask=*/nullptr, /*bump_epochs=*/false, fb,
                           &result);
  } else {
    result.pixels_recomputed = region_.area();
    result.stats = render_region(tracer_.get(), fb, region_);
  }
  result.voxels_marked = static_cast<std::int64_t>(
      recorder_->stats().voxels_visited - marks_before);
  return result;
}

FrameRenderResult CoherentRenderer::incremental_render(int frame,
                                                       Framebuffer* fb) {
  FrameRenderResult result;
  result.pixels_total = region_.area();
  result.recomputed = PixelMask(fb->width(), fb->height());

  // 1. Which voxels change between the previous frame and this one?
  World next = scene_.world_at(frame);
  const std::vector<int> changed = scene_.changed_objects(last_frame_, frame);
  const DirtyVoxels dirty =
      find_dirty_voxels(grid_->grid(), world_, next, changed, &dirty_scratch_);

  // 2. Which pixels had rays through those voxels?
  // The sequential per-pixel path can shade straight off the dirty-pixel
  // list instead of rescanning the whole region against the mask; block
  // expansion and the parallel path mutate/consume the mask, so they keep
  // the scan.
  const bool use_pixel_list =
      threads_ == 1 && options_.block_size == 0 && !dirty.all_dirty;
  if (dirty.all_dirty) {
    // Everything is recomputed, so every stored mark is stale: drop them all
    // now instead of retiring pixel-by-pixel (keeping them would leak marks
    // for pixels whose rays no longer reach their old voxels).
    grid_->reset();
    for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
      for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
        result.recomputed.set(x, y, true);
      }
    }
    result.dirty_voxels = grid_->grid().cell_count();
  } else {
    dirty_pixels_.clear();
    grid_->collect_pixels(dirty.cells, &result.recomputed,
                          use_pixel_list ? &dirty_pixels_ : nullptr,
                          pool_.get());
    result.dirty_voxels = static_cast<std::int64_t>(dirty.cells.size());
  }
  if (options_.block_size > 0) expand_to_blocks(&result.recomputed);

  // 3. Advance to the new frame's geometry and recompute only those pixels.
  const std::uint64_t marks_before = recorder_->stats().voxels_visited;
  world_ = std::move(next);
  accel_ = std::make_unique<UniformGridAccelerator>(world_);
  tracer_ = std::make_unique<Tracer>(world_, *accel_, options_.trace);
  tracer_->set_listener(recorder_.get());

  if (threads_ > 1) {
    render_pixels_parallel(&result.recomputed, /*bump_epochs=*/true, fb,
                           &result);
  } else if (use_pixel_list) {
    // Ascending region-local index is exactly row-major order within the
    // region, so shading off the sorted list reproduces the masked scan —
    // same begin_pixel order, same mark order — while skipping the
    // region-area scan entirely on low-motion frames.
    std::sort(dirty_pixels_.begin(), dirty_pixels_.end());
    for (const std::uint32_t p : dirty_pixels_) {
      const int x = region_.x0 + static_cast<int>(p) % region_.width;
      const int y = region_.y0 + static_cast<int>(p) / region_.width;
      grid_->begin_pixel(x, y);
      fb->set(x, y, tracer_->shade_pixel(x, y, fb->width(), fb->height()));
    }
    result.pixels_recomputed =
        static_cast<std::int64_t>(dirty_pixels_.size());
    result.stats = tracer_->stats();  // fresh tracer: stats started at zero
  } else {
    for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
      for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
        if (!result.recomputed.at(x, y)) continue;
        grid_->begin_pixel(x, y);
        fb->set(x, y, tracer_->shade_pixel(x, y, fb->width(), fb->height()));
        ++result.pixels_recomputed;
      }
    }
    result.stats = tracer_->stats();  // fresh tracer: stats started at zero
  }
  result.voxels_marked = static_cast<std::int64_t>(
      recorder_->stats().voxels_visited - marks_before);

  grid_->maybe_compact(0.5, pool_.get());
  return result;
}

void CoherentRenderer::expand_to_blocks(PixelMask* mask) const {
  const int bs = options_.block_size;
  const int bx = (region_.width + bs - 1) / bs;
  const int by = (region_.height + bs - 1) / bs;
  std::vector<std::uint8_t> block_dirty(static_cast<std::size_t>(bx) * by, 0);
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
      if (mask->at(x, y)) {
        const int b = ((y - region_.y0) / bs) * bx + (x - region_.x0) / bs;
        block_dirty[b] = 1;
      }
    }
  }
  for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
    for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
      const int b = ((y - region_.y0) / bs) * bx + (x - region_.x0) / bs;
      if (block_dirty[b]) mask->set(x, y, true);
    }
  }
}

PixelMask CoherentRenderer::predict_dirty(int next_frame) const {
  assert(last_frame_ >= 0 && next_frame == last_frame_ + 1);
  PixelMask mask(scene_.width(), scene_.height());
  const World next = scene_.world_at(next_frame);
  const std::vector<int> changed =
      scene_.changed_objects(last_frame_, next_frame);
  const DirtyVoxels dirty =
      find_dirty_voxels(grid_->grid(), world_, next, changed);
  if (dirty.all_dirty) {
    for (int y = region_.y0; y < region_.y0 + region_.height; ++y) {
      for (int x = region_.x0; x < region_.x0 + region_.width; ++x) {
        mask.set(x, y, true);
      }
    }
  } else {
    grid_->peek_pixels(dirty.cells, &mask);
  }
  if (options_.block_size > 0) expand_to_blocks(&mask);
  return mask;
}

}  // namespace now
