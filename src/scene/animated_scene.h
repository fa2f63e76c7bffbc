// AnimatedScene: the full animation description — objects with animators,
// materials, lights, per-shot cameras, frame count and frame rate.
//
// A World (one frame of world-space geometry) is instantiated per frame;
// object ids are stable across frames, which is what lets the coherence
// change detector match moving objects between consecutive frames.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/scene/animator.h"
#include "src/trace/world.h"

namespace now {

struct SceneObject {
  std::string name;
  std::unique_ptr<Primitive> local;      // local-space geometry
  int material_id = 0;
  std::unique_ptr<Animator> animator;    // nullptr means static
};

/// A light with an optional motion track. A moving light invalidates every
/// pixel (any shadow or shading term can change), so the coherent renderer
/// falls back to a full render across frames where a light moved — correct
/// and conservative, matching the voxel algorithm's scope (it tracks object
/// motion only).
struct SceneLight {
  Light base;
  std::unique_ptr<Animator> animator;  // nullptr means static
};

/// A camera cut: `camera` applies from `first_frame` until the next cut.
struct CameraCut {
  int first_frame = 0;
  Camera camera;
};

class AnimatedScene {
 public:
  AnimatedScene() = default;
  AnimatedScene(AnimatedScene&&) = default;
  AnimatedScene& operator=(AnimatedScene&&) = default;

  AnimatedScene clone() const;

  // -- authoring -----------------------------------------------------------
  int add_material(const Material& m);
  /// Pre-size object storage for a builder that knows its inventory.
  void reserve_objects(int count) {
    objects_.reserve(static_cast<std::size_t>(count));
  }
  int add_object(std::string name, std::unique_ptr<Primitive> local,
                 int material_id, std::unique_ptr<Animator> animator = nullptr);
  void add_light(const Light& light,
                 std::unique_ptr<Animator> animator = nullptr);
  void set_camera(const Camera& c);             // single shot
  void add_camera_cut(int first_frame, const Camera& c);
  void set_frames(int count, double fps);
  void set_background(const Color& c);
  void set_resolution(int width, int height);

  // -- queries -------------------------------------------------------------
  int frame_count() const { return frame_count_; }
  double fps() const { return fps_; }
  double frame_time(int frame) const { return frame / fps_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int object_count() const { return static_cast<int>(objects_.size()); }
  const SceneObject& object(int id) const { return objects_[id]; }
  int material_count() const { return static_cast<int>(materials_.size()); }
  const Material& material(int id) const { return materials_[id]; }
  int light_count() const { return static_cast<int>(lights_.size()); }
  /// Light `i` evaluated at `frame` (animator applied).
  Light light_at(int i, int frame) const;
  const Color& background() const { return background_; }

  /// Transform of object `id` at `frame`.
  Transform object_transform(int id, int frame) const;

  /// Did the object's transform change between the two frames?
  bool object_changed(int id, int frame_a, int frame_b) const;

  /// Object ids whose transform differs between the two frames.
  std::vector<int> changed_objects(int frame_a, int frame_b) const;

  const Camera& camera_at(int frame) const;
  bool camera_changed(int frame_a, int frame_b) const;

  /// Did any light move between the two frames?
  bool lights_changed(int frame_a, int frame_b) const;

  /// Instantiate the world-space geometry of `frame`.
  World world_at(int frame) const;

  /// Frame ranges [first, last] with a constant camera — the independent
  /// shots the paper parallelizes over (camera movement "logically separates
  /// one sequence from another").
  struct Shot {
    int first_frame = 0;
    int frame_count = 0;
  };
  std::vector<Shot> split_shots() const;

 private:
  std::vector<SceneObject> objects_;
  std::vector<Material> materials_;
  std::vector<SceneLight> lights_;
  std::vector<CameraCut> cuts_{{0, Camera{}}};
  int frame_count_ = 1;
  double fps_ = 15.0;
  int width_ = 320;
  int height_ = 240;
  Color background_{0.05, 0.05, 0.08};
};

}  // namespace now
