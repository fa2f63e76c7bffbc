// ShardMap: the static frame-ownership map of the framebuffer.
//
// With --shards N > 1 the scheduler (rank 0) is joined by N remote
// framebuffer/IO shards (ranks worker_count+1 .. worker_count+N), each
// owning a disjoint contiguous range of frames. Workers commit rendered
// frames directly to the owning shard — pixels never touch the scheduler —
// and the scheduler keeps the lease/reassignment/speculation machinery fed
// by per-commit digests from the shards.
//
// The map is pure arithmetic over (frame_count, shard_count): every rank
// computes the same owner for a frame with no coordination, the same
// balanced-contiguous convention as split_frames() (the first
// frame_count % shard_count shards get one extra frame). shard_count <= 1
// means one frame store colocated with the scheduler: owner_rank() is
// always 0, there are no shard ranks and no key-frame boundaries, and the
// scheduler commits results through its own store.
#pragma once

#include <utility>

namespace now {

struct ShardMap {
  int shard_count = 1;
  /// Ranks 1..worker_count are workers; shard ranks start after them.
  int worker_count = 0;
  int frame_count = 0;

  /// True when the shards are remote ranks (shard_count > 1); otherwise the
  /// single store is colocated with the scheduler.
  bool sharded() const { return shard_count > 1; }

  /// World size implied by the map: scheduler + workers (+ shards).
  int world_size() const {
    return 1 + worker_count + (sharded() ? shard_count : 0);
  }

  /// Index of the shard owning `frame` (0-based; frame in [0, frame_count)).
  int shard_of(int frame) const;

  /// Owned frame range [first, end) of shard `shard`.
  std::pair<int, int> range_of(int shard) const;

  /// World rank of shard `shard`.
  int rank_of_shard(int shard) const { return 1 + worker_count + shard; }

  /// Destination rank for a frame result: the owning shard, or the master
  /// when the map is unsharded.
  int owner_rank(int frame) const {
    return sharded() ? rank_of_shard(shard_of(frame)) : 0;
  }

  /// True when `frame` starts a new shard's range: its predecessor lives on
  /// a different shard, so a sparse delta against it could not be decoded
  /// by the owner. Workers promote these frames to dense key frames.
  bool key_frame_boundary(int frame) const {
    return sharded() && frame > 0 && shard_of(frame) != shard_of(frame - 1);
  }
};

}  // namespace now
