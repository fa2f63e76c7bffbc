// The scheduler's /status document (StatusServer's /status endpoint,
// published on every telemetry sample tick): per-worker lease and task
// state, queue depth, per-shard completion and liveness, stragglers,
// tenants, shots and recent throughput. A pure rendering of the scheduler's
// tables, so the master only decides when to publish it.
#pragma once

#include <string>

#include "src/obs/straggler.h"
#include "src/par/shot_queue.h"
#include "src/par/worker_table.h"
#include "src/shard/frame_ledger.h"
#include "src/shard/ownership.h"

namespace now {

struct MasterReport;

/// `throughput_fps` is the windowed sched.frames_committed rate; the shard
/// array appears only when `shards` is sharded.
std::string status_json(double now, bool stopping, double throughput_fps,
                        const MasterReport& report, const ShotQueue& queue,
                        const WorkerTable& workers,
                        const StragglerDetector& straggler,
                        const ShardMap& shards, const ShardTable& shard_table,
                        const FrameLedger& ledger);

}  // namespace now
