#include "src/par/status_json.h"

#include <cmath>
#include <cstdio>

#include "src/par/master.h"

namespace now {
namespace {

void append_json_double(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");  // JSON cannot carry inf/nan
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

std::string status_json(double now, bool stopping, double throughput_fps,
                        const MasterReport& report, const ShotQueue& queue,
                        const WorkerTable& workers,
                        const StragglerDetector& straggler,
                        const ShardMap& shards, const ShardTable& shard_table,
                        const FrameLedger& ledger) {
  std::string j = "{";
  j += "\"now\": ";
  append_json_double(&j, now);
  j += ", \"stopping\": ";
  j += stopping ? "true" : "false";
  j += ", \"pending_tasks\": " + std::to_string(queue.depth());
  j += ", \"frames_completed\": " + std::to_string(report.frames_completed);
  j += ", \"frame_results\": " + std::to_string(report.frame_results);
  j += ", \"straggler_flags\": " + std::to_string(report.straggler_flags);
  j += ", \"telemetry_samples\": " + std::to_string(report.telemetry_samples);
  j += ", \"throughput_fps\": ";
  append_json_double(&j, throughput_fps);
  j += ", \"workers\": [";
  bool first = true;
  for (int w = 1; w < workers.end_rank(); ++w) {
    const WorkerTable::Worker& s = workers[w];
    if (!first) j += ", ";
    first = false;
    j += "{\"rank\": " + std::to_string(w);
    j += ", \"state\": \"" + std::string(to_string(s.phase)) + "\"";
    j += ", \"task\": " + std::to_string(s.assigned() ? s.task.task_id : -1);
    j += ", \"next_expected\": " + std::to_string(s.next_expected);
    j += ", \"end_frame\": " + std::to_string(s.end_frame);
    j += ", \"last_heard\": ";
    append_json_double(&j, s.lease.last_heard);
    j += ", \"straggler\": ";
    j += straggler.is_straggler(w) ? "true" : "false";
    j += "}";
  }
  j += "], \"stragglers\": [";
  first = true;
  for (const int w : straggler.stragglers()) {
    if (!first) j += ", ";
    first = false;
    j += std::to_string(w);
  }
  j += "]";
  if (shards.sharded()) {
    j += ", \"shards\": [";
    for (int i = 0; i < shards.shard_count; ++i) {
      if (i > 0) j += ", ";
      const auto range = shards.range_of(i);
      std::int64_t done = 0;
      for (int f = range.first; f < range.second; ++f) {
        done += ledger.complete(f) ? 1 : 0;
      }
      j += "{\"shard\": " + std::to_string(i);
      j += ", \"rank\": " + std::to_string(shards.rank_of_shard(i));
      j += ", \"first_frame\": " + std::to_string(range.first);
      j += ", \"end_frame\": " + std::to_string(range.second);
      j += ", \"frames_done\": " + std::to_string(done);
      j += ", \"dead\": ";
      j += shard_table.dead(i) ? "true" : "false";
      j += "}";
    }
    j += "]";
  }
  j += ", \"tenants\": [";
  first = true;
  for (const ShotQueue::Tenant& t : queue.tenants()) {
    if (!first) j += ", ";
    first = false;
    j += "{\"name\": \"" + t.name + "\"";
    j += ", \"weight\": ";
    append_json_double(&j, t.weight);
    j += ", \"quota\": " + std::to_string(t.quota);
    j += ", \"inflight\": " + std::to_string(t.inflight);
    j += ", \"tasks_assigned\": " + std::to_string(t.tasks_assigned);
    j += ", \"units_assigned\": " + std::to_string(t.units_assigned);
    j += ", \"frames_committed\": " + std::to_string(t.frames_committed);
    j += "}";
  }
  j += "], \"shots\": [";
  first = true;
  for (const ShotQueue::Shot& s : queue.shots()) {
    if (s.tenant_id < 0) continue;  // the solo render's shot
    if (!first) j += ", ";
    first = false;
    j += "{\"shot\": " + std::to_string(s.shot_id);
    j += ", \"tenant\": \"" + s.tenant + "\"";
    j += ", \"phase\": \"" + std::string(to_string(s.phase)) + "\"";
    j += ", \"frames_done\": " + std::to_string(s.frames_done);
    j += ", \"frame_count\": " + std::to_string(s.frame_count);
    j += ", \"queued_tasks\": " + std::to_string(s.queue.size());
    j += "}";
  }
  j += "]";
  j += "}\n";
  return j;
}

}  // namespace now
