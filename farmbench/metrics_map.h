// Every metric the benchmark reports, with its unit, direction, and the
// clock or counter it comes from. Times come only from the benchmark's own
// steady_clock or getrusage, from wall-clock farm fields, or from trace
// spans; the farm's cost-model fields are never reported as time.
#pragma once

#include <string>
#include <vector>

namespace farmbench {

enum class Source {
  kSteadyClock,   // the benchmark's own std::chrono::steady_clock
  kRusage,        // getrusage(RUSAGE_SELF)
  kFarmWallField, // a wall-clock field the farm records (worker.chunk_seconds)
  kFarmTrace,     // UtilizationReport over the traced farm run's spans
  kReplaySpans,   // stage-replay spans (steady_clock)
  kCount,         // a count or byte total (program counter or replay tally)
  kDerived,       // a ratio of other entries of this table
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
  bool end_to_end = false;  // reported with --trace 0, else with --trace 1
  Source source = Source::kCount;
  std::string origin;  // what exactly is read
};

/// The complete metric -> source map, end-to-end metrics first.
const std::vector<MetricDef>& metric_defs();

/// Farm fields that carry cost-model (reference-machine) seconds even on
/// wall-clock backends. No metric may be read from them.
const std::vector<std::string>& cost_model_fields();

}  // namespace farmbench
