// In-memory span recorder for the stage replay, plus the arithmetic the
// benchmark reports from it: self time (a span's duration minus the part of
// its interval its children cover), per-stage totals, and a Chrome-trace
// JSON export. Spans are timed on the benchmark's own steady_clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace farmbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's origin
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 for a root
  int frame = -1;      // (frame, tile) id of the work the span covers
  int tile = -1;
  double duration() const { return end - start; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  /// Open a span as a child of the innermost open span.
  int begin(const std::string& name, int frame = -1, int tile = -1);
  /// Close span `id`, which must be the innermost open span.
  void end(int id);
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII helper: begin on construction, end on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const std::string& name, int frame = -1,
          int tile = -1)
        : rec_(rec), id_(rec->begin(name, frame, tile)) {}
    ~Scope() { rec_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int id_;
  };

 private:
  double now() const;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own. Index-aligned with `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self-time samples grouped by span name (one sample per span).
std::map<std::string, std::vector<double>> self_time_by_name(
    const std::vector<Span>& spans);

/// Total self time of the spans named in `names`.
double self_time_of(const std::vector<Span>& spans,
                    const std::vector<std::string>& names);

/// Chrome trace-event JSON ("X" events, microseconds) of `spans`.
std::string chrome_trace_json(const std::vector<Span>& spans);

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v);

}  // namespace farmbench
