#include "spans.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace farmbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::begin(const std::string& name, int frame, int tile) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.frame = frame;
  s.tile = tile;
  s.start = now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int id) {
  assert(!open_.empty() && open_.back() == id);
  spans_[static_cast<std::size_t>(id)].end = now();
  open_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}

double self_time_of(const std::vector<Span>& spans,
                    const std::vector<std::string>& names) {
  const std::vector<double> self = self_times(spans);
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::find(names.begin(), names.end(), spans[i].name) != names.end()) {
      total += self[i];
    }
  }
  return total;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"frame\":%d,\"tile\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                  s.duration() * 1e6, i, s.parent, s.frame, s.tile);
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

}  // namespace farmbench
