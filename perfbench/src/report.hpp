// Measurement plumbing shared by the workload runners: clocks, percentiles,
// registry deltas, the span recorder of the traced run, and the report the
// measured process hands back to run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Counter and timer deltas between two registry snapshots.
struct RegistryDelta {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, peek::obs::TimerValue> timers;

  std::int64_t count(const std::string& name) const;
  std::uint64_t timer_calls(const std::string& name) const;
  void add(const RegistryDelta& other);
};
RegistryDelta registry_delta(const peek::obs::MetricsSnapshot& before,
                             const peek::obs::MetricsSnapshot& after);
inline peek::obs::MetricsSnapshot registry_now() {
  return peek::obs::MetricsRegistry::global().snapshot();
}

/// One span of the traced run: a call into a layer, with its parent span and
/// the query it served. Written as Chrome trace-event JSON ("ph": "X").
struct Span {
  std::string name;
  double start_s = 0;  // seconds since the recorder's epoch
  double dur_s = 0;
  int tid = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t query = -1;
  std::string outcome;  // optional tag, e.g. the serving outcome
};

/// Append-only span store. Not thread-safe: every load thread owns one, and
/// merge() joins them after the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch, int tid = 0, std::int64_t id0 = 0)
      : epoch_(epoch), tid_(tid), first_id_(id0), next_id_(id0) {}

  /// Records [start, end] and returns the span id.
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent,
                   std::int64_t query, std::string outcome = {});
  /// Sets the end of a span recorded earlier (opened with end == start).
  void close(std::int64_t id, Clock::time_point end);
  void merge(const SpanLog& other);
  /// Chrome trace-event JSON; opens in chrome://tracing or Perfetto.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  int tid_;
  std::int64_t first_id_;
  std::int64_t next_id_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed beside the value, e.g. "p99 of 5120"
};

/// What one measured process reports to run.py (report.json).
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;  // the BENCHMARK.json set for this mode
  std::vector<Metric> extra;    // workload-specific, printed only
  std::map<std::string, double> counters;  // work counters (per query)
  std::vector<std::pair<std::string, std::string>> meta;
  std::string error;  // non-empty: the run failed, report no numbers

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  void add_extra(std::string name, double value, std::string unit,
                 std::string note = {}) {
    extra.push_back({std::move(name), value, std::move(unit),
                     std::move(note)});
  }
  bool write_json(const std::string& path) const;
  void print() const;
};

/// The work counters of the registry that the report carries (deltas).
const std::vector<std::string>& work_counter_names();

/// latency_tail_s is this fixed percentile on every workload (see README.md
/// for why it is not chosen from the sample count).
inline constexpr double kTailPercentile = 90;

}  // namespace pbench
