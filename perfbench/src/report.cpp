#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace pbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t RegistryDelta::count(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t RegistryDelta::timer_calls(const std::string& name) const {
  const auto it = timers.find(name);
  return it == timers.end() ? 0 : it->second.count;
}

void RegistryDelta::add(const RegistryDelta& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.timers) {
    timers[k].seconds += v.seconds;
    timers[k].count += v.count;
  }
}

RegistryDelta registry_delta(const peek::obs::MetricsSnapshot& before,
                             const peek::obs::MetricsSnapshot& after) {
  RegistryDelta d;
  for (const auto& [k, v] : after.counters) {
    const auto it = before.counters.find(k);
    d.counters[k] = v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [k, v] : after.timers) {
    const auto it = before.timers.find(k);
    peek::obs::TimerValue t = v;
    if (it != before.timers.end()) {
      t.seconds -= it->second.seconds;
      t.count -= it->second.count;
    }
    d.timers[k] = t;
  }
  return d;
}

std::int64_t SpanLog::add(std::string name, Clock::time_point start,
                          Clock::time_point end, std::int64_t parent,
                          std::int64_t query, std::string outcome) {
  const std::int64_t id = next_id_++;
  spans_.push_back({std::move(name), seconds_between(epoch_, start),
                    seconds_between(start, end), tid_, id, parent, query,
                    std::move(outcome)});
  return id;
}

void SpanLog::close(std::int64_t id, Clock::time_point end) {
  Span& s = spans_[static_cast<size_t>(id - first_id_)];
  s.dur_s = seconds_between(epoch_, end) - s.start_s;
}

void SpanLog::merge(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                 "\"parent\": %lld, \"query\": %lld, \"outcome\": \"%s\"}}%s\n",
                 peek::obs::json_escape(s.name).c_str(), s.tid,
                 s.start_s * 1e6, s.dur_s * 1e6, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.query),
                 peek::obs::json_escape(s.outcome).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

void write_metric_map(std::FILE* f, const char* key,
                      const std::vector<Metric>& ms) {
  std::fprintf(f, "  \"%s\": {", key);
  for (size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"note\": \"%s\"}",
                 i ? "," : "", peek::obs::json_escape(ms[i].name).c_str(),
                 ms[i].value, ms[i].unit.c_str(),
                 peek::obs::json_escape(ms[i].note).c_str());
  }
  std::fprintf(f, "\n  }");
}

}  // namespace

bool Report::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"trace\": %s,\n  \"attempted\": %lld,\n  \"failed\": %lld,\n"
               "  \"error\": \"%s\",\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               trace ? "true" : "false", static_cast<long long>(attempted),
               static_cast<long long>(failed),
               peek::obs::json_escape(error).c_str());
  write_metric_map(f, "metrics", metrics);
  std::fprintf(f, ",\n");
  write_metric_map(f, "extra", extra);
  std::fprintf(f, ",\n  \"counters\": {");
  size_t i = 0;
  for (const auto& [k, v] : counters) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", i++ ? "," : "", k.c_str(), v);
  }
  std::fprintf(f, "\n  },\n  \"meta\": {");
  i = 0;
  for (const auto& [k, v] : meta) {
    std::fprintf(f, "%s\n    \"%s\": \"%s\"", i++ ? "," : "", k.c_str(),
                 peek::obs::json_escape(v).c_str());
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

void Report::print() const {
  auto line = [](const Metric& m) {
    std::printf("  %-28s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  };
  std::printf("%s seed=%llu trace=%d attempted=%lld failed=%lld\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              trace ? 1 : 0, static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (const Metric& m : metrics) line(m);
  if (!extra.empty()) std::printf(" workload-specific:\n");
  for (const Metric& m : extra) line(m);
  std::fflush(stdout);
}

const std::vector<std::string>& work_counter_names() {
  static const std::vector<std::string> names = {
      "prune.runs",
      "prune.inspected_paths",
      "prune.kept_vertices",
      "compact.edge_swap.kept_edges",
      "compact.regenerate.kept_edges",
      "ksp.deviation_sssp_calls",
      "ksp.candidates_generated",
      "sssp.dijkstra.runs",
      "sssp.dijkstra.settled",
      "sssp.dijkstra.relaxed_edges",
      "sssp.delta.runs",
      "sssp.delta.settled",
      "sssp.delta.relaxed_edges",
      "serve.queries",
      "serve.snapshot_hits",
      "serve.snapshot_misses",
      "serve.stream_extensions",
      "serve.coalesced_waits",
      "serve.stale_answers",
      "serve.epoch_races",
      "serve.cache.hits",
      "serve.cache.misses",
      "serve.cache.evictions",
      "serve.cache.evicted_bytes",
      "serve.cache.region_drops",
      "serve.cache.restamps",
      "dyn.repair.trees",
      "shard.epoch_bounces",
  };
  return names;
}

}  // namespace pbench
