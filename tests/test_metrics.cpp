// Observability layer (src/obs): counter sharding and aggregation under
// OpenMP, ScopedTimer nesting, JSON round-trip through the exporter's own
// parser, and a pipeline-level check that a full peek run reports pruning
// ratios and SSSP relaxation counts into the global registry.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "core/peek.hpp"
#include "obs/json.hpp"
#include "parallel/parallel_for.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

TEST(MetricsCounter, AggregatesAcrossOpenMpThreads) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("test.hits");
  constexpr int kIters = 200000;
  par::parallel_for(0, kIters, [&](int) { c.inc(); });
  EXPECT_EQ(c.value(), kIters);

  obs::Counter& d = reg.counter("test.bulk");
  par::parallel_for_dynamic(0, kIters, [&](int) { d.add(3); });
  EXPECT_EQ(d.value(), std::int64_t{3} * kIters);

  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(d.value(), 0);
}

TEST(MetricsCounter, LookupReturnsStableReference) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("same.name");
  obs::Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(reg.snapshot().counters.at("same.name"), 5);
}

TEST(MetricsGauge, LastWriteWins) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("ratio");
  g.set(0.25);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
}

TEST(MetricsTimer, ScopedTimerNests) {
  obs::MetricsRegistry reg;
  obs::Timer& outer = reg.timer("outer");
  obs::Timer& inner = reg.timer("inner");
  {
    obs::ScopedTimer span_outer(outer);
    for (int i = 0; i < 3; ++i) {
      obs::ScopedTimer span_inner(inner);
      // A visible amount of work so inner accumulates nonzero time.
      volatile double sink = 0;
      for (int j = 0; j < 10000; ++j) sink = sink + j;
    }
  }
  const obs::TimerValue ov = outer.value();
  const obs::TimerValue iv = inner.value();
  EXPECT_EQ(ov.count, 1u);
  EXPECT_EQ(iv.count, 3u);
  EXPECT_GT(iv.seconds, 0.0);
  // The outer span encloses all three inner spans.
  EXPECT_GE(ov.seconds, iv.seconds);
}

TEST(MetricsJson, RoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("sssp.relaxed").add(12345);
  reg.counter("weird \"name\"\\with\tescapes").add(-7);
  reg.gauge("prune.kept_vertex_ratio").set(0.015625);
  reg.timer("peek.prune").add_nanos(1500000);  // 1.5ms, count 1
  reg.timer("peek.prune").add_nanos(500000);   // +0.5ms, count 2

  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  const auto parsed = obs::parse_metrics_json(json);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->counters, snap.counters);
  ASSERT_EQ(parsed->gauges.size(), snap.gauges.size());
  for (const auto& [name, v] : snap.gauges)
    EXPECT_NEAR(parsed->gauges.at(name), v, 1e-12) << name;
  ASSERT_EQ(parsed->timers.size(), snap.timers.size());
  for (const auto& [name, v] : snap.timers) {
    EXPECT_EQ(parsed->timers.at(name).count, v.count) << name;
    EXPECT_NEAR(parsed->timers.at(name).seconds, v.seconds, 1e-9) << name;
  }
}

TEST(MetricsJson, EmptySnapshotRoundTrips) {
  const obs::MetricsSnapshot empty;
  const auto parsed = obs::parse_metrics_json(empty.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(MetricsJson, RejectsMalformedInput) {
  EXPECT_FALSE(obs::parse_metrics_json("").has_value());
  EXPECT_FALSE(obs::parse_metrics_json("{").has_value());
  EXPECT_FALSE(obs::parse_metrics_json("[1,2,3]").has_value());
  EXPECT_FALSE(obs::parse_metrics_json("{\"unknown\": {}}").has_value());
  EXPECT_FALSE(
      obs::parse_metrics_json("{\"counters\": {\"x\": }}").has_value());
}

#if PEEK_OBS_ENABLED
// Pipeline-level: a full PeeK run on the paper's running example must report
// pruning (kept/n < 1 — the figure prunes 9 of 16 vertices), nonzero SSSP
// relaxation counts, and one span per stage timer.
TEST(MetricsPipeline, PeekRunPopulatesRegistry) {
  obs::MetricsRegistry::global().reset();
  const auto ex = test::paper_example_graph();

  core::PeekOptions po;
  po.k = 3;
  po.collect_metrics = true;
  const core::PeekResult r = core::peek_ksp(ex.g, ex.s, ex.t, po);
  ASSERT_EQ(r.ksp.paths.size(), 3u);

  ASSERT_TRUE(r.metrics.has_value());
  const obs::MetricsSnapshot& m = *r.metrics;

  ASSERT_TRUE(m.gauges.count("peek.kept_vertex_ratio"));
  EXPECT_GT(m.gauges.at("peek.kept_vertex_ratio"), 0.0);
  EXPECT_LT(m.gauges.at("peek.kept_vertex_ratio"), 1.0);
  EXPECT_DOUBLE_EQ(
      m.gauges.at("peek.kept_vertex_ratio"),
      static_cast<double>(r.kept_vertices) / ex.g.num_vertices());

  // Serial pipeline: the prune's forward SSSP is one Δ-stepping run, on one
  // worker inline.
  ASSERT_TRUE(m.counters.count("sssp.delta.runs"));
  EXPECT_EQ(m.counters.at("sssp.delta.runs"), 1);
  EXPECT_GT(m.counters.at("sssp.delta.relaxed_edges"), 0);
  EXPECT_EQ(m.counters.at("prune.runs"), 1);
  EXPECT_GT(m.counters.at("prune.kept_vertices"), 0);
  EXPECT_GT(m.counters.at("ksp.paths_accepted"), 0);

  for (const char* stage : {"peek.prune", "peek.compact", "peek.ksp"}) {
    ASSERT_TRUE(m.timers.count(stage)) << stage;
    EXPECT_EQ(m.timers.at(stage).count, 1u) << stage;
  }
}
#else
// With the hooks compiled out the pipeline must stay silent: a metrics
// snapshot is attached on request but carries no hook-reported values.
TEST(MetricsPipeline, ObsOffKeepsRegistryQuiet) {
  obs::MetricsRegistry::global().reset();
  const auto ex = test::paper_example_graph();
  core::PeekOptions po;
  po.k = 3;
  po.collect_metrics = true;
  const core::PeekResult r = core::peek_ksp(ex.g, ex.s, ex.t, po);
  ASSERT_EQ(r.ksp.paths.size(), 3u);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_EQ(r.metrics->counters.count("sssp.dijkstra.relaxed_edges"), 0u);
  EXPECT_EQ(r.metrics->timers.count("peek.prune"), 0u);
}
#endif  // PEEK_OBS_ENABLED

}  // namespace
}  // namespace peek
