#include "sssp/delta_stepping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

/// First index where `got` differs from `want` (-1: equal).
template <typename T>
long first_difference(const std::vector<T>& got, const std::vector<T>& want) {
  if (got.size() != want.size()) return 0;
  const auto it = std::mismatch(got.begin(), got.end(), want.begin());
  return it.first == got.end() ? -1 : it.first - got.begin();
}

/// Distances bit-identical to Dijkstra's, parents by the smallest tight
/// in-neighbour, at every thread count; and the one-worker bucket loop the
/// serial prune runs inline gives the same distances.
void expect_matches_dijkstra(const GraphView& view, vid_t source,
                             const DeltaSteppingOptions& opts = {}) {
  const SsspResult dj = dijkstra(view, source);
  const std::vector<vid_t> parents = test::smallest_tight_parents(view, dj, source);
  const SsspResult inline_run =
      delta_stepping_distances(view, source, opts, /*worker_count=*/1);
  ASSERT_EQ(inline_run.status, fault::Status::kOk);
  EXPECT_EQ(first_difference(inline_run.dist, dj.dist), -1)
      << "one inline worker: distance differs at this vertex";
  for (int threads : kThreadCounts) {
    par::ThreadScope scope(threads);
    const SsspResult ds = delta_stepping(view, source, opts);
    ASSERT_EQ(ds.status, fault::Status::kOk);
    EXPECT_EQ(first_difference(ds.dist, dj.dist), -1)
        << threads << " threads: distance differs at this vertex";
    EXPECT_EQ(first_difference(ds.parent, parents), -1)
        << threads << " threads: parent differs at this vertex";
  }
}

TEST(DeltaStepping, Line) {
  auto g = graph::from_edges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto r = delta_stepping(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(r.dist[3], 6.0);
  EXPECT_EQ(r.parent[3], 2);
}

TEST(DeltaStepping, InvalidSource) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  EXPECT_EQ(delta_stepping(GraphView(g), -2).dist[0], kInfDist);
}

struct SweepParam {
  int n;
  std::uint64_t seed;
  bool unit;
  weight_t delta;
};

class DeltaVsDijkstra : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DeltaVsDijkstra, DistancesAndParentsMatchDijkstra) {
  const auto p = GetParam();
  auto g = test::random_graph(p.n, static_cast<eid_t>(p.n) * 8, p.seed, p.unit);
  DeltaSteppingOptions opts;
  opts.delta = p.delta;
  expect_matches_dijkstra(GraphView(g), 0, opts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaVsDijkstra,
    ::testing::Values(SweepParam{50, 1, false, 0}, SweepParam{50, 2, true, 0},
                      SweepParam{200, 3, false, 0.05},
                      SweepParam{200, 4, false, 10.0},  // one big bucket
                      SweepParam{200, 5, false, 1e-3},  // many tiny buckets
                      SweepParam{500, 6, false, 0},
                      SweepParam{500, 7, true, 0.5}));

TEST(DeltaStepping, TieHeavyUnitWeights) {
  // Unit weights: every bucket is a BFS level, most vertices have several
  // tight in-neighbours, and workers race to lower the same vertex to the
  // same distance.
  for (const auto& [name, g] : test::tie_heavy_graphs()) {
    SCOPED_TRACE(name);
    for (const auto& pair : test::spread_pairs(g.num_vertices(), 4)) {
      expect_matches_dijkstra(GraphView(g), pair.first);
    }
  }
}

TEST(DeltaStepping, RmatBucketsOutgrowFusion) {
  // R-MAT 2^14: its middle buckets hold thousands of entries, more than one
  // worker drains on its own, so buckets come back to the shared frontier
  // for a second round (more rounds than buckets) at every thread count.
  graph::WeightOptions w;
  w.seed = 29;
  auto g = graph::rmat(14, 16, w, 3);
  const GraphView view(g);
  expect_matches_dijkstra(view, 1);
  for (int threads : kThreadCounts) {
    par::ThreadScope scope(threads);
    auto& reg = obs::MetricsRegistry::global();
    const std::int64_t buckets0 = reg.counter("sssp.delta.buckets").value();
    const std::int64_t rounds0 = reg.counter("sssp.delta.rounds").value();
    ASSERT_EQ(delta_stepping(view, 1).status, fault::Status::kOk);
    if (obs::kEnabled) {
      EXPECT_GT(reg.counter("sssp.delta.rounds").value() - rounds0,
                reg.counter("sssp.delta.buckets").value() - buckets0)
          << threads << " threads";
    }
  }
}

TEST(DeltaStepping, ParentsFormTree) {
  auto g = test::random_graph(300, 2000, 13);
  auto r = delta_stepping(GraphView(g), 0);
  for (vid_t v = 1; v < 300; ++v) {
    if (r.dist[v] == kInfDist) continue;
    const vid_t p = r.parent[v];
    ASSERT_NE(p, kNoVertex) << v;
    const eid_t e = g.find_edge(p, v);
    ASSERT_NE(e, kNoEdge);
    EXPECT_EQ(r.dist[p] + g.edge_weight(e), r.dist[v]);
  }
}

TEST(ReverseDeltaStepping, MatchesReverseDijkstra) {
  auto g = test::random_graph(200, 1600, 15);
  auto a = reverse_dijkstra(g, 7);
  auto b = reverse_delta_stepping(g, 7);
  EXPECT_EQ(first_difference(b.dist, a.dist), -1);
}

}  // namespace
}  // namespace peek::sssp
