#include "sssp/delta_stepping.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

void expect_same_distances(const SsspResult& a, const SsspResult& b) {
  ASSERT_EQ(a.dist.size(), b.dist.size());
  for (size_t v = 0; v < a.dist.size(); ++v) {
    if (a.dist[v] == kInfDist) {
      EXPECT_EQ(b.dist[v], kInfDist) << "vertex " << v;
    } else {
      EXPECT_NEAR(a.dist[v], b.dist[v], 1e-9) << "vertex " << v;
    }
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

TEST_P(DeltaVsDijkstra, DistancesMatchDijkstra) {
  const auto p = GetParam();
  auto g = test::random_graph(p.n, static_cast<eid_t>(p.n) * 8, p.seed, p.unit);
  auto dj = dijkstra(GraphView(g), 0);
  DeltaSteppingOptions opts;
  opts.delta = p.delta;
  auto ds = delta_stepping(GraphView(g), 0, opts);
  expect_same_distances(dj, ds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeltaVsDijkstra,
    ::testing::Values(SweepParam{50, 1, false, 0}, SweepParam{50, 2, true, 0},
                      SweepParam{200, 3, false, 0.05},
                      SweepParam{200, 4, false, 10.0},  // one big bucket
                      SweepParam{200, 5, false, 1e-3},  // many tiny buckets
                      SweepParam{500, 6, false, 0},
                      SweepParam{500, 7, true, 0.5}));

TEST(DeltaStepping, ParentsFormTree) {
  auto g = test::random_graph(300, 2000, 13);
  auto r = delta_stepping(GraphView(g), 0);
  for (vid_t v = 1; v < 300; ++v) {
    if (r.dist[v] == kInfDist) continue;
    const vid_t p = r.parent[v];
    ASSERT_NE(p, kNoVertex) << v;
    const eid_t e = g.find_edge(p, v);
    ASSERT_NE(e, kNoEdge);
    EXPECT_NEAR(r.dist[p] + g.edge_weight(e), r.dist[v], 1e-12);
  }
}

TEST(ReverseDeltaStepping, MatchesReverseDijkstra) {
  auto g = test::random_graph(200, 1600, 15);
  auto a = reverse_dijkstra(g, 7);
  auto b = reverse_delta_stepping(g, 7);
  expect_same_distances(a, b);
}

}  // namespace
}  // namespace peek::sssp
