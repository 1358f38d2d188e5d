#include "dist/dist_sssp.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::dist {
namespace {

void expect_matches_serial(const graph::CsrGraph& g, vid_t source, int ranks) {
  auto ref = sssp::dijkstra(sssp::GraphView(g), source);
  run_ranks(ranks, [&](Comm& c) {
    auto lg = make_local_graph(g, c.rank(), c.size());
    auto r = dist_delta_stepping(c, lg, source);
    std::vector<weight_t> dist;
    gather_global(c, lg, r, dist);
    ASSERT_EQ(dist.size(), static_cast<size_t>(g.num_vertices()));
    // Bit for bit: DistPeek's prune reads these distances as peek_ksp's.
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(dist[v], ref.dist[v]) << "v " << v << " ranks " << ranks;
    }
  });
}

TEST(DistSssp, MatchesSerialOnRandomGraph) {
  auto g = test::random_graph(200, 1600, 701);
  expect_matches_serial(g, 0, 4);
}

TEST(DistSssp, VariousRankCounts) {
  auto g = test::random_graph(120, 960, 703);
  for (int ranks : {1, 2, 3, 8}) expect_matches_serial(g, 5, ranks);
}

TEST(DistSssp, UnitWeights) {
  auto g = test::random_graph(150, 1500, 705, /*unit_weights=*/true);
  expect_matches_serial(g, 3, 4);
}

TEST(DistSssp, GridLongDiameter) {
  auto g = graph::grid(12, 12, {graph::WeightKind::kUniform01, 7});
  expect_matches_serial(g, 0, 4);
}

TEST(DistSssp, SourceOnNonzeroRank) {
  auto g = test::random_graph(100, 800, 707);
  expect_matches_serial(g, 99, 4);  // owned by the last rank
}

TEST(DistSssp, DisconnectedGraph) {
  // Two components: distances in the far component must stay inf everywhere.
  graph::Builder b(10);
  for (vid_t v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, 1.0);
  for (vid_t v = 5; v + 1 < 10; ++v) b.add_edge(v, v + 1, 1.0);
  auto g = b.build();
  expect_matches_serial(g, 0, 3);
}

TEST(DistSssp, CountsRelaxedEdges) {
  auto g = test::random_graph(100, 800, 709);
  run_ranks(2, [&](Comm& c) {
    auto lg = make_local_graph(g, c.rank(), c.size());
    auto r = dist_delta_stepping(c, lg, 0);
    const std::int64_t total = c.allreduce_sum(r.edges_relaxed);
    EXPECT_GT(total, 0);
  });
}

}  // namespace
}  // namespace peek::dist
