// The ALT oracle: it must return exact shortest distances, and its
// heuristic must be admissible.
#include <gtest/gtest.h>

#include "sssp/alt.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

class PointToPointSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PointToPointSweep, AltMatchesDijkstra) {
  auto g = test::random_graph(200, 1600, GetParam() + 100);
  AltOracle alt(g, {.landmarks = 4, .seed = GetParam()});
  auto ref = dijkstra(GraphView(g), 3);
  for (vid_t t : {0, 40, 80, 120, 199}) {
    auto r = alt.query(3, t);
    if (ref.dist[t] == kInfDist) {
      EXPECT_TRUE(r.path.empty());
    } else {
      EXPECT_NEAR(r.path.dist, ref.dist[t], 1e-9) << "t=" << t;
    }
  }
}

TEST_P(PointToPointSweep, AltHeuristicIsAdmissible) {
  auto g = test::random_graph(120, 960, GetParam() + 200);
  AltOracle alt(g, {.landmarks = 6, .seed = 3});
  const vid_t t = 60;
  auto rev = dijkstra(GraphView(g.reverse()), t);  // true dist(v, t)
  for (vid_t v = 0; v < 120; ++v) {
    if (rev.dist[v] == kInfDist) continue;
    EXPECT_LE(alt.heuristic(v, t), rev.dist[v] + 1e-9) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointToPointSweep,
                         ::testing::Values(11u, 12u, 13u, 14u));

TEST(Alt, SettlesFewerThanFullDijkstra) {
  auto g = graph::grid(30, 30, {graph::WeightKind::kUniform01, 5});
  AltOracle alt(g, {.landmarks = 8, .seed = 2});
  auto r = alt.query(0, 899);
  ASSERT_FALSE(r.path.empty());
  // A goal-directed search across a grid must not settle everything.
  EXPECT_LT(r.settled, 900);
}

TEST(Alt, EmptyGraphHasNoLandmarks) {
  // No vertices: no landmark can be drawn (an empty range), so none is and
  // the heuristic is 0.
  auto g = graph::from_edges(0, {});
  AltOracle alt(g, {.landmarks = 4, .seed = 1});
  EXPECT_TRUE(alt.landmarks().empty());
  EXPECT_TRUE(alt.query(0, 0).path.empty());
}

TEST(Alt, LandmarkCountClamped) {
  auto g = graph::from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  AltOracle alt(g, {.landmarks = 50, .seed = 1});
  EXPECT_LE(alt.landmarks().size(), 3u);
}

}  // namespace
}  // namespace peek::sssp
