#include "ksp/node_classification.hpp"

#include <gtest/gtest.h>

#include "ksp/bruteforce.hpp"
#include "test_util.hpp"

namespace peek::ksp {
namespace {

KspOptions k_opts(int k) {
  KspOptions o;
  o.k = k;
  return o;
}

TEST(NodeClassification, PaperExampleTopThree) {
  auto ex = test::paper_example_graph();
  auto r = nc_ksp(ex.g, ex.s, ex.t, k_opts(3));
  ASSERT_EQ(r.paths.size(), 3u);
  EXPECT_DOUBLE_EQ(r.paths[0].dist, 11.0);
  EXPECT_DOUBLE_EQ(r.paths[1].dist, 12.0);
  EXPECT_DOUBLE_EQ(r.paths[2].dist, 14.0);
  test::check_ksp_invariants(ex.g, ex.s, ex.t, r.paths);
}

TEST(NodeClassification, MatchesOracle) {
  auto g = graph::layered_dag(4, 4, 3, {graph::WeightKind::kUniform01, 9}, 17);
  auto r = nc_ksp(g, 0, 13, k_opts(12));
  auto oracle = bruteforce_ksp(g, 0, 13, 12);
  test::expect_same_distances(r.paths, oracle.paths);
}

TEST(NodeClassification, GreenShortcutsHappen) {
  auto g = test::random_graph(150, 1200, 121);
  auto r = nc_ksp(g, 0, 75, k_opts(10));
  if (r.paths.empty()) GTEST_SKIP() << "unreachable pair";
  EXPECT_GT(r.stats.tree_shortcuts, 0);
}

TEST(NodeClassification, UnreachableEmpty) {
  auto g = graph::from_edges(3, {{1, 0, 1.0}});
  EXPECT_TRUE(nc_ksp(g, 0, 2, k_opts(4)).paths.empty());
}

TEST(NodeClassification, ParallelInnerMatchesSerial) {
  // NC's deviation loop stays serial (shared colors), so the parallel flag
  // changes nothing; results must be identical.
  auto g = test::random_graph(80, 640, 123);
  KspOptions par = k_opts(8);
  par.parallel = true;
  auto a = nc_ksp(g, 0, 40, k_opts(8));
  auto b = nc_ksp(g, 0, 40, par);
  test::expect_same_distances(a.paths, b.paths);
}

TEST(NodeClassification, UnitWeights) {
  auto g = test::random_graph(32, 96, 125, /*unit_weights=*/true);
  auto r = nc_ksp(g, 0, 16, k_opts(6));
  auto oracle = bruteforce_ksp(g, 0, 16, 6);
  test::expect_same_distances(r.paths, oracle.paths);
}

}  // namespace
}  // namespace peek::ksp
