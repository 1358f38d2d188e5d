// Compile-and-smoke test for the umbrella header: every public symbol used
// through the single include.
#include "peek.hpp"

#include <gtest/gtest.h>

namespace peek {
namespace {

TEST(Umbrella, EverySubsystemReachable) {
  auto g = graph::rmat(8, 4);
  EXPECT_GT(g.num_edges(), 0);
  auto scc = graph::strongly_connected_components(g);
  EXPECT_GT(scc.num_components, 0);

  auto sp = sssp::dijkstra(sssp::GraphView(g), 0);
  EXPECT_EQ(sp.dist[0], 0.0);

  core::PeekOptions po;
  po.k = 3;
  auto r = core::peek_ksp(g, 0, 100, po);
  ksp::KspOptions ko;
  ko.k = 3;
  auto y = ksp::yen_ksp(g, 0, 100, ko);
  ASSERT_EQ(r.ksp.paths.size(), y.paths.size());
  for (size_t i = 0; i < y.paths.size(); ++i)
    EXPECT_NEAR(r.ksp.paths[i].dist, y.paths[i].dist, 1e-9);

  dyn::DynamicGraph dg(g);
  EXPECT_EQ(dg.num_edges(), g.num_edges());
}

}  // namespace
}  // namespace peek
