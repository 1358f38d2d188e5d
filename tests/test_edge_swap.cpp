#include "compact/edge_swap.hpp"

#include <gtest/gtest.h>

#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::compact {
namespace {

TEST(EdgeSwap, PacksValidEdgesToFront) {
  // Vertex 0 has edges to 1, 2, 3; delete vertex 2.
  auto g = graph::from_edges(
      4, {{0, 1, 1.0}, {0, 2, 2.0}, {0, 3, 3.0}, {1, 3, 1.0}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{1, 1, 0, 1};
  const eid_t remaining = edge_swap_compact(mc, keep.data());
  EXPECT_EQ(remaining, 3);  // 0->1, 0->3, 1->3
  auto view = mc.view();
  EXPECT_EQ(view.edge_end(0) - view.edge_begin(0), 2);
  // In-range targets are exactly {1, 3}.
  std::vector<vid_t> targets;
  for (eid_t e = view.edge_begin(0); e < view.edge_end(0); ++e)
    targets.push_back(view.edge_target(e));
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<vid_t>{1, 3}));
}

TEST(EdgeSwap, KeptEdgesKeepTheirOrder) {
  // Vertex 0's out- and in-rows are 1, 2, 3, 4; deleting 2 must leave
  // 1, 3, 4 in that order, as regeneration does: the KSP search breaks ties
  // by row order. Front/back pointers moved 4 into 2's slot (1, 4, 3).
  auto g = graph::from_edges(
      5, {{0, 1, 1.0}, {0, 2, 1.0}, {0, 3, 1.0}, {0, 4, 1.0}, {1, 0, 1.0},
          {2, 0, 1.0}, {3, 0, 1.0}, {4, 0, 1.0}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{1, 1, 0, 1, 1};
  edge_swap_compact(mc, keep.data());
  auto targets = [](const sssp::GraphView& view, vid_t v) {
    std::vector<vid_t> out;
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e)
      out.push_back(view.edge_target(e));
    return out;
  };
  EXPECT_EQ(targets(mc.view(), 0), (std::vector<vid_t>{1, 3, 4}));
  EXPECT_EQ(targets(mc.reverse_view(), 0), (std::vector<vid_t>{1, 3, 4}));
}

TEST(EdgeSwap, WeightPredicate) {
  auto g = graph::from_edges(2, {{0, 1, 5.0}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{1, 1};
  const eid_t remaining = edge_swap_compact(
      mc, keep.data(), [](vid_t, vid_t, weight_t w) { return w <= 2.0; });
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(mc.view().edge_end(0), mc.view().edge_begin(0));
}

TEST(EdgeSwap, ReverseViewPackedSymmetrically) {
  auto g = graph::from_edges(3, {{0, 2, 1.0}, {1, 2, 2.0}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{1, 0, 1};  // kill 1
  edge_swap_compact(mc, keep.data());
  auto rev = mc.reverse_view();
  // Vertex 2's in-edges: only from 0 remains.
  EXPECT_EQ(rev.edge_end(2) - rev.edge_begin(2), 1);
  EXPECT_EQ(rev.edge_target(rev.edge_begin(2)), 0);
}

TEST(EdgeSwap, WeightsTravelWithTargets) {
  auto g = graph::from_edges(3, {{0, 1, 1.5}, {0, 2, 2.5}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{1, 0, 1};
  edge_swap_compact(mc, keep.data());
  auto view = mc.view();
  ASSERT_EQ(view.edge_end(0) - view.edge_begin(0), 1);
  EXPECT_EQ(view.edge_target(view.edge_begin(0)), 2);
  EXPECT_DOUBLE_EQ(view.edge_weight(view.edge_begin(0)), 2.5);
}

TEST(EdgeSwap, SsspEquivalentToFilteredGraph) {
  auto g = test::random_graph(100, 900, 61);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(100, 1);
  for (vid_t v = 50; v < 100; v += 2) keep[v] = 0;
  auto pred = [](vid_t, vid_t, weight_t w) { return w <= 0.7; };
  edge_swap_compact(mc, keep.data(), pred);

  graph::Builder b(100);
  for (vid_t u = 0; u < 100; ++u) {
    if (!keep[u]) continue;
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      if (keep[g.edge_target(e)] && g.edge_weight(e) <= 0.7)
        b.add_edge(u, g.edge_target(e), g.edge_weight(e));
    }
  }
  auto ref_g = b.build();
  auto ref = sssp::dijkstra(sssp::GraphView(ref_g), 0);
  auto got = sssp::dijkstra(mc.view(), 0);
  for (vid_t v = 0; v < 100; ++v) {
    if (ref.dist[v] == kInfDist) EXPECT_EQ(got.dist[v], kInfDist) << v;
    else EXPECT_NEAR(got.dist[v], ref.dist[v], 1e-9) << v;
  }
}

TEST(EdgeSwap, RepeatedRoundsOnlyShrink) {
  auto g = test::random_graph(60, 500, 63);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(60, 1);
  keep[3] = 0;
  const eid_t r1 = edge_swap_compact(mc, keep.data());
  keep[7] = 0;
  const eid_t r2 = edge_swap_compact(mc, keep.data());
  EXPECT_LE(r2, r1);
  EXPECT_FALSE(mc.view().vertex_alive(3));
  EXPECT_FALSE(mc.view().vertex_alive(7));
  EXPECT_EQ(mc.num_valid_edges(), r2);
}

TEST(EdgeSwap, SerialParallelAgree) {
  auto g = test::random_graph(80, 700, 67);
  std::vector<std::uint8_t> keep(80, 1);
  for (vid_t v = 0; v < 80; v += 3) keep[v] = 0;
  MutableCsr a(g), b(g);
  const eid_t ra = edge_swap_compact(a, keep.data(), nullptr, {.parallel = false});
  const eid_t rb = edge_swap_compact(b, keep.data(), nullptr, {.parallel = true});
  EXPECT_EQ(ra, rb);
}

TEST(EdgeSwap, AllDeleted) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep{0, 0};
  EXPECT_EQ(edge_swap_compact(mc, keep.data()), 0);
  EXPECT_EQ(mc.num_valid_edges(), 0);
}

}  // namespace
}  // namespace peek::compact
