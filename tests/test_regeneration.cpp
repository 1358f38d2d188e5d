#include "compact/regeneration.hpp"

#include <gtest/gtest.h>

#include "compact/adaptive.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::compact {
namespace {

TEST(Regeneration, BuildsDenseSubgraph) {
  auto g = graph::from_edges(
      5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 4, 1.0}, {0, 4, 9.0}});
  std::vector<std::uint8_t> keep{1, 0, 1, 0, 1};  // keep 0, 2, 4
  auto regen = regenerate(sssp::GraphView(g), keep.data());
  EXPECT_EQ(regen.graph.num_vertices(), 3);
  EXPECT_EQ(regen.graph.num_edges(), 1);  // only 0 -> 4 survives
  EXPECT_EQ(regen.map.to_new(0), 0);
  EXPECT_EQ(regen.map.to_new(2), 1);
  EXPECT_EQ(regen.map.to_new(4), 2);
  EXPECT_EQ(regen.map.to_new(1), kNoVertex);
  EXPECT_EQ(regen.map.to_old(2), 4);
  // The surviving edge uses new ids.
  EXPECT_NE(regen.graph.find_edge(0, 2), kNoEdge);
}

TEST(Regeneration, EdgePredicate) {
  auto g = graph::from_edges(2, {{0, 1, 5.0}});
  std::vector<std::uint8_t> keep{1, 1};
  auto regen = regenerate(sssp::GraphView(g), keep.data(),
                          [](vid_t, vid_t, weight_t w) { return w <= 1.0; });
  EXPECT_EQ(regen.graph.num_vertices(), 2);
  EXPECT_EQ(regen.graph.num_edges(), 0);
}

TEST(Regeneration, PaperExampleFigure5c) {
  // Figure 5(c): regenerating after pruning {a,b,c,d,e,i,o,p,r} leaves the
  // 7-vertex remaining graph {f,g,j,l,q,s,t} with 11 edges.
  auto ex = test::paper_example_graph();
  std::vector<std::uint8_t> keep(16, 0);
  for (const char* name : {"f", "g", "j", "l", "q", "s", "t"})
    keep[ex.id.at(name)] = 1;
  auto regen = regenerate(sssp::GraphView(ex.g), keep.data());
  EXPECT_EQ(regen.graph.num_vertices(), 7);
  EXPECT_EQ(regen.graph.num_edges(), 11);
}

TEST(Regeneration, SsspEquivalence) {
  auto g = test::random_graph(120, 1000, 71);
  std::vector<std::uint8_t> keep(120, 1);
  for (vid_t v = 0; v < 120; v += 5) keep[v] = 0;
  keep[0] = 1;
  auto pred = [](vid_t, vid_t, weight_t w) { return w <= 0.9; };
  auto regen = regenerate(sssp::GraphView(g), keep.data(), pred);
  auto got = sssp::dijkstra(sssp::GraphView(regen.graph), regen.map.to_new(0));

  graph::Builder b(120);
  for (vid_t u = 0; u < 120; ++u) {
    if (!keep[u]) continue;
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      if (keep[g.edge_target(e)] && g.edge_weight(e) <= 0.9)
        b.add_edge(u, g.edge_target(e), g.edge_weight(e));
    }
  }
  auto ref = sssp::dijkstra(sssp::GraphView(b.build()), 0);
  for (vid_t v = 0; v < 120; ++v) {
    if (!keep[v]) continue;
    const vid_t nv = regen.map.to_new(v);
    if (ref.dist[v] == kInfDist) {
      EXPECT_EQ(got.dist[nv], kInfDist) << v;
    } else {
      EXPECT_NEAR(got.dist[nv], ref.dist[v], 1e-9) << v;
    }
  }
}

TEST(Regeneration, MapsAreMutuallyInverse) {
  auto g = test::random_graph(64, 256, 73);
  std::vector<std::uint8_t> keep(64, 1);
  for (vid_t v = 1; v < 64; v += 2) keep[v] = 0;
  auto regen = regenerate(sssp::GraphView(g), keep.data());
  for (vid_t nv = 0; nv < regen.graph.num_vertices(); ++nv)
    EXPECT_EQ(regen.map.to_new(regen.map.to_old(nv)), nv);
  for (vid_t ov = 0; ov < 64; ++ov) {
    if (regen.map.to_new(ov) != kNoVertex) {
      EXPECT_EQ(regen.map.to_old(regen.map.to_new(ov)), ov);
    }
  }
}

TEST(Regeneration, SerialParallelIdentical) {
  auto g = test::random_graph(100, 900, 79);
  std::vector<std::uint8_t> keep(100, 1);
  for (vid_t v = 0; v < 100; v += 7) keep[v] = 0;
  auto a = regenerate(sssp::GraphView(g), keep.data(), nullptr,
                      {.parallel = false});
  auto b = regenerate(sssp::GraphView(g), keep.data(), nullptr,
                      {.parallel = true});
  EXPECT_TRUE(a.graph == b.graph);
  EXPECT_EQ(a.map.new_to_old, b.map.new_to_old);
}

TEST(Regeneration, KeepNothing) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  std::vector<std::uint8_t> keep{0, 0};
  auto regen = regenerate(sssp::GraphView(g), keep.data());
  EXPECT_EQ(regen.graph.num_vertices(), 0);
  EXPECT_EQ(regen.graph.num_edges(), 0);
}

TEST(Regeneration, ComposesWithEdgeSwapView) {
  // Regenerating from an edge-swapped view must see only the valid ranges.
  auto g = test::random_graph(50, 400, 83);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(50, 1);
  keep[10] = keep[20] = 0;
  edge_swap_compact(mc, keep.data());
  auto regen = regenerate(mc.view(), nullptr);
  EXPECT_EQ(regen.graph.num_vertices(), 48);
  EXPECT_EQ(regen.graph.num_edges(), mc.num_valid_edges());
}

TEST(Regeneration, KeptListMatchesMask) {
  // The inputs of the tests above, through the kept-list overloads that
  // core::peek_ksp calls with PruneResult::kept_list: the same graph, the
  // same maps and the same remaining-edge count as the mask path.
  struct Input {
    std::string name;
    graph::CsrGraph g;
    std::vector<std::uint8_t> keep;
    EdgeKeep pred;
  };
  std::vector<Input> inputs;
  inputs.push_back(
      {"line", graph::from_edges(5, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0},
                                     {3, 4, 1.0}, {0, 4, 9.0}}),
       {1, 0, 1, 0, 1}, nullptr});
  inputs.push_back({"predicate", graph::from_edges(2, {{0, 1, 5.0}}), {1, 1},
                    [](vid_t, vid_t, weight_t w) { return w <= 1.0; }});
  auto ex = test::paper_example_graph();
  std::vector<std::uint8_t> fig5c(16, 0);
  for (const char* name : {"f", "g", "j", "l", "q", "s", "t"})
    fig5c[ex.id.at(name)] = 1;
  inputs.push_back({"figure5c", ex.g, fig5c, nullptr});
  std::vector<std::uint8_t> every5th(120, 1);
  for (vid_t v = 0; v < 120; v += 5) every5th[v] = 0;
  every5th[0] = 1;
  inputs.push_back({"sssp", test::random_graph(120, 1000, 71), every5th,
                    [](vid_t, vid_t, weight_t w) { return w <= 0.9; }});
  std::vector<std::uint8_t> even(64, 1);
  for (vid_t v = 1; v < 64; v += 2) even[v] = 0;
  inputs.push_back({"maps", test::random_graph(64, 256, 73), even, nullptr});
  std::vector<std::uint8_t> every7th(100, 1);
  for (vid_t v = 0; v < 100; v += 7) every7th[v] = 0;
  inputs.push_back({"serial", test::random_graph(100, 900, 79), every7th,
                    nullptr});
  inputs.push_back({"nothing", graph::from_edges(2, {{0, 1, 1.0}}), {0, 0},
                    nullptr});

  auto expect_same = [](const GraphView& view, const std::uint8_t* mask,
                        const std::vector<vid_t>& list, const EdgeKeep& pred) {
    for (bool parallel : {false, true}) {
      SCOPED_TRACE(parallel ? "parallel" : "serial");
      const auto want = regenerate(view, mask, pred, {.parallel = parallel});
      const auto got = regenerate(view, list, pred, {.parallel = parallel});
      ASSERT_EQ(got.status, fault::Status::kOk);
      EXPECT_TRUE(got.graph == want.graph);
      EXPECT_EQ(got.map.new_to_old, want.map.new_to_old);
      EXPECT_EQ(got.map.old_to_new, want.map.old_to_new);
      EXPECT_EQ(count_remaining_edges(view, mask, list, pred, parallel),
                count_remaining_edges(view, mask, pred, parallel));
      EXPECT_EQ(count_remaining_edges(view, mask, list, pred, parallel),
                want.graph.num_edges());
    }
  };
  for (const auto& in : inputs) {
    SCOPED_TRACE(in.name);
    std::vector<vid_t> list;
    for (vid_t v = 0; v < in.g.num_vertices(); ++v) {
      if (in.keep[v]) list.push_back(v);
    }
    EXPECT_EQ(kept_vertices(sssp::GraphView(in.g), in.keep.data()), list);
    expect_same(sssp::GraphView(in.g), in.keep.data(), list, in.pred);
  }

  // The edge-swapped view, whose mask is its own vertex_alive.
  auto g = test::random_graph(50, 400, 83);
  MutableCsr mc(g);
  std::vector<std::uint8_t> keep(50, 1);
  keep[10] = keep[20] = 0;
  edge_swap_compact(mc, keep.data());
  std::vector<vid_t> alive;
  for (vid_t v = 0; v < 50; ++v) {
    if (mc.vertex_alive()[v]) alive.push_back(v);
  }
  SCOPED_TRACE("edge-swap view");
  EXPECT_EQ(kept_vertices(mc.view(), nullptr), alive);
  expect_same(mc.view(), nullptr, alive, nullptr);
}

}  // namespace
}  // namespace peek::compact
