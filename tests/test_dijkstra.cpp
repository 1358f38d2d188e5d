#include "sssp/dijkstra.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "graph/generators.hpp"
#include "sssp/path.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

using graph::from_edges;

TEST(Dijkstra, LineGraph) {
  auto g = from_edges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(r.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(r.dist[3], 6.0);
  EXPECT_EQ(r.parent[3], 2);
  EXPECT_EQ(r.parent[0], kNoVertex);
}

TEST(Dijkstra, PicksShorterOfTwoRoutes) {
  // 0 -> 1 -> 2 costs 2; direct 0 -> 2 costs 3.
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 3.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(r.dist[2], 2.0);
  EXPECT_EQ(r.parent[2], 1);
}

TEST(Dijkstra, UnreachableIsInf) {
  auto g = from_edges(3, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_EQ(r.dist[2], kInfDist);
  EXPECT_EQ(r.parent[2], kNoVertex);
}

TEST(Dijkstra, EarlyExitSettlesTarget) {
  auto g = graph::grid(20, 20, {graph::WeightKind::kUniform01, 3});
  DijkstraOptions opts;
  opts.target = 399;
  auto early = dijkstra(GraphView(g), 0, opts);
  auto full = dijkstra(GraphView(g), 0);
  EXPECT_DOUBLE_EQ(early.dist[399], full.dist[399]);
}

TEST(Dijkstra, VertexBanReroutes) {
  // 0 -> 1 -> 3 (cost 2) vs 0 -> 2 -> 3 (cost 4); ban 1.
  auto g = from_edges(4, {{0, 1, 1.0}, {1, 3, 1.0}, {0, 2, 2.0}, {2, 3, 2.0}});
  std::vector<std::uint8_t> banned(4, 0);
  banned[1] = 1;
  DijkstraOptions opts;
  opts.bans.vertices = banned.data();
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_DOUBLE_EQ(r.dist[3], 4.0);
  EXPECT_EQ(r.dist[1], kInfDist);
}

TEST(Dijkstra, EdgeBanReroutes) {
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}});
  std::unordered_set<eid_t> banned{g.find_edge(1, 2)};
  DijkstraOptions opts;
  opts.bans.edges = &banned;
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_DOUBLE_EQ(r.dist[2], 5.0);
}

TEST(Dijkstra, BannedSourceYieldsNothing) {
  auto g = from_edges(2, {{0, 1, 1.0}});
  std::vector<std::uint8_t> banned{1, 0};
  DijkstraOptions opts;
  opts.bans.vertices = banned.data();
  auto r = dijkstra(GraphView(g), 0, opts);
  EXPECT_EQ(r.dist[0], kInfDist);
}

TEST(Dijkstra, InvalidSourceIsSafe) {
  auto g = from_edges(2, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), -1);
  EXPECT_EQ(r.dist[0], kInfDist);
  r = dijkstra(GraphView(g), 5);
  EXPECT_EQ(r.dist[0], kInfDist);
}

TEST(ReverseDijkstra, DistancesToTarget) {
  auto g = from_edges(3, {{0, 1, 1.5}, {1, 2, 2.5}});
  auto r = reverse_dijkstra(g, 2);
  EXPECT_DOUBLE_EQ(r.dist[0], 4.0);
  EXPECT_DOUBLE_EQ(r.dist[1], 2.5);
  // parent[v] = successor toward t.
  EXPECT_EQ(r.parent[0], 1);
  EXPECT_EQ(r.parent[1], 2);
}

TEST(ReverseDijkstra, PaperExampleSpTgt) {
  auto ex = test::paper_example_graph();
  auto r = reverse_dijkstra(ex.g, ex.t);
  // Distances to t read off Figure 3(c)'s role (with our weights):
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("s")], 11.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("j")], 2.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("l")], 4.0);
  EXPECT_DOUBLE_EQ(r.dist[ex.id.at("q")], 3.0);
  EXPECT_EQ(r.dist[ex.id.at("b")], kInfDist);  // b has no out-edges
  EXPECT_EQ(r.dist[ex.id.at("p")], kInfDist);
}

TEST(ShortestDistance, Convenience) {
  auto g = from_edges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  EXPECT_DOUBLE_EQ(shortest_distance(g, 0, 2), 2.0);
  EXPECT_EQ(shortest_distance(g, 2, 0), kInfDist);
}

TEST(Dijkstra, ParentsFormShortestPathTree) {
  auto g = test::random_graph(200, 1500, 21);
  auto r = dijkstra(GraphView(g), 0);
  for (vid_t v = 0; v < 200; ++v) {
    if (r.dist[v] == kInfDist || v == 0) continue;
    const vid_t p = r.parent[v];
    ASSERT_NE(p, kNoVertex);
    const eid_t e = g.find_edge(p, v);
    ASSERT_NE(e, kNoEdge);
    EXPECT_NEAR(r.dist[p] + g.edge_weight(e), r.dist[v], 1e-12);
  }
}

// The workspace overload is the same loop over caller-owned storage: it must
// match the allocating overload bit for bit, whatever the workspace ran
// before — another graph, another size, bans or an unreachable target.

void expect_same_tree(const SsspResult& want, const SsspResult& got) {
  EXPECT_EQ(want.dist, got.dist);  // bit-identical, not approximately equal
  EXPECT_EQ(want.parent, got.parent);
  EXPECT_EQ(want.status, got.status);
}

TEST(DijkstraWorkspace, MatchesAllocatingOverloadAcrossGraphSizes) {
  DijkstraWorkspace ws;  // shared: every run re-sizes it for its graph
  for (vid_t n : {250, 120, 400}) {
    auto g = test::random_graph(n, n * 8, static_cast<std::uint64_t>(n));
    GraphView view(g);
    for (vid_t t = 1; t < 40; t += 7) {
      DijkstraOptions opts;
      opts.target = t;
      const auto want = dijkstra(view, 0, opts);
      expect_same_tree(want, dijkstra(view, 0, opts, ws));
      EXPECT_EQ(path_from_parents(want, 0, t).verts,
                path_from_parents(ws.tree, 0, t).verts);
    }
  }
}

TEST(DijkstraWorkspace, RespectsBans) {
  auto g = test::random_graph(200, 200 * 8, 21);
  GraphView view(g);
  std::vector<std::uint8_t> banned(200, 0);
  for (vid_t v = 3; v < 200; v += 5) banned[v] = 1;
  std::unordered_set<eid_t> banned_edges{0, 5, 9, 42};
  DijkstraOptions opts;
  opts.target = 100;
  opts.bans = {banned.data(), &banned_edges};
  DijkstraWorkspace ws;
  dijkstra(view, 1, {}, ws);  // a prior unrestricted run must not leak
  expect_same_tree(dijkstra(view, 1, opts), dijkstra(view, 1, opts, ws));
}

TEST(DijkstraWorkspace, UnreachableAndInvalidTargets) {
  auto g = from_edges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  GraphView view(g);
  DijkstraWorkspace ws;
  DijkstraOptions opts;
  opts.target = 3;  // other component
  EXPECT_TRUE(path_from_parents(dijkstra(view, 0, opts, ws), 0, 3).empty());
  opts.target = kNoVertex;  // no target: settles everything, no path to 3
  EXPECT_TRUE(path_from_parents(dijkstra(view, 0, opts, ws), 0, 3).empty());
  EXPECT_EQ(ws.tree.dist[1], 1.0);
  EXPECT_EQ(dijkstra(view, -1, opts, ws).dist[0], kInfDist);  // invalid source
}

}  // namespace
}  // namespace peek::sssp
