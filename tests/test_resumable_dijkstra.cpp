// The search core's resumable and seeded runs (sssp::DijkstraWorkspace):
// stopping at a target and resuming, SB*'s ban-repair seeding, and an A*
// run stopped and resumed — each must agree exactly with one uninterrupted
// or from-scratch run.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

TEST(ResumableDijkstra, FullRunMatchesDijkstra) {
  auto g = test::random_graph(150, 900, 31);
  GraphView view(g);
  DijkstraWorkspace ws;
  ws.start(view, 0, {});
  ws.run(view, {});
  auto ref = dijkstra(view, 0);
  EXPECT_EQ(ws.tree.dist, ref.dist);
  EXPECT_EQ(ws.tree.parent, ref.parent);
}

TEST(ResumableDijkstra, StopsAtTargetThenResumes) {
  auto g = graph::path(10, {graph::WeightKind::kUnit, 1});
  GraphView view(g);
  DijkstraWorkspace ws;
  ws.start(view, 0, {});
  DijkstraOptions opts;
  opts.target = 5;
  ws.run(view, opts);
  EXPECT_DOUBLE_EQ(ws.tree.dist[5], 5.0);
  // No work past the target: its out-edge is relaxed only on resume.
  EXPECT_EQ(ws.tree.dist[6], kInfDist);
  EXPECT_EQ(ws.tree.dist[8], kInfDist);
  EXPECT_EQ(ws.counts.settled, 6);
  opts.target = 9;
  ws.run(view, opts);
  EXPECT_DOUBLE_EQ(ws.tree.dist[9], 9.0);
  EXPECT_EQ(ws.tree.parent[9], 8);
  EXPECT_EQ(ws.counts.settled, 10);
}

TEST(ResumableDijkstra, UnreachableTargetDrainsHeap) {
  auto g = graph::from_edges(3, {{0, 1, 1.0}});
  GraphView view(g);
  DijkstraWorkspace ws;
  ws.start(view, 0, {});
  DijkstraOptions opts;
  opts.target = 2;
  ws.run(view, opts);
  EXPECT_EQ(ws.tree.dist[2], kInfDist);
  EXPECT_EQ(ws.next_key(), kInfDist);  // frontier empty
  EXPECT_EQ(ws.counts.settled, 2);
}

TEST(ResumableDijkstra, RepairSeededMatchesFreshWithBans) {
  // The SB* trick: recompute with one more banned vertex by repairing the
  // old tree. Must agree exactly with a from-scratch banned Dijkstra.
  auto g = test::random_graph(120, 960, 37);
  GraphView view(g);
  auto base = dijkstra(view, 0);
  DijkstraWorkspace ws;
  for (vid_t banned_v = 1; banned_v < 20; ++banned_v) {
    std::vector<std::uint8_t> mask(120, 0);
    mask[banned_v] = 1;
    DijkstraOptions opts;
    opts.bans = {mask.data(), nullptr};
    seed_ban_repair(view, 0, base, opts.bans, ws);
    ws.run(view, opts);
    auto fresh = dijkstra(view, 0, opts);
    for (vid_t v = 0; v < 120; ++v) {
      EXPECT_EQ(ws.tree.dist[v], fresh.dist[v])
          << "ban " << banned_v << " v " << v;
    }
  }
}

TEST(ResumableDijkstra, RepairWithGrowingBanSet) {
  // Chain of repairs mirroring SB*'s prefix growth.
  auto g = test::random_graph(100, 700, 41);
  GraphView view(g);
  std::vector<std::uint8_t> mask(100, 0);
  SsspResult current = dijkstra(view, 0);
  DijkstraWorkspace ws;
  for (vid_t v = 1; v <= 6; ++v) {
    mask[v] = 1;
    DijkstraOptions opts;
    opts.bans = {mask.data(), nullptr};
    seed_ban_repair(view, 0, current, opts.bans, ws);
    ws.run(view, opts);
    current = ws.tree;
    auto fresh = dijkstra(view, 0, opts);
    EXPECT_EQ(current.dist, fresh.dist) << "after banning " << v;
  }
}

TEST(ResumableDijkstra, BannedSourceProducesEmptyResult) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  GraphView view(g);
  std::vector<std::uint8_t> mask{1, 0};
  DijkstraOptions opts;
  opts.bans = {mask.data(), nullptr};
  DijkstraWorkspace ws;
  ws.start(view, 0, opts.bans);
  ws.run(view, opts);
  EXPECT_EQ(ws.tree.dist[0], kInfDist);
  EXPECT_EQ(ws.tree.dist[1], kInfDist);
  seed_ban_repair(view, 0, dijkstra(view, 0), opts.bans, ws);
  ws.run(view, opts);
  EXPECT_EQ(ws.tree.dist[0], kInfDist);
  EXPECT_EQ(ws.tree.dist[1], kInfDist);
}

// The prune's search: A* from t over the reverse graph, guided by the
// forward distances from s. Stopping at targets and resuming must settle the
// same vertices, in the same order, with the same dist and parent as one
// uninterrupted run — under continuous weights and under ties.
TEST(ResumableDijkstra, AStarStopAndResumeMatchesOneRun) {
  std::vector<test::NamedGraph> graphs = test::tie_heavy_graphs();
  graphs.push_back({"er200", test::random_graph(200, 1400, 43)});
  for (const auto& [name, g] : graphs) {
    const vid_t n = g.num_vertices();
    for (const auto& [s, t] : test::spread_pairs(n, 4)) {
      const SsspResult from_s = dijkstra(GraphView(g), s);
      const auto potential = [&from_s](vid_t v) { return from_s.dist[v]; };
      const GraphView rev(g.reverse());

      // One uninterrupted run, stepped to record the settle order.
      DijkstraWorkspace once;
      once.start(rev, t, {}, potential);
      fault::CancelPoll never(nullptr);
      std::vector<vid_t> order;
      for (vid_t u; (u = once.settle_next(rev, {}, never, potential)) !=
                    kNoVertex;) {
        order.push_back(u);
      }
      for (vid_t v = 0; v < n; ++v) {
        if (from_s.dist[v] == kInfDist) {
          EXPECT_FALSE(once.settled(v));
        }
      }

      // The same search stopped at every third settled vertex.
      DijkstraWorkspace resumed;
      resumed.start(rev, t, {}, potential);
      for (size_t i = 0; i < order.size(); i += 3) {
        DijkstraOptions opts;
        opts.target = order[i];
        resumed.run(rev, opts, potential);
        ASSERT_EQ(resumed.counts.settled, static_cast<std::int64_t>(i + 1))
            << name << " " << s << "->" << t;
        for (size_t j = 0; j <= i; ++j) EXPECT_TRUE(resumed.settled(order[j]));
        if (i + 1 < order.size()) {
          EXPECT_FALSE(resumed.settled(order[i + 1]));
        }
      }
      resumed.run(rev, {}, potential);
      for (vid_t v = 0; v < n; ++v) {
        EXPECT_EQ(resumed.settled(v), once.settled(v)) << name << " v " << v;
      }
      EXPECT_EQ(resumed.tree.dist, once.tree.dist) << name;
      EXPECT_EQ(resumed.tree.parent, once.tree.parent) << name;
      EXPECT_EQ(resumed.counts.relaxed, once.counts.relaxed) << name;
    }
  }
}

}  // namespace
}  // namespace peek::sssp
