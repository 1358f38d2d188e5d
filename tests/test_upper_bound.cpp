#include "core/upper_bound.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "compact/regeneration.hpp"
#include "ksp/bruteforce.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::core {
namespace {

TEST(UpperBound, PaperExampleBoundAndKeepSet) {
  // Figure 3: K = 3 gives b = 14 and keeps exactly {s, g, l, f, j, q, t}.
  auto ex = test::paper_example_graph();
  PruneOptions opts;
  opts.k = 3;
  auto r = k_upper_bound_prune(ex.g, ex.s, ex.t, opts);
  EXPECT_DOUBLE_EQ(r.upper_bound, 14.0);
  EXPECT_EQ(r.kept_vertices, 7);
  for (const char* name : {"s", "g", "l", "f", "j", "q", "t"})
    EXPECT_TRUE(r.vertex_keep[ex.id.at(name)]) << name;
  for (const char* name : {"a", "b", "c", "d", "e", "i", "o", "p", "r"})
    EXPECT_FALSE(r.vertex_keep[ex.id.at(name)]) << name;
}

TEST(UpperBound, PaperExampleRejectsNonSimpleCombinedPaths) {
  // §4.1 / Figure 3(e): at K = 4 the scan meets i (sum 16: s f j i, then
  // i j t repeats j), o (18) and r (18), whose combined paths repeat l, and
  // rejects all three; the 4th valid path is s e o r l t, so b = 19. Both
  // scans, the bounded one and the reference over a full reverse tree.
  auto ex = test::paper_example_graph();
  const sssp::SsspResult full = sssp::reverse_dijkstra(ex.g, ex.t);
  for (bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "full reverse tree" : "bounded search");
    PruneOptions opts;
    opts.k = 4;
    if (reference) opts.reuse_to_target = &full;
    auto r = k_upper_bound_prune(ex.g, ex.s, ex.t, opts);
    EXPECT_DOUBLE_EQ(r.upper_bound, 19.0);
    EXPECT_EQ(r.inspected_paths, 11);  // 4 valid, 3 non-simple, 4 repeats
  }
}

TEST(UpperBound, BoundIsSound) {
  // b must be >= the true K-th shortest path distance (Lemma 4.2's premise).
  // Unit weights too: under tied lengths the reverse search may pick other
  // shortest-path parents, and so another b, than a full reverse tree would.
  for (bool unit : {false, true}) {
    SCOPED_TRACE(unit ? "unit weights" : "uniform weights");
    for (std::uint64_t seed : {201u, 202u, 203u, 204u}) {
      auto g = test::random_graph(32, 96, seed, unit);
      auto oracle = ksp::bruteforce_ksp(g, 0, 16, 8);
      if (oracle.paths.size() < 8) continue;
      PruneOptions opts;
      opts.k = 8;
      auto r = k_upper_bound_prune(g, 0, 16, opts);
      EXPECT_GE(r.upper_bound + 1e-12, oracle.paths.back().dist) << seed;
    }
  }
}

TEST(UpperBound, KeepsEveryKspVertex) {
  // Theorem 4.3's precondition: no vertex of any of the K shortest paths may
  // be pruned — also on unit weights, where the oracle's tie-breaks and the
  // reverse search's need not agree.
  for (bool unit : {false, true}) {
    SCOPED_TRACE(unit ? "unit weights" : "uniform weights");
    for (std::uint64_t seed : {211u, 212u, 213u}) {
      auto g = test::random_graph(32, 96, seed, unit);
      auto oracle = ksp::bruteforce_ksp(g, 0, 16, 8);
      if (oracle.paths.empty()) continue;
      PruneOptions opts;
      opts.k = 8;
      auto r = k_upper_bound_prune(g, 0, 16, opts);
      for (const auto& p : oracle.paths)
        for (vid_t v : p.verts) EXPECT_TRUE(r.vertex_keep[v]) << "seed " << seed;
    }
  }
}

TEST(UpperBound, TieHeavyBoundIsSoundAndKeepsEveryKspVertex) {
  // Unit-weight grids and a small-world graph, where most lengths tie: the
  // bound still covers the K-th distance and every oracle path survives.
  graph::WeightOptions unit;
  unit.kind = graph::WeightKind::kUnit;
  std::vector<test::NamedGraph> graphs;
  graphs.push_back({"grid4x4", graph::grid(4, 4, unit)});
  graphs.push_back({"grid3x8", graph::grid(3, 8, unit)});
  graphs.push_back({"smallworld16", graph::small_world(16, 4, 0.2, unit, 7)});
  graphs.push_back({"er24", graph::erdos_renyi(24, 72, unit, 5)});
  for (const auto& [name, g] : graphs) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 6)) {
      for (int k : {1, 4, 8, 16}) {
        SCOPED_TRACE(name + " " + std::to_string(s) + "->" +
                     std::to_string(t) + " K=" + std::to_string(k));
        auto oracle = ksp::bruteforce_ksp(g, s, t, k);
        PruneOptions opts;
        opts.k = k;
        auto r = k_upper_bound_prune(g, s, t, opts);
        if (oracle.paths.empty()) {
          EXPECT_EQ(r.kept_vertices, 0);
          continue;
        }
        if (oracle.paths.size() == static_cast<size_t>(k)) {
          EXPECT_GE(r.upper_bound, oracle.paths.back().dist);
        }
        for (const auto& p : oracle.paths)
          for (vid_t v : p.verts) EXPECT_TRUE(r.vertex_keep[v]) << v;
      }
    }
  }
}

/// The prune's outputs that must not depend on how spTgt was obtained.
void expect_same_prune(const PruneResult& got, const PruneResult& want) {
  ASSERT_EQ(got.status, fault::Status::kOk);
  ASSERT_EQ(want.status, fault::Status::kOk);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.upper_bound),
            std::bit_cast<std::uint64_t>(want.upper_bound));
  EXPECT_EQ(got.kept_vertices, want.kept_vertices);
  EXPECT_EQ(got.inspected_paths, want.inspected_paths);
  ASSERT_EQ(got.vertex_keep, want.vertex_keep);
  EXPECT_EQ(got.kept_list, want.kept_list);
  for (size_t v = 0; v < want.vertex_keep.size(); ++v) {
    if (!want.vertex_keep[v]) continue;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.to_target.dist[v]),
              std::bit_cast<std::uint64_t>(want.to_target.dist[v]))
        << "vertex " << v;
    EXPECT_EQ(got.to_target.parent[v], want.to_target.parent[v])
        << "vertex " << v;
  }
}

TEST(UpperBound, BoundedSearchMatchesFullTrees) {
  // Without tied path lengths the bounded reverse search reproduces the
  // all-vertex scan over a full reverse tree exactly: same b to the bit,
  // same keep mask, same inspected paths, same spTgt on every kept vertex.
  std::vector<test::NamedGraph> graphs;
  for (std::uint64_t seed : {261u, 262u, 263u, 264u})
    graphs.push_back({"er" + std::to_string(seed),
                      test::random_graph(400, 3200, seed)});
  graphs.push_back({"rmat12", graph::rmat(12, 8)});
  int finite_bounds = 0;
  for (const auto& [name, g] : graphs) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 4)) {
      const sssp::SsspResult full = sssp::reverse_dijkstra(g, t);
      for (int k : {1, 8, 64}) {
        for (bool parallel : {false, true}) {
          SCOPED_TRACE(name + " " + std::to_string(s) + "->" +
                       std::to_string(t) + " K=" + std::to_string(k) +
                       (parallel ? " parallel" : " serial"));
          PruneOptions opts;
          opts.k = k;
          opts.parallel = parallel;
          const PruneResult bounded = k_upper_bound_prune(g, s, t, opts);
          opts.reuse_to_target = &full;
          const PruneResult reference = k_upper_bound_prune(g, s, t, opts);
          expect_same_prune(bounded, reference);
          if (reference.upper_bound != kInfDist) finite_bounds++;
        }
      }
    }
  }
  // The sweep must exercise the bounded stop, not only b = ∞ run-outs.
  EXPECT_GT(finite_bounds, 60);
}

TEST(UpperBound, ParallelScanParentsMatchAHandedFullTree) {
  // Every prune runs Δ-stepping's bucket loop (one worker inline when
  // serial) and looks up only the forward parents its scan walks, by one
  // rule. Handed the full Δ-stepping tree instead (whose parents it never
  // reads), the same prune must find the same b, keep mask, inspected
  // paths, kept list and compacted graph; so must the serial prune, at
  // every thread count. Every parent the scan looked up must be the
  // smallest tight in-neighbour. Unit weights make most parents a choice
  // among ties.
  std::vector<test::NamedGraph> graphs = test::tie_heavy_graphs();
  for (std::uint64_t seed : {271u, 272u, 273u}) {
    graphs.push_back({"er" + std::to_string(seed),
                      test::random_graph(300, 2400, seed)});
  }
  std::int64_t looked_up = 0;
  int finite_bounds = 0;
  for (const auto& [name, g] : graphs) {
    const sssp::GraphView view(g);
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 4)) {
      const sssp::SsspResult dj = sssp::dijkstra(view, s);
      const std::vector<vid_t> want = test::smallest_tight_parents(view, dj, s);
      const sssp::SsspResult full = sssp::delta_stepping(view, s);
      for (int k : {1, 8, 32}) {
        PruneOptions serial_opts;
        serial_opts.k = k;
        const PruneResult serial = k_upper_bound_prune(g, s, t, serial_opts);
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(name + " " + std::to_string(s) + "->" +
                       std::to_string(t) + " K=" + std::to_string(k) + " " +
                       std::to_string(threads) + " threads");
          par::ThreadScope scope(threads);
          PruneOptions opts;
          opts.k = k;
          opts.parallel = true;
          const PruneResult on_demand = k_upper_bound_prune(g, s, t, opts);
          opts.reuse_from_source = &full;
          const PruneResult handed = k_upper_bound_prune(g, s, t, opts);
          ASSERT_EQ(on_demand.status, fault::Status::kOk);
          ASSERT_EQ(handed.status, fault::Status::kOk);
          ASSERT_EQ(serial.status, fault::Status::kOk);
          for (const PruneResult* other : {&handed, &serial}) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(on_demand.upper_bound),
                      std::bit_cast<std::uint64_t>(other->upper_bound));
            EXPECT_EQ(on_demand.vertex_keep, other->vertex_keep);
            EXPECT_EQ(on_demand.inspected_paths, other->inspected_paths);
            EXPECT_EQ(on_demand.kept_vertices, other->kept_vertices);
            EXPECT_EQ(on_demand.kept_list, other->kept_list);
          }
          EXPECT_EQ(on_demand.kept_list,
                    compact::kept_vertices(view, on_demand.vertex_keep.data()));
          const auto a = compact::regenerate(view, on_demand.kept_list,
                                             on_demand.edge_keep);
          const auto b =
              compact::regenerate(view, handed.kept_list, handed.edge_keep);
          EXPECT_TRUE(a.graph == b.graph);
          EXPECT_EQ(a.map.new_to_old, b.map.new_to_old);
          if (handed.upper_bound != kInfDist) finite_bounds++;

          ASSERT_EQ(on_demand.from_source.dist, dj.dist);
          EXPECT_EQ(on_demand.from_source.parent, serial.from_source.parent);
          for (size_t v = 0; v < want.size(); ++v) {
            const vid_t p = on_demand.from_source.parent[v];
            if (p == kNoVertex) continue;
            looked_up++;
            EXPECT_EQ(p, want[v]) << "vertex " << v;
          }
        }
      }
    }
  }
  EXPECT_GT(looked_up, 0);
  EXPECT_GT(finite_bounds, 100);
}

#if PEEK_OBS_ENABLED
TEST(UpperBound, BoundedSearchSettlesAFewPercent) {
  // The reverse search settles about the kept set, not the graph; read from
  // its own counter, so a silent fallback to a full search fails here.
  auto g = graph::rmat(12, 8);
  auto& settled = obs::MetricsRegistry::global().counter("prune.search.settled");
  auto& relaxed =
      obs::MetricsRegistry::global().counter("prune.search.relaxed_edges");
  const auto settled0 = settled.value();
  const auto relaxed0 = relaxed.value();
  PruneOptions opts;
  opts.k = 8;
  auto r = k_upper_bound_prune(g, 1, 2000, opts);
  ASSERT_GT(r.kept_vertices, 0);
  ASSERT_NE(r.upper_bound, kInfDist);
  const auto n_settled = settled.value() - settled0;
  EXPECT_GE(n_settled, r.kept_vertices);
  EXPECT_LT(n_settled, g.num_vertices() / 20);
  EXPECT_GT(relaxed.value() - relaxed0, 0);
}
#endif

TEST(UpperBound, RoundingTightParentCycleEndsTheWalk) {
  // 1e17 + 1 rounds to 1e17, so a -> b and b -> a are both tight, and the
  // smallest tight in-neighbour of a is b (id 1 < s's id 2): the looked-up
  // parents form a cycle that never reaches s. The scan must reject such a
  // half and finish, keeping the one real path s a t.
  const vid_t a = 0, b = 1, s = 2, t = 3;
  auto g = graph::from_edges(
      4, {{s, a, 1e17}, {a, b, 1.0}, {b, a, 1.0}, {a, t, 1.0}});
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    PruneOptions opts;
    opts.k = 1;
    opts.parallel = parallel;
    const PruneResult r = k_upper_bound_prune(g, s, t, opts);
    ASSERT_EQ(r.status, fault::Status::kOk);
    EXPECT_NE(r.upper_bound, kInfDist);
    for (vid_t v : {s, a, t}) EXPECT_TRUE(r.vertex_keep[v]) << v;
  }
}

TEST(UpperBound, UnreachableTargetPrunesEverything) {
  auto g = graph::from_edges(3, {{1, 0, 1.0}});
  auto r = k_upper_bound_prune(g, 0, 2, {});
  EXPECT_EQ(r.kept_vertices, 0);
  EXPECT_EQ(r.upper_bound, kInfDist);
}

TEST(UpperBound, FewerPathsThanKKeepsAllReachable) {
  // Only one simple path exists; with K = 5 the bound must fall back to inf
  // and keep every s-t-reachable vertex.
  auto g = graph::path(6, {graph::WeightKind::kUnit, 1});
  PruneOptions opts;
  opts.k = 5;
  auto r = k_upper_bound_prune(g, 0, 5, opts);
  EXPECT_EQ(r.upper_bound, kInfDist);
  EXPECT_EQ(r.kept_vertices, 6);
}

TEST(UpperBound, SourceAndTargetAlwaysKept) {
  for (std::uint64_t seed : {221u, 222u}) {
    auto g = test::random_graph(64, 512, seed);
    PruneOptions opts;
    opts.k = 2;
    auto r = k_upper_bound_prune(g, 0, 32, opts);
    if (r.kept_vertices == 0) continue;  // unreachable pair
    EXPECT_TRUE(r.vertex_keep[0]);
    EXPECT_TRUE(r.vertex_keep[32]);
  }
}

TEST(UpperBound, ParallelMatchesSerial) {
  auto g = test::random_graph(300, 2400, 231);
  PruneOptions ser;
  ser.k = 8;
  PruneOptions par = ser;
  par.parallel = true;
  auto a = k_upper_bound_prune(g, 0, 150, ser);
  auto b = k_upper_bound_prune(g, 0, 150, par);
  EXPECT_EQ(a.kept_vertices, b.kept_vertices);
  EXPECT_NEAR(a.upper_bound, b.upper_bound, 1e-9);
  EXPECT_EQ(a.vertex_keep, b.vertex_keep);
}

TEST(UpperBound, LargerKKeepsMore) {
  auto g = test::random_graph(200, 1600, 233);
  PruneOptions small;
  small.k = 2;
  PruneOptions large;
  large.k = 64;
  auto a = k_upper_bound_prune(g, 0, 100, small);
  auto b = k_upper_bound_prune(g, 0, 100, large);
  EXPECT_LE(a.kept_vertices, b.kept_vertices);
  EXPECT_LE(a.upper_bound, b.upper_bound);
}

TEST(UpperBound, EdgeKeepPaperRule) {
  // Paper rule (line 13): only the weight matters.
  auto ex = test::paper_example_graph();
  PruneOptions opts;
  opts.k = 3;
  auto r = k_upper_bound_prune(ex.g, ex.s, ex.t, opts);
  ASSERT_TRUE(static_cast<bool>(r.edge_keep));
  EXPECT_TRUE(r.edge_keep(0, 1, 14.0));
  EXPECT_FALSE(r.edge_keep(0, 1, 14.5));
}

TEST(UpperBound, TightEdgePruneIsStrongerButStillSound) {
  for (std::uint64_t seed : {241u, 242u}) {
    auto g = test::random_graph(32, 96, seed);
    auto oracle = ksp::bruteforce_ksp(g, 0, 16, 6);
    if (oracle.paths.size() < 6) continue;
    PruneOptions opts;
    opts.k = 6;
    opts.tight_edge_prune = true;
    auto r = k_upper_bound_prune(g, 0, 16, opts);
    // Soundness: every edge on every oracle path survives the tight rule.
    for (const auto& p : oracle.paths) {
      for (size_t i = 0; i + 1 < p.verts.size(); ++i) {
        const eid_t e = g.find_edge(p.verts[i], p.verts[i + 1]);
        EXPECT_TRUE(r.edge_keep(p.verts[i], p.verts[i + 1], g.edge_weight(e)))
            << "seed " << seed;
      }
    }
  }
}

TEST(UpperBound, PruningPowerIsHighOnBigGraphs) {
  // The paper's headline: ~98% of vertices pruned. On a 2^12-vertex R-MAT we
  // should see well over half the graph vanish for K = 8.
  auto g = graph::rmat(12, 8);
  PruneOptions opts;
  opts.k = 8;
  auto r = k_upper_bound_prune(g, 1, 2000, opts);
  if (r.kept_vertices == 0) GTEST_SKIP() << "unreachable pair";
  EXPECT_LT(r.kept_vertices, g.num_vertices() / 2);
}

}  // namespace
}  // namespace peek::core
