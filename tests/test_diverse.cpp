#include "core/diverse.hpp"

#include <gtest/gtest.h>

#include "compact/regeneration.hpp"
#include "core/peek.hpp"
#include "ksp/optyen.hpp"
#include "ksp/stream.hpp"
#include "test_util.hpp"

namespace peek::core {
namespace {

TEST(PathSimilarity, Extremes) {
  sssp::Path a{{0, 1, 2}, 1.0};
  sssp::Path b{{0, 1, 2}, 2.0};
  sssp::Path c{{3, 4, 5}, 1.0};
  EXPECT_DOUBLE_EQ(path_similarity(a, b), 1.0);
  EXPECT_DOUBLE_EQ(path_similarity(a, c), 0.0);
}

TEST(PathSimilarity, PartialOverlap) {
  sssp::Path a{{0, 1, 2, 3}, 1.0};
  sssp::Path b{{0, 9, 8, 3}, 1.0};
  // Intersection {0,3} = 2, union = 6.
  EXPECT_NEAR(path_similarity(a, b), 2.0 / 6.0, 1e-12);
}

TEST(Diverse, ResultsAreMutuallyDiverse) {
  auto g = test::random_graph(200, 1600, 951);
  DiverseOptions opts;
  opts.k = 4;
  opts.max_similarity = 0.5;
  auto r = diverse_ksp(g, 0, 100, opts);
  if (r.paths.empty()) GTEST_SKIP() << "unreachable pair";
  test::check_ksp_invariants(g, 0, 100, r.paths);
  for (size_t i = 0; i < r.paths.size(); ++i)
    for (size_t j = 0; j < i; ++j)
      EXPECT_LE(path_similarity(r.paths[i], r.paths[j]), 0.5 + 1e-12);
}

TEST(Diverse, FirstPathIsShortest) {
  auto g = test::random_graph(150, 1200, 953);
  ksp::KspOptions ko;
  ko.k = 1;
  auto shortest = ksp::optyen_ksp(g, 0, 75, ko);
  auto r = diverse_ksp(g, 0, 75, {.k = 3});
  if (shortest.paths.empty()) {
    EXPECT_TRUE(r.paths.empty());
  } else {
    ASSERT_FALSE(r.paths.empty());
    EXPECT_NEAR(r.paths[0].dist, shortest.paths[0].dist, 1e-9);
  }
}

TEST(Diverse, SimilarityOneDegeneratesToKsp) {
  // With the ceiling at 1.0 nothing is filtered: top-k ranked paths.
  auto g = test::random_graph(100, 800, 955);
  DiverseOptions opts;
  opts.k = 5;
  opts.max_similarity = 1.0;
  auto r = diverse_ksp(g, 0, 50, opts);
  ksp::KspOptions ko;
  ko.k = 5;
  auto plain = ksp::optyen_ksp(g, 0, 50, ko);
  test::expect_same_distances(plain.paths, r.paths);
}

TEST(Diverse, ScanBudgetRespected) {
  auto g = test::random_graph(150, 1200, 957);
  DiverseOptions opts;
  opts.k = 10;
  opts.max_similarity = 0.05;  // nearly impossible
  opts.max_scanned = 20;
  auto r = diverse_ksp(g, 0, 75, opts);
  EXPECT_LE(r.scanned, 20);
}

TEST(Diverse, UnreachableAndTrivial) {
  auto g = graph::from_edges(3, {{1, 0, 1.0}});
  auto r = diverse_ksp(g, 0, 2, {});
  EXPECT_TRUE(r.paths.empty());
  EXPECT_TRUE(r.exhausted);
  EXPECT_TRUE(diverse_ksp(g, 0, 2, {.k = 0}).paths.empty());
}

TEST(Diverse, ExhaustsSmallGraph) {
  auto g = graph::from_edges(4, {{0, 1, 1.0}, {0, 2, 2.0}, {1, 3, 1.0},
                                 {2, 3, 1.0}});
  DiverseOptions opts;
  opts.k = 5;
  opts.max_similarity = 0.9;
  auto r = diverse_ksp(g, 0, 3, opts);
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.paths.size(), 2u);  // both paths are diverse enough
}

TEST(Diverse, StreamsFromThePrunesReverseTreeUnderTies) {
  // diverse_ksp warm-starts its stream from the prune's reverse tree, as
  // peek_ksp does. On a unit-weight grid many paths tie, so its answer at
  // similarity 1 (nothing filtered) matches, vertex for vertex, a stream
  // built from the same public calls only if it streams from that tree.
  graph::WeightOptions unit;
  unit.kind = graph::WeightKind::kUnit;
  const auto g = graph::grid(8, 8, unit);
  DiverseOptions opts;
  opts.k = 6;
  opts.max_similarity = 1.0;
  opts.max_scanned = 32;
  for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 6)) {
    SCOPED_TRACE(std::to_string(s) + "->" + std::to_string(t));
    const DiverseResult got = diverse_ksp(g, s, t, opts);
    PruneOptions po;
    po.k = opts.max_scanned;
    const PruneResult pruned = k_upper_bound_prune(g, s, t, po);
    ASSERT_GT(pruned.kept_vertices, 0);
    auto regen = compact::regenerate(sssp::GraphView(g),
                                     pruned.vertex_keep.data(),
                                     pruned.edge_keep, {.parallel = false});
    ksp::KspStream stream(sssp::BiView::of(regen.graph), regen.map.to_new(s),
                          regen.map.to_new(t),
                          compacted_reverse_tree(pruned.to_target, regen.map));
    std::vector<sssp::Path> want;
    while (want.size() < static_cast<size_t>(opts.k)) {
      auto p = stream.next();
      if (!p) break;
      for (auto& v : p->verts) v = regen.map.to_old(v);
      want.push_back(std::move(*p));
    }
    ASSERT_EQ(got.paths.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.paths[i].verts, want[i].verts) << "rank " << i;
      EXPECT_EQ(got.paths[i].dist, want[i].dist) << "rank " << i;
    }
  }
}

}  // namespace
}  // namespace peek::core
