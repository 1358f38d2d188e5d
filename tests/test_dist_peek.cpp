#include "dist/dist_peek.hpp"

#include <gtest/gtest.h>

#include <random>

#include "ksp/bruteforce.hpp"
#include "test_util.hpp"

namespace peek::dist {
namespace {

/// DistPeek at each rank count against core::peek_ksp, on every rank. Both
/// prune with the same rule on the same distances and resolve the forward
/// parents they walk by the same rule, so b, the kept count and every path
/// must be identical, distances under `==` and paths vertex for vertex, on
/// weights with ties too.
void expect_matches_serial_peek(const graph::CsrGraph& g, vid_t s, vid_t t,
                                int k, std::initializer_list<int> rank_counts) {
  core::PeekOptions po;
  po.k = k;
  const auto serial = core::peek_ksp(g, s, t, po);
  for (int ranks : rank_counts) {
    SCOPED_TRACE(::testing::Message() << "ranks " << ranks);
    std::vector<DistPeekResult> per_rank(static_cast<size_t>(ranks));
    run_ranks(ranks, [&](Comm& c) {
      DistPeekOptions opts;
      opts.k = k;
      per_rank[static_cast<size_t>(c.rank())] =
          dist_peek_ksp(c, g, s, t, opts);
    });
    for (int r = 0; r < ranks; ++r) {
      SCOPED_TRACE(r);
      const DistPeekResult& got = per_rank[static_cast<size_t>(r)];
      EXPECT_EQ(got.upper_bound, serial.upper_bound);
      EXPECT_EQ(got.kept_vertices, serial.kept_vertices);
      ASSERT_EQ(got.ksp.paths.size(), serial.ksp.paths.size());
      for (size_t i = 0; i < got.ksp.paths.size(); ++i) {
        EXPECT_EQ(got.ksp.paths[i].dist, serial.ksp.paths[i].dist)
            << "position " << i;
        EXPECT_EQ(got.ksp.paths[i].verts, serial.ksp.paths[i].verts)
            << "position " << i;
      }
    }
    if (!per_rank[0].ksp.paths.empty())
      test::check_ksp_invariants(g, s, t, per_rank[0].ksp.paths);
  }
}

TEST(DistPeek, PaperExample) {
  auto ex = test::paper_example_graph();
  run_ranks(3, [&](Comm& c) {
    DistPeekOptions opts;
    opts.k = 3;
    auto r = dist_peek_ksp(c, ex.g, ex.s, ex.t, opts);
    ASSERT_EQ(r.ksp.paths.size(), 3u);
    EXPECT_DOUBLE_EQ(r.ksp.paths[0].dist, 11.0);
    EXPECT_DOUBLE_EQ(r.ksp.paths[2].dist, 14.0);
    EXPECT_DOUBLE_EQ(r.upper_bound, 14.0);
    EXPECT_EQ(r.kept_vertices, 7);
  });
}

TEST(DistPeek, MatchesSerialAcrossRankCounts) {
  auto g = test::random_graph(120, 960, 801);
  expect_matches_serial_peek(g, 0, 60, 8, {1, 2, 4});

  // Many pairs and K values: the K-th path's vertices can sum an ulp above
  // b, and a keep rule without keep_slack drops them. Single pairs rarely
  // hit that. Uniform weights have no ties; unit weights stress them.
  for (std::uint64_t seed = 811; seed < 818; ++seed) {
    const bool unit = seed >= 816;
    auto er = test::random_graph(200, 1600, seed, unit);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<vid_t> pick(0, er.num_vertices() - 1);
    for (int pair = 0; pair < 6; ++pair) {
      const vid_t s = pick(rng);
      vid_t t = pick(rng);
      if (t == s) t = (s + 1) % er.num_vertices();
      for (int k : {4, 16, 64}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " s " << s
                                          << " t " << t << " k " << k);
        expect_matches_serial_peek(er, s, t, k, {1, 2, 4});
      }
    }
  }
}

TEST(DistPeek, UnitWeights) {
  auto g = test::random_graph(100, 1000, 803, /*unit_weights=*/true);
  expect_matches_serial_peek(g, 0, 50, 6, {3});
}

TEST(DistPeek, UnreachablePair) {
  auto g = graph::from_edges(6, {{1, 0, 1.0}, {2, 3, 1.0}});
  run_ranks(2, [&](Comm& c) {
    auto r = dist_peek_ksp(c, g, 0, 5, {});
    EXPECT_TRUE(r.ksp.paths.empty());
  });
}

TEST(DistPeek, ReportsRelaxedEdges) {
  auto g = test::random_graph(100, 800, 805);
  run_ranks(2, [&](Comm& c) {
    DistPeekOptions opts;
    opts.k = 4;
    auto r = dist_peek_ksp(c, g, 0, 50, opts);
    EXPECT_GT(r.edges_relaxed, 0);
  });
}

TEST(DistPeek, MatchesOracleOnSmallGraph) {
  auto g = test::random_graph(28, 80, 807);
  auto oracle = ksp::bruteforce_ksp(g, 0, 14, 6);
  run_ranks(2, [&](Comm& c) {
    DistPeekOptions opts;
    opts.k = 6;
    auto r = dist_peek_ksp(c, g, 0, 14, opts);
    test::expect_same_distances(oracle.paths, r.ksp.paths);
  });
}

}  // namespace
}  // namespace peek::dist
