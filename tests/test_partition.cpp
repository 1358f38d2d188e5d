#include "dist/partition.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace peek::dist {
namespace {

TEST(PartitionPoints, CoverExactly) {
  auto pts = partition_points(10, 3);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front(), 0);
  EXPECT_EQ(pts.back(), 10);
  for (size_t i = 0; i + 1 < pts.size(); ++i) EXPECT_LE(pts[i], pts[i + 1]);
}

TEST(PartitionPoints, MoreRanksThanVertices) {
  auto pts = partition_points(2, 5);
  EXPECT_EQ(pts.back(), 2);
}

TEST(OwnerOf, Consistency) {
  const vid_t n = 103;
  const int ranks = 7;
  auto pts = partition_points(n, ranks);
  for (vid_t v = 0; v < n; ++v) {
    const int o = owner_of(v, pts);
    EXPECT_GE(v, pts[static_cast<size_t>(o)]);
    EXPECT_LT(v, pts[static_cast<size_t>(o) + 1]);
  }
}

TEST(LocalGraph, SlicesCoverAllEdges) {
  auto g = test::random_graph(60, 480, 601);
  const int ranks = 4;
  eid_t total = 0;
  for (int r = 0; r < ranks; ++r) {
    auto lg = make_local_graph(g, r, ranks);
    EXPECT_EQ(lg.rank, r);
    EXPECT_EQ(lg.n_global, 60);
    total += static_cast<eid_t>(lg.col.size());
    // Row structure matches the global graph.
    for (vid_t lv = 0; lv < lg.owned(); ++lv) {
      const vid_t gv = lg.to_global(lv);
      EXPECT_EQ(lg.row[lv + 1] - lg.row[lv], g.degree(gv));
    }
  }
  EXPECT_EQ(total, g.num_edges());
}

TEST(LocalGraph, OwnershipHelpers) {
  auto g = test::random_graph(20, 100, 603);
  auto lg = make_local_graph(g, 1, 4);
  EXPECT_TRUE(lg.owns(lg.begin));
  EXPECT_FALSE(lg.owns(lg.end));
  EXPECT_EQ(lg.to_global(lg.to_local(lg.begin)), lg.begin);
}

}  // namespace
}  // namespace peek::dist
