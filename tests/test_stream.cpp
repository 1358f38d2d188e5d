#include "ksp/stream.hpp"

#include <gtest/gtest.h>

#include "ksp/bruteforce.hpp"
#include "ksp/optyen.hpp"
#include "test_util.hpp"

namespace peek::ksp {
namespace {

TEST(KspStream, ProducesPathsInOrder) {
  auto ex = test::paper_example_graph();
  KspStream stream(ex.g, ex.s, ex.t);
  auto p1 = stream.next();
  auto p2 = stream.next();
  auto p3 = stream.next();
  ASSERT_TRUE(p1 && p2 && p3);
  EXPECT_DOUBLE_EQ(p1->dist, 11.0);
  EXPECT_DOUBLE_EQ(p2->dist, 12.0);
  EXPECT_DOUBLE_EQ(p3->dist, 14.0);
}

TEST(KspStream, MatchesBatchOptYen) {
  // optyen_ksp is this stream drained to K, so the two agree vertex for
  // vertex — also on unit-weight graphs, where lengths tie everywhere and
  // any second implementation would break ties its own way.
  std::vector<test::NamedGraph> graphs;
  graphs.push_back({"random100", test::random_graph(100, 800, 921)});
  for (auto& ng : test::tie_heavy_graphs()) graphs.push_back(std::move(ng));
  KspOptions ko;
  ko.k = 12;
  for (const auto& [name, g] : graphs) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 8)) {
      SCOPED_TRACE(name + " " + std::to_string(s) + "->" + std::to_string(t));
      auto batch = optyen_ksp(g, s, t, ko);
      KspStream stream(g, s, t);
      for (const auto& expect : batch.paths) {
        auto got = stream.next();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->verts, expect.verts);
        EXPECT_EQ(got->dist, expect.dist);
      }
    }
  }
}

TEST(KspStream, ExhaustsAndStaysExhausted) {
  auto g = graph::from_edges(4, {{0, 1, 1.0}, {0, 2, 2.0}, {1, 3, 1.0},
                                 {2, 3, 1.0}});
  KspStream stream(g, 0, 3);
  EXPECT_TRUE(stream.next().has_value());
  EXPECT_TRUE(stream.next().has_value());
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_EQ(stream.produced().size(), 2u);
}

TEST(KspStream, UnreachableAndInvalid) {
  auto g = graph::from_edges(3, {{1, 0, 1.0}});
  KspStream a(g, 0, 2);
  EXPECT_FALSE(a.next().has_value());
  KspStream b(g, -1, 2);
  EXPECT_FALSE(b.next().has_value());
}

TEST(KspStream, MatchesOracleFully) {
  auto g = test::random_graph(28, 80, 923);
  auto all = bruteforce_ksp(g, 0, 14, 1 << 20).paths;
  KspStream stream(g, 0, 14);
  for (const auto& expect : all) {
    auto got = stream.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_NEAR(got->dist, expect.dist, 1e-9) << sssp::to_string(expect);
    EXPECT_TRUE(sssp::is_simple(*got));
  }
  EXPECT_FALSE(stream.next().has_value());
}

TEST(KspStream, LazyCostGrowsWithDemand) {
  auto g = test::random_graph(200, 1600, 925);
  KspStream cheap(g, 0, 100);
  cheap.next();
  const int after_one = cheap.stats().sssp_calls;
  KspStream costly(g, 0, 100);
  for (int i = 0; i < 10; ++i) costly.next();
  EXPECT_LE(after_one, costly.stats().sssp_calls);
  EXPECT_EQ(after_one, 1);  // the first path needs exactly the reverse tree
}

}  // namespace
}  // namespace peek::ksp
