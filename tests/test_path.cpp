#include "sssp/path.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "test_util.hpp"

namespace peek::sssp {
namespace {

TEST(Path, FromParents) {
  auto g = graph::from_edges(4, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 3, 3.0}});
  auto r = dijkstra(GraphView(g), 0);
  Path p = path_from_parents(r, 0, 3);
  EXPECT_EQ(p.verts, (std::vector<vid_t>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(p.dist, 6.0);
}

TEST(Path, FromParentsUnreachable) {
  auto g = graph::from_edges(3, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), 0);
  EXPECT_TRUE(path_from_parents(r, 0, 2).empty());
}

TEST(Path, FromParentsSourceIsTarget) {
  auto g = graph::from_edges(2, {{0, 1, 1.0}});
  auto r = dijkstra(GraphView(g), 0);
  Path p = path_from_parents(r, 0, 0);
  EXPECT_EQ(p.verts, (std::vector<vid_t>{0}));
  EXPECT_DOUBLE_EQ(p.dist, 0.0);
}

TEST(Path, FromReverseParents) {
  auto g = graph::from_edges(3, {{0, 1, 1.0}, {1, 2, 2.0}});
  auto r = reverse_dijkstra(g, 2);
  Path p = path_from_reverse_parents(r, 0, 2);
  EXPECT_EQ(p.verts, (std::vector<vid_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(p.dist, 3.0);
}

TEST(Path, Concat) {
  Path a{{0, 1, 2}, 3.0};
  Path b{{2, 5}, 1.5};
  Path c = concat(a, b);
  EXPECT_EQ(c.verts, (std::vector<vid_t>{0, 1, 2, 5}));
  EXPECT_DOUBLE_EQ(c.dist, 4.5);
}

TEST(Path, ConcatMismatchIsEmpty) {
  EXPECT_TRUE(concat({{0, 1}, 1.0}, {{2, 3}, 1.0}).empty());
  EXPECT_TRUE(concat({}, {{0, 1}, 1.0}).empty());
}

TEST(Path, IsSimple) {
  EXPECT_TRUE(is_simple({{0, 1, 2}, 0}));
  EXPECT_FALSE(is_simple({{0, 1, 0}, 0}));
  EXPECT_TRUE(is_simple({{}, 0}));
}

TEST(Path, Distance) {
  auto g = graph::from_edges(3, {{0, 1, 1.5}, {1, 2, 2.5}});
  EXPECT_DOUBLE_EQ(path_distance(g, {0, 1, 2}), 4.0);
  EXPECT_EQ(path_distance(g, {0, 2}), kInfDist);  // missing edge
  EXPECT_EQ(path_distance(g, {}), kInfDist);
}

TEST(Path, HashDistinguishes) {
  PathHash h;
  EXPECT_NE(h({{0, 1, 2}, 0}), h({{0, 2, 1}, 0}));
  EXPECT_EQ(h({{0, 1, 2}, 0}), h({{0, 1, 2}, 99.0}));  // dist not hashed
}

TEST(Path, ToString) {
  EXPECT_EQ(to_string({{0, 3, 7}, 2.5}), "0 -> 3 -> 7 (2.5)");
}

TEST(PathLess, OrdersByDistThenLex) {
  PathLess less;
  EXPECT_TRUE(less({{0, 1}, 1.0}, {{0, 2}, 2.0}));
  EXPECT_TRUE(less({{0, 1}, 1.0}, {{0, 2}, 1.0}));
  EXPECT_FALSE(less({{0, 2}, 1.0}, {{0, 1}, 1.0}));
}

}  // namespace
}  // namespace peek::sssp
