// Shared test helpers: tiny reference graphs (including the paper's Figure 2
// running example), random-graph factories, and KSP result checkers.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "ksp/path_set.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/path.hpp"

namespace peek::test {

/// The running example of Figures 2/3/5: 16 vertices a..t (no h/k/m/n),
/// source s, target t. Vertex ids follow the alphabet order used below.
struct PaperExample {
  graph::CsrGraph g;
  vid_t s, t;
  std::map<std::string, vid_t> id;
};

inline PaperExample paper_example_graph() {
  // Alphabetic id assignment for {a,b,c,d,e,f,g,i,j,l,o,p,q,r,s,t}.
  const std::vector<std::string> names = {"a", "b", "c", "d", "e", "f",
                                          "g", "i", "j", "l", "o", "p",
                                          "q", "r", "s", "t"};
  std::map<std::string, vid_t> id;
  for (size_t i = 0; i < names.size(); ++i)
    id[names[i]] = static_cast<vid_t>(i);
  graph::Builder b(static_cast<vid_t>(names.size()));
  auto E = [&](const std::string& u, const std::string& v, weight_t w) {
    b.add_edge(id.at(u), id.at(v), w);
  };
  // Edge list reconstructed from Figures 2(a)/3/5(a). The adjacency structure
  // follows the CSR of Figure 5(a):
  //   a:{b,s} b:{} c:{b} d:{s} e:{o} f:{g,i,j,p} g:{f,l} i:{j,l} j:{i,l,p,t}
  //   l:{o,q,t} o:{r} p:{} q:{t} r:{l} s:{e,f,g} t:{}
  // and the weights are chosen to reproduce the figure's published numbers
  // exactly: KSP(K=3) = {s f j t: 11, s g l t: 12, s g l q t: 14}, upper
  // bound b = 14, kept set {s, g, l, f, j, q, t}, pruned
  // {a, b, c, d, e, i, o, p, r} (a..d unreachable, the rest by spSum > b).
  E("a", "b", 3);  E("a", "s", 1);
  E("c", "b", 8);
  E("d", "s", 1);
  E("e", "o", 8);
  E("f", "g", 8);  E("f", "i", 7);  E("f", "j", 1);  E("f", "p", 3);
  E("g", "f", 8);  E("g", "l", 4);
  E("i", "j", 2);  E("i", "l", 5);
  E("j", "i", 3);  E("j", "l", 3);  E("j", "p", 2);  E("j", "t", 2);
  E("l", "o", 2);  E("l", "q", 3);  E("l", "t", 4);
  E("o", "r", 3);
  E("q", "t", 3);
  E("r", "l", 1);
  E("s", "e", 3);  E("s", "f", 8);  E("s", "g", 4);
  return {b.build(), id.at("s"), id.at("t"), std::move(id)};
}

/// Small random digraph guaranteed to be KSP-testable (s can often reach t).
inline graph::CsrGraph random_graph(vid_t n, eid_t m, std::uint64_t seed,
                                    bool unit_weights = false) {
  graph::WeightOptions w;
  w.kind = unit_weights ? graph::WeightKind::kUnit
                        : graph::WeightKind::kUniform01;
  w.seed = seed * 77 + 13;
  return graph::erdos_renyi(n, m, w, seed);
}

/// A graph with a name for failure messages.
struct NamedGraph {
  std::string name;
  graph::CsrGraph g;
};

/// Unit-weight graphs on which many s-t paths tie in length: the cases in
/// which two KSP implementations can agree on every distance yet pick
/// different paths.
inline std::vector<NamedGraph> tie_heavy_graphs() {
  graph::WeightOptions unit;
  unit.kind = graph::WeightKind::kUnit;
  std::vector<NamedGraph> out;
  out.push_back({"grid8x8", graph::grid(8, 8, unit)});
  out.push_back({"er60", graph::erdos_renyi(60, 240, unit, 5)});
  out.push_back({"smallworld60", graph::small_world(60, 4, 0.2, unit, 7)});
  return out;
}

/// `count` distinct-endpoint query pairs spread over vertices [0, n).
inline std::vector<std::pair<vid_t, vid_t>> spread_pairs(vid_t n, int count) {
  std::vector<std::pair<vid_t, vid_t>> out;
  for (int i = 0; i < count; ++i) {
    const vid_t s = static_cast<vid_t>((i * 7) % n);
    const vid_t t = static_cast<vid_t>((n - 1 + n - (i * 5) % n) % n);
    if (s != t) out.push_back({s, t});
  }
  return out;
}

/// Asserts every structural invariant of a KSP answer: simple paths, correct
/// endpoints, correctly priced, strictly increasing... (non-decreasing)
/// distances, no duplicates.
inline void check_ksp_invariants(const graph::CsrGraph& g, vid_t s, vid_t t,
                                 const std::vector<sssp::Path>& paths) {
  for (size_t i = 0; i < paths.size(); ++i) {
    const auto& p = paths[i];
    ASSERT_FALSE(p.verts.empty());
    EXPECT_EQ(p.verts.front(), s);
    EXPECT_EQ(p.verts.back(), t);
    EXPECT_TRUE(sssp::is_simple(p)) << sssp::to_string(p);
    const weight_t d = sssp::path_distance(g, p.verts);
    EXPECT_NEAR(d, p.dist, 1e-9) << sssp::to_string(p);
    if (i > 0) {
      EXPECT_GE(p.dist + 1e-12, paths[i - 1].dist);
    }
    for (size_t j = 0; j < i; ++j)
      EXPECT_FALSE(paths[j].verts == p.verts) << "duplicate path";
  }
}

/// Distance multisets must agree (tie-breaking may legitimately differ
/// between algorithms, path distances may not).
inline void expect_same_distances(const std::vector<sssp::Path>& a,
                                  const std::vector<sssp::Path>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i].dist, b[i].dist, 1e-9) << "position " << i;
}

/// The parent rule sssp::delta_stepping promises on the distances `ref`:
/// the smallest alive in-neighbour u of v with dist[u] + w(u, v) == dist[v]
/// (kNoVertex for the source and for unreachable vertices).
inline std::vector<vid_t> smallest_tight_parents(const sssp::GraphView& view,
                                                 const sssp::SsspResult& ref,
                                                 vid_t source) {
  std::vector<vid_t> want(ref.dist.size(), kNoVertex);
  for (vid_t u = 0; u < view.num_vertices(); ++u) {
    if (!view.vertex_alive(u) || ref.dist[u] == kInfDist) continue;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      const vid_t v = view.edge_target(e);
      if (!view.edge_alive(e) || v == source || !view.vertex_alive(v)) {
        continue;
      }
      if (ref.dist[u] + view.edge_weight(e) == ref.dist[v] &&
          (want[v] == kNoVertex || u < want[v])) {
        want[v] = u;
      }
    }
  }
  return want;
}

}  // namespace peek::test
