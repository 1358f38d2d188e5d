// Path value type + utilities shared by every KSP algorithm: reconstruction
// from forward/reverse parent arrays, concatenation and simplicity checks.
// The K upper bound's combined-path validation (§4.1) lives with its scan
// (core/upper_bound.cpp), which resolves its own forward parents.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sssp/dijkstra.hpp"

namespace peek::sssp {

/// A directed path as an explicit vertex sequence plus its total distance.
struct Path {
  std::vector<vid_t> verts;
  weight_t dist = kInfDist;

  bool empty() const { return verts.empty(); }
  size_t hops() const { return verts.empty() ? 0 : verts.size() - 1; }

  bool operator==(const Path& o) const { return verts == o.verts; }
};

/// Orders by distance, then lexicographically for determinism.
struct PathLess {
  bool operator()(const Path& a, const Path& b) const {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.verts < b.verts;
  }
};

struct PathHash {
  size_t operator()(const Path& p) const;
};

/// Path s -> t from a forward SSSP's parent array (empty if unreachable).
Path path_from_parents(const SsspResult& sssp, vid_t s, vid_t t);

/// Path v -> t from a REVERSE SSSP's parent array: reverse_dijkstra(g, t)
/// yields parent[v] = v's successor toward t, so the path reads forward.
Path path_from_reverse_parents(const SsspResult& rev, vid_t v, vid_t t);

/// prefix ++ suffix where prefix.back() == suffix.front(); distances add.
Path concat(const Path& prefix, const Path& suffix);

/// No repeated vertex (Definition 1's looplessness requirement).
bool is_simple(const Path& p);

/// Recomputes the distance of `p` over `g`; kInfDist if an edge is missing.
weight_t path_distance(const graph::CsrGraph& g, const std::vector<vid_t>& verts);

/// "s -> a -> b -> t (3.25)" rendering for logs and examples.
std::string to_string(const Path& p);

}  // namespace peek::sssp
