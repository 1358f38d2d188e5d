// Row-wise 1-D graph partitioning (§6.2): rank r owns a contiguous vertex
// range and the full out-adjacency of those vertices — the Graph500-style
// layout. Communication-friendly: a relaxation of edge (u, v) is generated
// by u's owner and applied by v's owner.
//
// The same cut points also serve as the serving tier's locality key:
// shard::ShardRouter hashes (block of s, block of t) over partition_points
// blocks, so queries with co-located endpoints share a shard's caches
// (DESIGN.md §12).
#pragma once

#include <vector>

#include "graph/csr.hpp"

namespace peek::dist {

using graph::CsrGraph;

/// One rank's slice of a 1-D row partition.
struct LocalGraph {
  int rank = 0;
  int ranks = 1;
  vid_t n_global = 0;
  vid_t begin = 0;  // owned vertex range [begin, end)
  vid_t end = 0;

  /// Local CSR over owned rows; row i is global vertex begin + i. Column ids
  /// stay GLOBAL (targets may be remote).
  std::vector<eid_t> row;      // (end-begin)+1
  std::vector<vid_t> col;
  std::vector<weight_t> wgt;

  vid_t owned() const { return end - begin; }
  bool owns(vid_t global) const { return global >= begin && global < end; }
  vid_t to_local(vid_t global) const { return global - begin; }
  vid_t to_global(vid_t local) const { return local + begin; }
};

/// The vertex-range cut points for `ranks` equal-vertex-count parts.
std::vector<vid_t> partition_points(vid_t n, int ranks);

/// Owner rank of a global vertex under `partition_points(n, ranks)`.
int owner_of(vid_t v, const std::vector<vid_t>& points);

/// Extracts rank `r`'s slice of `g` (out-edges of owned vertices).
LocalGraph make_local_graph(const CsrGraph& g, int rank, int ranks);

}  // namespace peek::dist
