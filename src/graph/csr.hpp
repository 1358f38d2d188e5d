// Compressed sparse row (CSR) representation of a directed, weighted graph.
//
// This is the static graph substrate every algorithm in the library runs on.
// It mirrors the layout described in §5.1 of the paper: a begin-position array
// of length n+1 and an adjacency list of length m, plus a parallel weight
// array. A reverse CSR (incoming edges) is built on demand and cached so the
// reverse SSSP in K-upper-bound pruning and the reverse shortest-path trees in
// the KSP algorithms can traverse in-edges at the same cost as out-edges.
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "check/invariants.hpp"
#include "graph/types.hpp"

namespace peek::graph {

/// One outgoing (or incoming, in a reverse view) edge.
struct Edge {
  vid_t to;
  weight_t weight;
};

/// Immutable CSR digraph. Construct via `Builder` (builder.hpp) or the
/// generators; direct construction from raw arrays is available for tests.
class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of pre-validated CSR arrays.
  /// `row_offsets.size() == n+1`, `col.size() == weights.size() == m`,
  /// offsets monotonically non-decreasing, column ids in [0, n). The
  /// validation pass over every edge also records the max weight.
  CsrGraph(std::vector<eid_t> row_offsets, std::vector<vid_t> col,
           std::vector<weight_t> weights);

  vid_t num_vertices() const { return n_; }
  eid_t num_edges() const { return m_; }

  /// Out-degree of `v`.
  eid_t degree(vid_t v) const {
    PEEK_DCHECK(v >= 0 && v < n_);
    return row_[v + 1] - row_[v];
  }

  /// Edge-array index range [begin, end) of v's out-edges.
  eid_t edge_begin(vid_t v) const { return row_[v]; }
  eid_t edge_end(vid_t v) const { return row_[v + 1]; }

  vid_t edge_target(eid_t e) const { return col_[e]; }
  weight_t edge_weight(eid_t e) const { return wgt_[e]; }

  /// Out-neighbours of `v` as parallel spans (targets, weights).
  std::span<const vid_t> neighbors(vid_t v) const {
    return {col_.data() + row_[v], static_cast<size_t>(degree(v))};
  }
  std::span<const weight_t> neighbor_weights(vid_t v) const {
    return {wgt_.data() + row_[v], static_cast<size_t>(degree(v))};
  }

  std::span<const eid_t> row_offsets() const { return row_; }
  std::span<const vid_t> col() const { return col_; }
  std::span<const weight_t> weights() const { return wgt_; }

  /// Returns the edge index of (u,v) or kNoEdge. Linear in deg(u).
  eid_t find_edge(vid_t u, vid_t v) const;

  /// Total weight of all edges (used by tests and stats).
  weight_t total_weight() const;

  /// Largest edge weight (0 with no edges), found once at construction:
  /// the graph is immutable, so Δ-stepping's automatic bucket width reads it
  /// instead of scanning every edge per call.
  weight_t max_edge_weight() const { return max_w_; }

  /// The transposed graph (every edge reversed; see `transpose`). Built
  /// lazily, cached, and safe to call concurrently after a first warm-up
  /// call.
  const CsrGraph& reverse() const;

  /// Eagerly build and cache the reverse graph (call before parallel regions
  /// that will use `reverse()` from multiple threads).
  void warm_reverse() const;

  /// Structural + weight equality (ids and order must match exactly).
  bool operator==(const CsrGraph& other) const;

 private:
  /// Once-built transpose. Lives behind its own shared_ptr so CsrGraph stays
  /// copyable/movable (copies share the cache — the transpose of equal
  /// content is equal), and uses std::call_once so concurrent first calls to
  /// reverse()/warm_reverse() are race-free: a double-checked read of a plain
  /// shared_ptr would be a data race under ThreadSanitizer (and the memory
  /// model).
  struct ReverseCache {
    std::once_flag once;
    std::shared_ptr<const CsrGraph> graph;  // written exactly once
  };

  vid_t n_ = 0;
  eid_t m_ = 0;
  weight_t max_w_ = 0;
  std::vector<eid_t> row_;      // n+1
  std::vector<vid_t> col_;      // m
  std::vector<weight_t> wgt_;   // m
  mutable std::shared_ptr<ReverseCache> rcache_ =
      std::make_shared<ReverseCache>();
};

/// Builds the transpose of `g` (counting sort over target vertices). Each
/// in-row lists its sources in increasing id order, so the first tight
/// in-edge of a row is the smallest tight in-neighbour (the parent rule of
/// sssp/delta_stepping).
CsrGraph transpose(const CsrGraph& g);

}  // namespace peek::graph
