// GraphView: a uniform, zero-copy way for the SSSP/KSP algorithms to traverse
//   (a) a plain CSR,
//   (b) an edge-swap-compacted CSR (per-vertex valid-edge counts, §5.2), or
//   (c) a status-array-masked CSR (vertex/edge alive bytes, the §5.4 baseline)
// without copying the graph or templating every algorithm. It stores raw
// array pointers so it can also view the mutable CSR owned by the compaction
// module; all referenced arrays must outlive the view.
#pragma once

#include <algorithm>
#include <cstdint>

#include "graph/csr.hpp"

namespace peek::sssp {

using graph::CsrGraph;

class GraphView {
 public:
  GraphView() = default;

  /// View of the whole graph.
  explicit GraphView(const CsrGraph& g)
      : n_(g.num_vertices()), row_(g.row_offsets().data()),
        col_(g.col().data()), wgt_(g.weights().data()),
        max_w_(g.max_edge_weight()) {}

  /// Status-array view over a CsrGraph: per-vertex / per-edge alive bytes
  /// (either may be null).
  GraphView(const CsrGraph& g, const std::uint8_t* vertex_alive,
            const std::uint8_t* edge_alive)
      : GraphView(g) {
    vertex_alive_ = vertex_alive;
    edge_alive_ = edge_alive;
  }

  /// Fully general raw-array view (used by MutableCsr / edge-swap).
  /// `max_w` is the largest weight in `wgt`, or 0 when not known (an
  /// automatic Δ is then 1).
  GraphView(vid_t n, const eid_t* row, const vid_t* col, const weight_t* wgt,
            const eid_t* valid_edge_count, const std::uint8_t* vertex_alive,
            const std::uint8_t* edge_alive, weight_t max_w = 0)
      : n_(n), row_(row), col_(col), wgt_(wgt), edge_count_(valid_edge_count),
        vertex_alive_(vertex_alive), edge_alive_(edge_alive), max_w_(max_w) {}

  vid_t num_vertices() const { return n_; }

  bool vertex_alive(vid_t v) const {
    return vertex_alive_ == nullptr || vertex_alive_[v] != 0;
  }

  eid_t edge_begin(vid_t v) const { return row_[v]; }
  eid_t edge_end(vid_t v) const {
    return edge_count_ ? row_[v] + edge_count_[v] : row_[v + 1];
  }
  /// Edge-level liveness (status-array views only; edge-swap encodes
  /// deletion positionally so every in-range edge is alive).
  bool edge_alive(eid_t e) const {
    return edge_alive_ == nullptr || edge_alive_[e] != 0;
  }

  vid_t edge_target(eid_t e) const { return col_[e]; }
  weight_t edge_weight(eid_t e) const { return wgt_[e]; }

  /// First alive in-range edge u -> v, or kNoEdge. Linear in deg(u).
  eid_t find_edge(vid_t u, vid_t v) const {
    for (eid_t e = edge_begin(u); e < edge_end(u); ++e) {
      if (col_[e] == v && edge_alive(e)) return e;
    }
    return kNoEdge;
  }

  /// Largest weight in the viewed arrays, alive or not: the viewed graph's
  /// CsrGraph::max_edge_weight, O(1). Δ-stepping's automatic bucket width
  /// reads it.
  weight_t graph_max_weight() const { return max_w_; }

  /// Max alive edge weight, by a scan over every edge.
  weight_t max_edge_weight() const {
    weight_t mx = 0;
    for (vid_t v = 0; v < n_; ++v) {
      if (!vertex_alive(v)) continue;
      for (eid_t e = edge_begin(v); e < edge_end(v); ++e) {
        if (edge_alive(e)) mx = std::max(mx, wgt_[e]);
      }
    }
    return mx;
  }

  /// Alive-edge count (O(n) with edge counts, O(m) with edge masks).
  eid_t count_alive_edges() const {
    eid_t total = 0;
    for (vid_t v = 0; v < n_; ++v) {
      if (!vertex_alive(v)) continue;
      for (eid_t e = edge_begin(v); e < edge_end(v); ++e) {
        if (edge_alive(e) && vertex_alive(col_[e])) total++;
      }
    }
    return total;
  }

 private:
  vid_t n_ = 0;
  const eid_t* row_ = nullptr;
  const vid_t* col_ = nullptr;
  const weight_t* wgt_ = nullptr;
  const eid_t* edge_count_ = nullptr;
  const std::uint8_t* vertex_alive_ = nullptr;
  const std::uint8_t* edge_alive_ = nullptr;
  weight_t max_w_ = 0;
};

/// Forward + reverse views of the same logical graph — what the KSP
/// algorithms take: forward for deviation SSSPs, reverse for the static
/// reverse shortest-path tree.
struct BiView {
  GraphView fwd;
  GraphView rev;

  /// Builds both views of a CsrGraph (materialises the cached transpose).
  static BiView of(const CsrGraph& g) {
    return {GraphView(g), GraphView(g.reverse())};
  }
};

}  // namespace peek::sssp
