// Terrace-style hierarchical dynamic graph container — the Figure 12
// comparator. Like Terrace (Pandey et al. 2021), each vertex stores its
// neighbours in a degree-dependent hierarchy: a small inline buffer for the
// common low-degree case, a sorted packed vector for medium degrees (the
// PMA level), and an ordered tree (std::map as the B-tree stand-in) for
// hubs. Point insertions/deletions are cheap-ish; the price relative to a
// packed CSR is paid in locality and per-edge update work — exactly the
// trade-off the paper measures against batch compaction.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "graph/csr.hpp"

namespace peek::dyn {

using graph::CsrGraph;

class DynamicGraph {
 public:
  static constexpr int kInlineSlots = 8;
  /// Overflow size beyond which a vertex promotes to the tree level.
  static constexpr size_t kTreeThreshold = 128;

  explicit DynamicGraph(vid_t n);
  /// Bulk-load from a CSR (keeps the CSR's edge order per vertex).
  explicit DynamicGraph(const CsrGraph& g);

  vid_t num_vertices() const { return static_cast<vid_t>(rows_.size()); }
  eid_t num_edges() const { return m_; }

  bool vertex_alive(vid_t v) const { return rows_[v].alive; }

  /// Inserts u -> v (no dedup check across levels for speed; callers that
  /// need set semantics should delete first). O(1) amortised inline,
  /// O(log d + d) in the overflow level.
  void insert_edge(vid_t u, vid_t v, weight_t w);

  /// Deletes one u -> v edge; returns true if found. O(inline) or
  /// O(log d + d) overflow.
  bool delete_edge(vid_t u, vid_t v);

  /// Reweights the first u -> v edge in level order to `w` and returns the
  /// old weight, or kInfDist if no such edge exists (no insertion happens in
  /// that case). Structure-preserving: edge count and adjacency are
  /// unchanged, only the weight moves — the cheapest mutation the update
  /// pipeline (dyn/update_batch.hpp) repairs.
  weight_t reweight_edge(vid_t u, vid_t v, weight_t w);

  /// Weight of the first u -> v edge in level order (the one reweight_edge /
  /// delete_edge would pick), or kInfDist when absent.
  weight_t edge_weight(vid_t u, vid_t v) const;

  /// Deletes the vertex and its out-edges; in-edges toward it are skipped at
  /// traversal time (and discounted from num_edges lazily).
  void delete_vertex(vid_t v);

  eid_t out_degree(vid_t v) const;

  /// Calls fn(target, weight) for every live out-edge of v (skipping edges
  /// into deleted vertices).
  template <typename Fn>
  void for_each_neighbor(vid_t v, Fn&& fn) const {
    const Row& row = rows_[v];
    if (!row.alive) return;
    for (int i = 0; i < row.inline_count; ++i) {
      const Edge& e = row.inline_buf[static_cast<size_t>(i)];
      if (rows_[e.to].alive) fn(e.to, e.weight);
    }
    for (const Edge& e : row.overflow) {
      if (rows_[e.to].alive) fn(e.to, e.weight);
    }
    for (const auto& [to, w] : row.tree) {
      if (rows_[to].alive) fn(to, w);
    }
  }

  /// Which storage level vertex v's highest edges live in (for tests).
  enum class Level { kInline, kOverflow, kTree };
  Level level_of(vid_t v) const;

  /// Re-packs into a fresh CSR (deleted vertices keep their ids with zero
  /// degree so ids remain stable).
  CsrGraph to_csr() const;

 private:
  struct Edge {
    vid_t to;
    weight_t weight;
  };
  struct Row {
    std::array<Edge, kInlineSlots> inline_buf;
    std::uint8_t inline_count = 0;
    bool alive = true;
    std::vector<Edge> overflow;        // sorted by `to` (PMA level)
    std::map<vid_t, weight_t> tree;    // hub level (B-tree stand-in)
  };

  std::vector<Row> rows_;
  eid_t m_ = 0;
};

}  // namespace peek::dyn
