// MutableCsr: the pipeline-owned, mutable twin of CsrGraph that the edge-swap
// compaction (§5.2) operates on. It keeps BOTH orientations (forward and
// reverse adjacency) so the KSP stage can still build reverse shortest-path
// trees after edges have been swapped out.
#pragma once

#include <cstdint>
#include <vector>

#include "sssp/view.hpp"

namespace peek::compact {

using graph::CsrGraph;
using sssp::BiView;
using sssp::GraphView;

class MutableCsr {
 public:
  /// Deep-copies `g` (and its transpose) into mutable arrays. Every vertex
  /// starts alive with its full degree valid.
  explicit MutableCsr(const CsrGraph& g);

  vid_t num_vertices() const { return n_; }

  /// Alive out-edge count summed over alive vertices.
  eid_t num_valid_edges() const;

  GraphView view() const {
    return GraphView(n_, fwd_row_.data(), fwd_col_.data(), fwd_wgt_.data(),
                     fwd_count_.data(), vertex_alive_.data(), nullptr, max_w_);
  }
  GraphView reverse_view() const {
    return GraphView(n_, rev_row_.data(), rev_col_.data(), rev_wgt_.data(),
                     rev_count_.data(), vertex_alive_.data(), nullptr, max_w_);
  }
  BiView biview() const { return {view(), reverse_view()}; }

  std::vector<std::uint8_t>& vertex_alive() { return vertex_alive_; }
  const std::vector<std::uint8_t>& vertex_alive() const { return vertex_alive_; }

  // Raw access for the compaction kernels.
  std::vector<eid_t>& fwd_row() { return fwd_row_; }
  std::vector<vid_t>& fwd_col() { return fwd_col_; }
  std::vector<weight_t>& fwd_wgt() { return fwd_wgt_; }
  std::vector<eid_t>& fwd_count() { return fwd_count_; }
  std::vector<eid_t>& rev_row() { return rev_row_; }
  std::vector<vid_t>& rev_col() { return rev_col_; }
  std::vector<weight_t>& rev_wgt() { return rev_wgt_; }
  std::vector<eid_t>& rev_count() { return rev_count_; }

 private:
  vid_t n_ = 0;
  weight_t max_w_ = 0;  // the copied graph's; swaps only reorder weights
  std::vector<std::uint8_t> vertex_alive_;
  std::vector<eid_t> fwd_row_, rev_row_;        // n+1, never mutated
  std::vector<vid_t> fwd_col_, rev_col_;        // swapped in place
  std::vector<weight_t> fwd_wgt_, rev_wgt_;     // swapped alongside col
  std::vector<eid_t> fwd_count_, rev_count_;    // valid out/in-edge counts
};

}  // namespace peek::compact
