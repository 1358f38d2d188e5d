#include "graph/csr.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace peek::graph {

CsrGraph::CsrGraph(std::vector<eid_t> row_offsets, std::vector<vid_t> col,
                   std::vector<weight_t> weights)
    : row_(std::move(row_offsets)), col_(std::move(col)), wgt_(std::move(weights)) {
  if (row_.empty()) throw std::invalid_argument("CsrGraph: empty row_offsets");
  n_ = static_cast<vid_t>(row_.size() - 1);
  m_ = static_cast<eid_t>(col_.size());
  if (wgt_.size() != col_.size())
    throw std::invalid_argument("CsrGraph: col/weights size mismatch");
  if (row_.front() != 0 || row_.back() != m_)
    throw std::invalid_argument("CsrGraph: bad offset endpoints");
  for (vid_t v = 0; v < n_; ++v) {
    if (row_[v] > row_[v + 1])
      throw std::invalid_argument("CsrGraph: offsets not monotone");
  }
  weight_t max_w = 0;
  for (eid_t e = 0; e < m_; ++e) {
    if (col_[e] < 0 || col_[e] >= n_)
      throw std::invalid_argument("CsrGraph: column id out of range");
    max_w = std::max(max_w, wgt_[e]);
  }
  max_w_ = max_w;
}

eid_t CsrGraph::find_edge(vid_t u, vid_t v) const {
  for (eid_t e = row_[u]; e < row_[u + 1]; ++e) {
    if (col_[e] == v) return e;
  }
  return kNoEdge;
}

weight_t CsrGraph::total_weight() const {
  weight_t sum = 0;
  for (weight_t w : wgt_) sum += w;
  return sum;
}

bool CsrGraph::operator==(const CsrGraph& other) const {
  return n_ == other.n_ && m_ == other.m_ && row_ == other.row_ &&
         col_ == other.col_ && wgt_ == other.wgt_;
}

const CsrGraph& CsrGraph::reverse() const {
  warm_reverse();
  return *rcache_->graph;
}

void CsrGraph::warm_reverse() const {
  // call_once both serializes the one build and publishes it: every later
  // caller's read of rcache_->graph happens-after the store.
  std::call_once(rcache_->once, [this] {
    rcache_->graph = std::make_shared<const CsrGraph>(transpose(*this));
  });
}

CsrGraph transpose(const CsrGraph& g) {
  const vid_t n = g.num_vertices();
  const eid_t m = g.num_edges();
  std::vector<eid_t> row(static_cast<size_t>(n) + 1, 0);
  // Count in-degrees.
  for (eid_t e = 0; e < m; ++e) row[g.col()[e] + 1]++;
  for (vid_t v = 0; v < n; ++v) row[v + 1] += row[v];
  std::vector<vid_t> col(static_cast<size_t>(m));
  std::vector<weight_t> wgt(static_cast<size_t>(m));
  std::vector<eid_t> cursor(row.begin(), row.end() - 1);
  for (vid_t u = 0; u < n; ++u) {
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      const vid_t v = g.edge_target(e);
      const eid_t slot = cursor[v]++;
      col[slot] = u;
      wgt[slot] = g.edge_weight(e);
    }
  }
  return CsrGraph(std::move(row), std::move(col), std::move(wgt));
}

}  // namespace peek::graph
