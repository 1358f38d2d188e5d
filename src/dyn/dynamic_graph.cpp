#include "dyn/dynamic_graph.hpp"

#include <algorithm>

#include "graph/builder.hpp"

namespace peek::dyn {

DynamicGraph::DynamicGraph(vid_t n) : rows_(static_cast<size_t>(n)) {}

DynamicGraph::DynamicGraph(const CsrGraph& g)
    : rows_(static_cast<size_t>(g.num_vertices())) {
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    for (eid_t e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      insert_edge(u, g.edge_target(e), g.edge_weight(e));
    }
  }
}

void DynamicGraph::insert_edge(vid_t u, vid_t v, weight_t w) {
  Row& row = rows_[u];
  if (row.inline_count < kInlineSlots) {
    row.inline_buf[row.inline_count++] = {v, w};
  } else if (!row.tree.empty() || row.overflow.size() >= kTreeThreshold) {
    // Hub: the tree level absorbs new edges; on first promotion the packed
    // level migrates wholesale (Terrace's level promotion).
    if (row.tree.empty()) {
      for (const Edge& e : row.overflow) row.tree.emplace(e.to, e.weight);
      row.overflow.clear();
      row.overflow.shrink_to_fit();
    }
    row.tree.emplace(v, w);
  } else {
    auto it = std::lower_bound(
        row.overflow.begin(), row.overflow.end(), v,
        [](const Edge& e, vid_t target) { return e.to < target; });
    row.overflow.insert(it, {v, w});
  }
  m_++;
}

bool DynamicGraph::delete_edge(vid_t u, vid_t v) {
  Row& row = rows_[u];
  for (int i = 0; i < row.inline_count; ++i) {
    if (row.inline_buf[static_cast<size_t>(i)].to == v) {
      // Back-fill from the overflow level (keeps the inline level full) or
      // from the inline tail.
      if (!row.overflow.empty()) {
        row.inline_buf[static_cast<size_t>(i)] = row.overflow.front();
        row.overflow.erase(row.overflow.begin());
      } else {
        row.inline_buf[static_cast<size_t>(i)] =
            row.inline_buf[static_cast<size_t>(row.inline_count - 1)];
        row.inline_count--;
      }
      m_--;
      return true;
    }
  }
  auto it = std::lower_bound(
      row.overflow.begin(), row.overflow.end(), v,
      [](const Edge& e, vid_t target) { return e.to < target; });
  if (it != row.overflow.end() && it->to == v) {
    row.overflow.erase(it);
    m_--;
    return true;
  }
  auto tit = row.tree.find(v);
  if (tit != row.tree.end()) {
    row.tree.erase(tit);
    m_--;
    return true;
  }
  return false;
}

weight_t DynamicGraph::reweight_edge(vid_t u, vid_t v, weight_t w) {
  Row& row = rows_[u];
  for (int i = 0; i < row.inline_count; ++i) {
    Edge& e = row.inline_buf[static_cast<size_t>(i)];
    if (e.to == v) {
      const weight_t old = e.weight;
      e.weight = w;
      return old;
    }
  }
  auto it = std::lower_bound(
      row.overflow.begin(), row.overflow.end(), v,
      [](const Edge& e, vid_t target) { return e.to < target; });
  if (it != row.overflow.end() && it->to == v) {
    const weight_t old = it->weight;
    it->weight = w;
    return old;
  }
  auto tit = row.tree.find(v);
  if (tit != row.tree.end()) {
    const weight_t old = tit->second;
    tit->second = w;
    return old;
  }
  return kInfDist;
}

weight_t DynamicGraph::edge_weight(vid_t u, vid_t v) const {
  const Row& row = rows_[u];
  for (int i = 0; i < row.inline_count; ++i) {
    const Edge& e = row.inline_buf[static_cast<size_t>(i)];
    if (e.to == v) return e.weight;
  }
  auto it = std::lower_bound(
      row.overflow.begin(), row.overflow.end(), v,
      [](const Edge& e, vid_t target) { return e.to < target; });
  if (it != row.overflow.end() && it->to == v) return it->weight;
  auto tit = row.tree.find(v);
  if (tit != row.tree.end()) return tit->second;
  return kInfDist;
}

DynamicGraph::Level DynamicGraph::level_of(vid_t v) const {
  const Row& row = rows_[v];
  if (!row.tree.empty()) return Level::kTree;
  if (!row.overflow.empty()) return Level::kOverflow;
  return Level::kInline;
}

void DynamicGraph::delete_vertex(vid_t v) {
  Row& row = rows_[v];
  if (!row.alive) return;
  m_ -= out_degree(v);
  row.alive = false;
  row.inline_count = 0;
  row.overflow.clear();
  row.overflow.shrink_to_fit();
  row.tree.clear();
}

eid_t DynamicGraph::out_degree(vid_t v) const {
  const Row& row = rows_[v];
  if (!row.alive) return 0;
  return static_cast<eid_t>(row.inline_count) +
         static_cast<eid_t>(row.overflow.size()) +
         static_cast<eid_t>(row.tree.size());
}

CsrGraph DynamicGraph::to_csr() const {
  graph::Builder b(num_vertices());
  b.set_dedup(false);
  for (vid_t v = 0; v < num_vertices(); ++v) {
    for_each_neighbor(v, [&](vid_t w, weight_t wt) { b.add_edge(v, w, wt); });
  }
  return b.build();
}

}  // namespace peek::dyn
