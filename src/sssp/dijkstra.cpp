#include "sssp/dijkstra.hpp"

#include <deque>

#include "obs/metrics.hpp"

namespace peek::sssp {

void DijkstraWorkspace::clear(vid_t n, bool flagged) {
  tree.dist.assign(static_cast<size_t>(n), kInfDist);
  tree.parent.assign(static_cast<size_t>(n), kNoVertex);
  tree.status = fault::Status::kOk;
  heap_.clear();
  settled_.assign(flagged ? static_cast<size_t>(n) : 0, 0);
  flagged_ = flagged;
  held_ = kNoVertex;
  counts = {};
}

weight_t DijkstraWorkspace::next_key() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const bool stale = flagged_ ? settled_[top.v] != 0
                                : top.key > tree.dist[top.v];
    if (!stale) return top.key;
    if (flagged_) pop<true>();
    else pop<false>();
  }
  return kInfDist;
}

void DijkstraWorkspace::forget_frontier() {
  for (const HeapEntry& e : heap_) {
    if (settled_[e.v]) continue;
    tree.dist[e.v] = kInfDist;
    tree.parent[e.v] = kNoVertex;
  }
  heap_.clear();
}

const SsspResult& dijkstra(const GraphView& view, vid_t source,
                           const DijkstraOptions& opts, DijkstraWorkspace& ws) {
  if (!ws.start(view, source, opts.bans)) return ws.tree;
  ws.run(view, opts);
  PEEK_COUNT_INC("sssp.dijkstra.runs");
  PEEK_COUNT_ADD("sssp.dijkstra.settled", ws.counts.settled);
  PEEK_COUNT_ADD("sssp.dijkstra.relaxed_edges", ws.counts.relaxed);
  PEEK_COUNT_ADD("sssp.dijkstra.improved", ws.counts.improved);
  return ws.tree;
}

SsspResult dijkstra(const GraphView& view, vid_t source,
                    const DijkstraOptions& opts) {
  DijkstraWorkspace ws;
  dijkstra(view, source, opts, ws);
  return std::move(ws.tree);
}

void seed_ban_repair(const GraphView& view, vid_t source,
                     const SsspResult& base, const Bans& bans,
                     DijkstraWorkspace& ws) {
  const vid_t n = view.num_vertices();
  ws.reset(n);
  if (source < 0 || source >= n) return;
  if (!view.vertex_alive(source) || bans.vertex_banned(source)) return;

  // Walk the base tree top-down; a vertex survives if it and its tree edge
  // survive the new bans and its parent survived.
  std::vector<std::vector<vid_t>> children(static_cast<size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    if (v == source || base.parent[v] == kNoVertex) continue;
    children[base.parent[v]].push_back(v);
  }
  ws.settle(source, 0, kNoVertex);
  std::deque<vid_t> queue{source};
  while (!queue.empty()) {
    const vid_t u = queue.front();
    queue.pop_front();
    for (vid_t v : children[u]) {
      if (!view.vertex_alive(v) || bans.vertex_banned(v)) continue;
      // The base tree was computed on this same view, so its edges exist and
      // are in range; the (linear) find_edge lookup is only needed when
      // edge-level bans could invalidate one.
      if (bans.edges != nullptr) {
        const eid_t e = view.find_edge(u, v);
        if (e == kNoEdge || bans.edge_banned(e)) continue;
      }
      ws.settle(v, base.dist[v], u);
      queue.push_back(v);
    }
  }
  // Re-open the frontier: offer every survivor's out-edges into the
  // invalidated region.
  for (vid_t u = 0; u < n; ++u) {
    if (!ws.settled(u)) continue;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      if (!view.edge_alive(e) || bans.edge_banned(e)) continue;
      const vid_t v = view.edge_target(e);
      if (!view.vertex_alive(v) || bans.vertex_banned(v)) continue;
      ws.open(v, ws.tree.dist[u] + view.edge_weight(e), u);
    }
  }
}

SsspResult reverse_dijkstra(const CsrGraph& g, vid_t target,
                            const DijkstraOptions& opts) {
  GraphView rev(g.reverse());
  return dijkstra(rev, target, opts);
}

weight_t shortest_distance(const CsrGraph& g, vid_t s, vid_t t) {
  DijkstraOptions opts;
  opts.target = t;
  return dijkstra(GraphView(g), s, opts).dist[t];
}

}  // namespace peek::sssp
