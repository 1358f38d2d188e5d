#include "sssp/dijkstra.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace peek::sssp {

namespace {

/// Min-heap order on distance only, as std::priority_queue with
/// std::greater<> would give. A function object, not a function pointer, so
/// the heap algorithms inline it.
struct HeapAfter {
  bool operator()(const DijkstraHeapEntry& a,
                  const DijkstraHeapEntry& b) const {
    return a.dist > b.dist;
  }
};

}  // namespace

const SsspResult& dijkstra(const GraphView& view, vid_t source,
                           const DijkstraOptions& opts, DijkstraWorkspace& ws) {
  const vid_t n = view.num_vertices();
  SsspResult& r = ws.tree;
  r.dist.assign(static_cast<size_t>(n), kInfDist);
  r.parent.assign(static_cast<size_t>(n), kNoVertex);
  r.status = fault::Status::kOk;
  auto& heap = ws.heap;
  heap.clear();
  if (source < 0 || source >= n) return r;
  if (!view.vertex_alive(source) || opts.bans.vertex_banned(source)) return r;

  // Hot loop: counts accumulate in locals, one sharded add on exit; the
  // arrays go through locals so their pointers stay in registers across
  // the heap pushes.
  std::int64_t settled = 0, relaxed = 0, improved = 0;
  fault::CancelPoll poll(opts.cancel);
  weight_t* const dist = r.dist.data();
  vid_t* const parent = r.parent.data();
  dist[source] = 0;
  heap.push_back({0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), HeapAfter{});
    heap.pop_back();
    if (d > dist[u]) continue;  // stale lazy-deleted entry
    if (poll.should_stop()) {
      r.status = poll.why();
      break;
    }
    settled++;
    if (u == opts.target) break;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      if (!view.edge_alive(e) || opts.bans.edge_banned(e)) continue;
      const vid_t v = view.edge_target(e);
      if (!view.vertex_alive(v) || opts.bans.vertex_banned(v)) continue;
      relaxed++;
      const weight_t nd = d + view.edge_weight(e);
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        heap.push_back({nd, v});
        std::push_heap(heap.begin(), heap.end(), HeapAfter{});
        improved++;
      }
    }
  }
  PEEK_COUNT_INC("sssp.dijkstra.runs");
  PEEK_COUNT_ADD("sssp.dijkstra.settled", settled);
  PEEK_COUNT_ADD("sssp.dijkstra.relaxed_edges", relaxed);
  PEEK_COUNT_ADD("sssp.dijkstra.improved", improved);
  return r;
}

SsspResult dijkstra(const GraphView& view, vid_t source,
                    const DijkstraOptions& opts) {
  DijkstraWorkspace ws;
  dijkstra(view, source, opts, ws);
  return std::move(ws.tree);
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
