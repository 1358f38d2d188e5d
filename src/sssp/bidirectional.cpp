#include "sssp/bidirectional.hpp"

#include "sssp/dijkstra.hpp"

namespace peek::sssp {

namespace {

/// One side of the search: a plain run of the one search loop, stepped one
/// settled vertex at a time.
struct Side {
  GraphView view;
  DijkstraWorkspace ws;

  Side(GraphView v, vid_t source) : view(v) { ws.start(view, source, {}); }
};

}  // namespace

BidirResult bidirectional_dijkstra(const graph::CsrGraph& g, vid_t s, vid_t t) {
  BidirResult result;
  const vid_t n = g.num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n) return result;
  if (s == t) {
    result.dist = 0;
    result.path = {{s}, 0};
    result.meeting_vertex = s;
    return result;
  }
  Side fwd(GraphView(g), s);
  Side bwd(GraphView(g.reverse()), t);
  const SsspResult& from_s = fwd.ws.tree;
  const SsspResult& to_t = bwd.ws.tree;

  weight_t best = kInfDist;
  vid_t meet = kNoVertex;
  auto consider = [&](vid_t u) {
    if (from_s.dist[u] == kInfDist || to_t.dist[u] == kInfDist) return;
    const weight_t total = from_s.dist[u] + to_t.dist[u];
    if (total < best) {
      best = total;
      meet = u;
    }
  };

  // Alternate settles; stop when the sum of both frontiers exceeds the best
  // meeting distance (the classic correct termination rule).
  fault::CancelPoll never(nullptr);
  // no-cancel: this point-to-point utility takes no token (not on a query path)
  while (fwd.ws.next_key() + bwd.ws.next_key() < best) {
    Side& side = fwd.ws.next_key() <= bwd.ws.next_key() ? fwd : bwd;
    const vid_t u = side.ws.settle_next(side.view, {}, never);
    if (u == kNoVertex) break;
    consider(u);
    // Also consider freshly relaxed neighbours reachable from both sides.
    for (eid_t e = side.view.edge_begin(u); e < side.view.edge_end(u); ++e)
      consider(side.view.edge_target(e));
  }

  result.settled =
      static_cast<vid_t>(fwd.ws.counts.settled + bwd.ws.counts.settled);
  if (meet == kNoVertex) return result;
  result.dist = best;
  result.meeting_vertex = meet;
  // Stitch the two half-paths: s -> meet from fwd parents, meet -> t by
  // walking bwd parents forward.
  std::vector<vid_t> first_half;
  for (vid_t u = meet; u != kNoVertex; u = from_s.parent[u])
    first_half.push_back(u);
  result.path.verts.assign(first_half.rbegin(), first_half.rend());
  for (vid_t u = to_t.parent[meet]; u != kNoVertex; u = to_t.parent[u])
    result.path.verts.push_back(u);
  result.path.dist = best;
  if (result.path.verts.front() != s || result.path.verts.back() != t) {
    result.path = {};  // defensive; should not happen
  }
  return result;
}

}  // namespace peek::sssp
