#include "sssp/alt.hpp"

#include <algorithm>
#include <random>

#include "sssp/dijkstra.hpp"

namespace peek::sssp {

AltOracle::AltOracle(const graph::CsrGraph& g, const AltOptions& opts) : g_(&g) {
  const vid_t n = g.num_vertices();
  // No vertices, no landmarks: the heuristic is then 0 (and the
  // distribution below would have an empty range).
  if (n == 0) return;
  const int L = std::max(1, std::min<int>(opts.landmarks, n));
  std::mt19937_64 rng(opts.seed);
  std::uniform_int_distribution<vid_t> pick(0, n - 1);

  // Farthest-point selection: each next landmark maximises the minimum
  // distance (in either direction) to the chosen set; unreachable vertices
  // are skipped so landmarks land in the big component.
  std::vector<weight_t> closeness(static_cast<size_t>(n), kInfDist);
  vid_t next = pick(rng);
  // no-cancel: constructor-time preprocessing, bounded by opts.landmarks;
  // the serving path never builds an oracle mid-query
  for (int l = 0; l < L; ++l) {
    landmarks_.push_back(next);
    from_.push_back(dijkstra(GraphView(g), next).dist);
    to_.push_back(dijkstra(GraphView(g.reverse()), next).dist);
    // Update closeness and choose the farthest reachable vertex.
    weight_t best = -1;
    vid_t far = next;
    for (vid_t v = 0; v < n; ++v) {
      const weight_t d = std::min(from_.back()[v], to_.back()[v]);
      closeness[v] = std::min(closeness[v], d);
      if (closeness[v] != kInfDist && closeness[v] > best) {
        best = closeness[v];
        far = v;
      }
    }
    next = far;
  }
}

weight_t AltOracle::heuristic(vid_t v, vid_t t) const {
  // Triangle inequalities, directed form:
  //   d(v,t) >= d(l,t) - d(l,v)   (landmark before)
  //   d(v,t) >= d(v,l) - d(t,l)   (landmark after)
  weight_t h = 0;
  for (size_t l = 0; l < landmarks_.size(); ++l) {
    const weight_t lv = from_[l][v], lt = from_[l][t];
    if (lv != kInfDist && lt != kInfDist) h = std::max(h, lt - lv);
    const weight_t vl = to_[l][v], tl = to_[l][t];
    if (vl != kInfDist && tl != kInfDist) h = std::max(h, vl - tl);
  }
  return h;
}

AltOracle::QueryResult AltOracle::query(vid_t s, vid_t t) const {
  QueryResult result;
  const vid_t n = g_->num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n) return result;
  // A* over the one search loop, guided by the (consistent) landmark bound.
  const GraphView view(*g_);
  const auto to_t = [this, t](vid_t v) { return heuristic(v, t); };
  DijkstraWorkspace ws;
  DijkstraOptions opts;
  opts.target = t;
  ws.start(view, s, opts.bans, to_t);
  ws.run(view, opts, to_t);
  result.settled = static_cast<vid_t>(ws.counts.settled);
  result.path = path_from_parents(ws.tree, s, t);
  return result;
}

}  // namespace peek::sssp
