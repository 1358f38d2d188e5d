#include "ksp/pnc.hpp"

#include <algorithm>
#include <queue>

#include "ksp/yen_engine.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::ksp {

namespace {

using detail::banned_edges_at;
using detail::cheapest_tree_exit;
using detail::cumulative_distances;
using detail::tree_suffix;
using sssp::SsspResult;

/// Pool entry: either a FINAL candidate (simple path, exact distance) or a
/// TENTATIVE one (prefix + lower-bound distance; the suffix SSSP is
/// postponed until the entry is actually extracted).
struct Entry {
  bool tentative = false;
  weight_t dist = kInfDist;     // exact (final) or lower bound (tentative)
  sssp::Path path;              // final: full path; tentative: unused
  std::vector<vid_t> prefix;    // tentative: P[0..i]
  weight_t prefix_dist = 0;     // tentative
  int dev_index = 0;

  /// Min-heap by (dist, tentative-last, lexicographic path) — on equal
  /// distance prefer the FINAL entry so ties resolve without a repair.
  bool operator>(const Entry& o) const {
    if (dist != o.dist) return dist > o.dist;
    if (tentative != o.tentative) return tentative;
    return o.path.verts < path.verts;
  }
};

}  // namespace

KspResult pnc_ksp(const BiView& g, vid_t s, vid_t t, const PncOptions& opts) {
  KspResult result;
  const vid_t n = g.fwd.num_vertices();
  const int k = opts.base.k;
  if (s < 0 || s >= n || t < 0 || t >= n || k <= 0) return result;

  SsspResult rtree = sssp::dijkstra(g.rev, t);
  result.stats.sssp_calls++;
  if (rtree.dist[s] == kInfDist) return result;

  sssp::Path first = sssp::path_from_reverse_parents(rtree, s, t);
  if (first.empty()) return result;

  std::vector<Candidate> accepted;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pool;
  std::unordered_set<sssp::Path, sssp::PathHash> seen;
  std::vector<std::uint8_t> mask(static_cast<size_t>(n), 0);
  // PNC repairs tentative entries serially, all in one workspace.
  sssp::DijkstraWorkspace repair_ws;
  accepted.push_back({first, 0});
  seen.insert(first);

  // Generates pool entries for the deviations of the newest accepted path.
  auto expand = [&](const Candidate& cur) {
    const auto& p = cur.path.verts;
    const int len = static_cast<int>(p.size());
    const auto cum = cumulative_distances(g.fwd, p);
    for (int i = cur.dev_index; i < len - 1; ++i) {
      const vid_t v = p[static_cast<size_t>(i)];
      for (int j = 0; j < i; ++j) mask[p[static_cast<size_t>(j)]] = 1;
      const auto banned = banned_edges_at(g.fwd, accepted, p, i);
      // Lower bound: cheapest allowed out-edge + reverse-tree distance.
      const eid_t best_e =
          cheapest_tree_exit(g.fwd, rtree, v, mask.data(), banned);
      if (best_e != kNoEdge) {
        const weight_t best =
            g.fwd.edge_weight(best_e) + rtree.dist[g.fwd.edge_target(best_e)];
        const sssp::Path suffix =
            tree_suffix(g.fwd, rtree, v, best_e, t, mask.data());
        const bool simple = !suffix.empty();
        Entry entry;
        entry.dev_index = i;
        if (simple) {
          // Exact already: push as final.
          entry.tentative = false;
          entry.path.verts.assign(p.begin(), p.begin() + i);
          entry.path.verts.insert(entry.path.verts.end(),
                                  suffix.verts.begin(), suffix.verts.end());
          entry.path.dist = cum[static_cast<size_t>(i)] + suffix.dist;
          entry.dist = entry.path.dist;
          if (seen.insert(entry.path).second) {
            pool.push(std::move(entry));
            result.stats.tree_shortcuts++;
          }
        } else {
          // PNC: postpone the SSSP; schedule at the lower bound.
          entry.tentative = true;
          entry.dist = cum[static_cast<size_t>(i)] + best;
          entry.prefix.assign(p.begin(), p.begin() + i + 1);
          entry.prefix_dist = cum[static_cast<size_t>(i)];
          pool.push(std::move(entry));
          if (opts.starred) {
            // PNC* refinement: ALSO push the best runner-up edge whose tree
            // path IS simple, as a final candidate. If the later repair of
            // the tentative lands on the same path, `seen` dedups it; if the
            // repair finds something shorter, ordering still holds because
            // the tentative's lower bound precedes both. Often the repair
            // pops after this exact path was already accepted, turning a
            // full SSSP into a no-op.
            sssp::Path alt_suffix;
            weight_t alt = kInfDist;
            for (eid_t e = g.fwd.edge_begin(v); e < g.fwd.edge_end(v); ++e) {
              if (e == best_e || !g.fwd.edge_alive(e) || banned.count(e))
                continue;
              const vid_t w = g.fwd.edge_target(e);
              if (!g.fwd.vertex_alive(w) || mask[w] || w == v) continue;
              if (rtree.dist[w] == kInfDist) continue;
              const weight_t bound = g.fwd.edge_weight(e) + rtree.dist[w];
              if (bound >= alt) continue;
              sssp::Path simple_alt =
                  tree_suffix(g.fwd, rtree, v, e, t, mask.data());
              if (!simple_alt.empty()) {
                alt = bound;
                alt_suffix = std::move(simple_alt);
              }
            }
            if (!alt_suffix.empty()) {
              Entry extra;
              extra.tentative = false;
              extra.dev_index = i;
              extra.path.verts.assign(p.begin(), p.begin() + i);
              extra.path.verts.insert(extra.path.verts.end(),
                                      alt_suffix.verts.begin(),
                                      alt_suffix.verts.end());
              extra.path.dist = cum[static_cast<size_t>(i)] + alt_suffix.dist;
              extra.dist = extra.path.dist;
              if (seen.insert(extra.path).second) pool.push(std::move(extra));
            }
          }
        }
        result.stats.candidates_generated++;
      }
      for (int j = 0; j < i; ++j) mask[p[static_cast<size_t>(j)]] = 0;
    }
  };

  expand(accepted.back());
  // no-cancel: literature baseline (bench/test comparisons only, never on
  // the serving path); its options carry no CancelToken by design
  while (static_cast<int>(accepted.size()) < k && !pool.empty()) {
    Entry top = pool.top();
    pool.pop();
    if (top.tentative) {
      // Repair now, against the CURRENT accepted set (bans may have grown —
      // that only folds in deviations the newer accepted paths own anyway).
      const int i = top.dev_index;
      const vid_t v = top.prefix.back();
      for (int j = 0; j < i; ++j)
        mask[top.prefix[static_cast<size_t>(j)]] = 1;
      const auto banned = banned_edges_at(g.fwd, accepted, top.prefix, i);
      result.stats.sssp_calls++;
      const sssp::Path suffix = detail::restricted_suffix(
          g.fwd, t, {v, mask.data(), banned, i, repair_ws, nullptr});
      for (int j = 0; j < i; ++j)
        mask[top.prefix[static_cast<size_t>(j)]] = 0;
      if (suffix.empty()) continue;
      Entry fixed;
      fixed.tentative = false;
      fixed.dev_index = i;
      fixed.path.verts.assign(top.prefix.begin(), top.prefix.end() - 1);
      fixed.path.verts.insert(fixed.path.verts.end(), suffix.verts.begin(),
                              suffix.verts.end());
      fixed.path.dist = top.prefix_dist + suffix.dist;
      fixed.dist = fixed.path.dist;
      if (seen.insert(fixed.path).second) pool.push(std::move(fixed));
      continue;
    }
    // Final candidate: the pool minimum, so it is the next shortest path.
    accepted.push_back({std::move(top.path), top.dev_index});
    expand(accepted.back());
  }

  result.paths.reserve(accepted.size());
  for (Candidate& c : accepted) result.paths.push_back(std::move(c.path));
  return result;
}

KspResult pnc_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                  const KspOptions& opts) {
  PncOptions po;
  po.base = opts;
  return pnc_ksp(BiView::of(g), s, t, po);
}

KspResult pnc_star_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                       const KspOptions& opts) {
  PncOptions po;
  po.base = opts;
  po.starred = true;
  return pnc_ksp(BiView::of(g), s, t, po);
}

}  // namespace peek::ksp
