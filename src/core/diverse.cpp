#include "core/diverse.hpp"

#include <unordered_set>

#include "compact/regeneration.hpp"
#include "core/peek.hpp"
#include "ksp/stream.hpp"

namespace peek::core {

double path_similarity(const sssp::Path& a, const sssp::Path& b) {
  std::unordered_set<vid_t> sa(a.verts.begin(), a.verts.end());
  size_t inter = 0;
  std::unordered_set<vid_t> sb;
  for (vid_t v : b.verts) {
    if (sb.insert(v).second && sa.count(v)) inter++;
  }
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

DiverseResult diverse_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                          const DiverseOptions& opts) {
  DiverseResult result;
  if (opts.k <= 0) return result;

  // Prune with the scan budget as K: Theorem 4.3 then guarantees the
  // compacted graph holds every rank the stream may visit.
  PruneOptions po;
  po.k = std::max(opts.max_scanned, opts.k);
  po.parallel = opts.parallel;
  PruneResult pruned = k_upper_bound_prune(g, s, t, po);
  if (pruned.kept_vertices == 0) {
    result.exhausted = true;
    return result;
  }
  auto regen = compact::regenerate(sssp::GraphView(g), pruned.kept_list,
                                   pruned.edge_keep,
                                   {.parallel = opts.parallel});
  const vid_t cs = regen.map.to_new(s), ct = regen.map.to_new(t);
  if (cs == kNoVertex || ct == kNoVertex) {
    result.exhausted = true;
    return result;
  }

  // Warm start from the prune's reverse tree, as peek_ksp does: no second
  // reverse SSSP on the compacted graph.
  ksp::KspStream stream(sssp::BiView::of(regen.graph), cs, ct,
                        compacted_reverse_tree(pruned.to_target, regen.map));
  while (static_cast<int>(result.paths.size()) < opts.k &&
         result.scanned < opts.max_scanned) {
    auto p = stream.next();
    if (!p) {
      result.exhausted = true;
      break;
    }
    result.scanned++;
    for (auto& v : p->verts) v = regen.map.to_old(v);
    bool diverse = true;
    for (const auto& kept : result.paths) {
      if (path_similarity(*p, kept) > opts.max_similarity) {
        diverse = false;
        break;
      }
    }
    if (diverse) result.paths.push_back(std::move(*p));
  }
  return result;
}

}  // namespace peek::core
