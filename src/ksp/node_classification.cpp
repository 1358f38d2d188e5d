#include "ksp/node_classification.hpp"

#include <vector>

#include "ksp/yen_engine.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::ksp {

namespace {

enum Color : std::uint8_t { kGreen = 0, kYellow = 1, kRed = 2 };

/// Vertex colors over a fixed reverse shortest-path tree.
class ColorState {
 public:
  ColorState(const sssp::SsspResult& rtree, vid_t n) {
    color_.assign(static_cast<size_t>(n), kGreen);
    children_.assign(static_cast<size_t>(n), {});
    for (vid_t u = 0; u < n; ++u) {
      const vid_t p = rtree.parent[u];
      if (p != kNoVertex) children_[p].push_back(u);
    }
  }

  void reset() { std::fill(color_.begin(), color_.end(), kGreen); }

  /// v joins the prefix: itself red, every tree descendant (vertices whose
  /// path to the target passes v) yellow. Idempotent.
  void mark_red(vid_t v) {
    if (color_[v] == kRed) return;
    color_[v] = kRed;
    stack_.assign(children_[v].begin(), children_[v].end());
    while (!stack_.empty()) {
      const vid_t u = stack_.back();
      stack_.pop_back();
      if (color_[u] != kGreen) continue;  // red/yellow subtrees already done
      color_[u] = kYellow;
      stack_.insert(stack_.end(), children_[u].begin(), children_[u].end());
    }
  }

  bool green(vid_t v) const { return color_[v] == kGreen; }

 private:
  std::vector<std::uint8_t> color_;
  std::vector<std::vector<vid_t>> children_;
  std::vector<vid_t> stack_;
};

}  // namespace

KspResult nc_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts) {
  int sssp_calls = 0;
  int shortcuts = 0;

  const sssp::SsspResult rtree = sssp::dijkstra(g.rev, t);
  sssp_calls++;

  ColorState colors(rtree, g.fwd.num_vertices());

  detail::EngineHooks hooks;
  hooks.on_path_accepted = [&](const sssp::Path& p, int dev_index) {
    colors.reset();
    for (int j = 0; j < dev_index; ++j) colors.mark_red(p.verts[static_cast<size_t>(j)]);
  };

  detail::DeviationSolver solver = [&](const detail::DeviationContext& ctx) {
    const vid_t v = ctx.deviation_vertex;
    colors.mark_red(v);
    const eid_t exit = detail::cheapest_tree_exit(
        g.fwd, rtree, v, ctx.banned_vertices, ctx.banned_edges);
    if (exit == kNoEdge) return sssp::Path{};
    if (colors.green(g.fwd.edge_target(exit))) {
      // Green: the tree path from the exit's head avoids every red vertex
      // (the whole prefix including v), so the lower bound is attained —
      // O(1) answer.
      shortcuts++;
      return detail::tree_suffix(g.fwd, rtree, v, exit, t, nullptr);
    }
    // Yellow next-hop: restricted SSSP on the non-red subgraph.
    sssp_calls++;
    return detail::restricted_suffix(g.fwd, t, ctx);
  };

  KspResult result = detail::run_yen_engine(g.fwd, s, t, opts, solver, hooks);
  result.stats.sssp_calls = sssp_calls;
  result.stats.tree_shortcuts = shortcuts;
  return result;
}

KspResult nc_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                 const KspOptions& opts) {
  return nc_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
