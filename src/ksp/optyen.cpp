#include "ksp/optyen.hpp"

#include "ksp/stream.hpp"
#include "ksp/yen_engine.hpp"

namespace peek::ksp {

namespace detail {

namespace {

/// OptYen's static-tree shortcut: the cheapest tree exit lower-bounds the
/// restricted suffix; when the tree path behind it avoids the prefix, the
/// bound is attained, so it is the optimal suffix and no SSSP is needed.
/// Empty when the shortcut does not apply.
sssp::Path optyen_tree_shortcut(const sssp::GraphView& fwd,
                                const sssp::SsspResult& rtree, vid_t t,
                                const DeviationContext& ctx) {
  const vid_t v = ctx.deviation_vertex;
  const eid_t exit =
      cheapest_tree_exit(fwd, rtree, v, ctx.banned_vertices, ctx.banned_edges);
  if (exit == kNoEdge) return {};
  return tree_suffix(fwd, rtree, v, exit, t, ctx.banned_vertices);
}

}  // namespace

std::function<sssp::Path(const DeviationContext&)> optyen_solver(
    const sssp::GraphView& fwd, const sssp::SsspResult& rtree, vid_t t,
    OptYenCounts& counts) {
  return [fwd, &rtree, t, &counts](const DeviationContext& ctx) {
    sssp::Path fast = optyen_tree_shortcut(fwd, rtree, t, ctx);
    if (!fast.empty()) {
      counts.tree_shortcuts.fetch_add(1, std::memory_order_relaxed);
      return fast;
    }
    counts.sssp_calls.fetch_add(1, std::memory_order_relaxed);
    return restricted_suffix(fwd, t, ctx);
  };
}

}  // namespace detail

namespace {

/// Pulls `stream` to opts.k paths, stopping early when it runs dry or
/// opts.cancel trips (then `paths` is the exact top-J).
KspResult drain(KspStream& stream, const KspOptions& opts) {
  KspResult result;
  while (static_cast<int>(result.paths.size()) < opts.k) {
    auto p = stream.next(opts.cancel);
    if (!p) {
      if (!stream.exhausted()) result.status = opts.cancel->why();
      break;
    }
    result.paths.push_back(std::move(*p));
  }
  result.stats = stream.stats();
  return result;
}

}  // namespace

KspResult optyen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts) {
  KspStream stream(g, s, t, opts);
  return drain(stream, opts);
}

KspResult optyen_ksp(const BiView& g, vid_t s, vid_t t, sssp::SsspResult rtree,
                     const KspOptions& opts) {
  KspStream stream(g, s, t, std::move(rtree), opts);
  return drain(stream, opts);
}

KspResult optyen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                     const KspOptions& opts) {
  return optyen_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
