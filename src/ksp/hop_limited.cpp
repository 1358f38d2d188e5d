#include "ksp/hop_limited.hpp"

#include <atomic>

#include "ksp/yen_engine.hpp"
#include "sssp/hop_limited.hpp"

namespace peek::ksp {

KspResult hop_limited_ksp(const BiView& g, vid_t s, vid_t t,
                          const HopLimitedKspOptions& opts) {
  // Atomic: a parallel engine calls the solver concurrently.
  std::atomic<int> sssp_calls{0};
  detail::DeviationSolver solver = [&](const detail::DeviationContext& ctx) {
    const int budget = opts.max_hops - ctx.position;
    if (budget <= 0 && ctx.deviation_vertex != t) return sssp::Path{};
    sssp_calls.fetch_add(1, std::memory_order_relaxed);
    sssp::Bans bans{ctx.banned_vertices, &ctx.banned_edges};
    auto r = sssp::hop_limited_sssp(g.fwd, ctx.deviation_vertex, budget, t,
                                    bans);
    return r.path;
  };
  KspResult result = detail::run_yen_engine(g.fwd, s, t, opts.base, solver);
  result.stats.sssp_calls = sssp_calls.load();
  return result;
}

KspResult hop_limited_ksp(const graph::CsrGraph& g, vid_t s, vid_t t, int k,
                          int max_hops) {
  HopLimitedKspOptions opts;
  opts.base.k = k;
  opts.max_hops = max_hops;
  return hop_limited_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
