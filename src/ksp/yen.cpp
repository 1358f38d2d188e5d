#include "ksp/yen.hpp"

#include <atomic>

#include "ksp/yen_engine.hpp"

namespace peek::ksp {

KspResult yen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts) {
  std::atomic<int> sssp_calls{0};
  detail::DeviationSolver solver = [&](const detail::DeviationContext& ctx) {
    sssp_calls.fetch_add(1, std::memory_order_relaxed);
    return detail::restricted_suffix(g.fwd, t, ctx);
  };
  KspResult result = detail::run_yen_engine(g.fwd, s, t, opts, solver);
  result.stats.sssp_calls = sssp_calls.load();
  return result;
}

KspResult yen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                  const KspOptions& opts) {
  return yen_ksp(BiView::of(g), s, t, opts);
}

}  // namespace peek::ksp
