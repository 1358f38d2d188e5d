#include "compact/adaptive.hpp"

#include <atomic>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::compact {

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kEdgeSwap: return "edge-swap";
    case Strategy::kRegeneration: return "regeneration";
    case Strategy::kStatusArray: return "status-array";
  }
  return "?";
}

Strategy choose_strategy(eid_t m_remaining, eid_t m_original, double alpha) {
  const Strategy s =
      static_cast<double>(m_remaining) < alpha * static_cast<double>(m_original)
          ? Strategy::kRegeneration
          : Strategy::kEdgeSwap;
  if (m_original > 0) {
    PEEK_GAUGE_SET("compact.remaining_edge_ratio",
                   static_cast<double>(m_remaining) /
                       static_cast<double>(m_original));
  }
  if (s == Strategy::kRegeneration) {
    PEEK_COUNT_INC("compact.strategy.regeneration");
  } else {
    PEEK_COUNT_INC("compact.strategy.edge_swap");
  }
  return s;
}

namespace {

eid_t count_remaining_impl(const GraphView& view,
                           const std::uint8_t* vertex_keep,
                           std::span<const vid_t> kept, const EdgeKeep& keep,
                           bool parallel) {
  std::atomic<eid_t> total{0};
  auto body = [&](size_t i) {
    const vid_t v = kept[i];
    eid_t local = 0;
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (!view.edge_alive(e)) continue;
      const vid_t w = view.edge_target(e);
      if (!view.vertex_alive(w) || (vertex_keep && !vertex_keep[w])) continue;
      if (keep && !keep(v, w, view.edge_weight(e))) continue;
      local++;
    }
    total.fetch_add(local, std::memory_order_relaxed);
  };
  if (parallel) par::parallel_for_dynamic(size_t{0}, kept.size(), body);
  else for (size_t i = 0; i < kept.size(); ++i) body(i);
  return total.load();
}

}  // namespace

eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            std::span<const vid_t> kept, const EdgeKeep& keep,
                            bool parallel) {
  PEEK_TIMER_SCOPE("compact.count_remaining");
  return count_remaining_impl(view, vertex_keep, kept, keep, parallel);
}

eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep, bool parallel) {
  PEEK_TIMER_SCOPE("compact.count_remaining");
  return count_remaining_impl(view, vertex_keep,
                              kept_vertices(view, vertex_keep), keep, parallel);
}

CompactionResult adaptive_compact(MutableCsr& g, eid_t m_original,
                                  const std::uint8_t* vertex_keep,
                                  const EdgeKeep& keep,
                                  const AdaptiveOptions& opts) {
  CompactionResult result;
  const std::vector<vid_t> kept = kept_vertices(g.view(), vertex_keep);
  const eid_t m_r =
      count_remaining_edges(g.view(), vertex_keep, kept, keep, opts.parallel);
  result.remaining_edges = m_r;
  result.strategy = choose_strategy(m_r, m_original, opts.alpha);
  if (result.strategy == Strategy::kRegeneration) {
    result.regenerated =
        regenerate(g.view(), kept, keep, {.parallel = opts.parallel});
  } else {
    edge_swap_compact(g, vertex_keep, keep, {.parallel = opts.parallel});
    result.swapped = g.biview();
  }
  return result;
}

}  // namespace peek::compact
