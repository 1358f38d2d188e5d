#include "core/peek.hpp"

#include <chrono>

#include "compact/status_array.hpp"
#include "obs/metrics.hpp"

namespace peek::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The KSP stage's algorithm: the compacted graph, s and t in its ids, and
/// the prune stage's reverse tree in the same ids (empty when pruning was
/// skipped).
using TreeKspAlgorithm = std::function<ksp::KspResult(
    const sssp::BiView&, vid_t, vid_t, sssp::SsspResult)>;

PeekResult run_pipeline(const graph::CsrGraph& g, vid_t s, vid_t t,
                        const PeekOptions& opts, const TreeKspAlgorithm& algo) {
  using Clock = std::chrono::steady_clock;
  PeekResult result;
  const eid_t m_original = g.num_edges();

  // Invoked on every exit path: mirrors the per-stage wall times and kept
  // ratios into the registry and (on request) attaches the snapshot.
  auto finalize = [&]() {
    if constexpr (obs::kEnabled) {
      auto& reg = obs::MetricsRegistry::global();
      reg.counter("peek.runs").inc();
      auto to_ns = [](double s2) {
        return static_cast<std::int64_t>(s2 * 1e9);
      };
      reg.timer("peek.prune").add_nanos(to_ns(result.prune_seconds));
      reg.timer("peek.compact").add_nanos(to_ns(result.compact_seconds));
      reg.timer("peek.ksp").add_nanos(to_ns(result.ksp_seconds));
      if (g.num_vertices() > 0) {
        reg.gauge("peek.kept_vertex_ratio")
            .set(static_cast<double>(result.kept_vertices) / g.num_vertices());
      }
      if (m_original > 0) {
        reg.gauge("peek.kept_edge_ratio")
            .set(static_cast<double>(result.kept_edges) /
                 static_cast<double>(m_original));
      }
    }
    if (opts.collect_metrics) {
      result.metrics = obs::MetricsRegistry::global().snapshot();
    }
  };

  // Why a cancelled stage stopped (kCancelled vs kDeadlineExceeded); the
  // stages themselves report only that they stopped.
  fault::CancelPoll poll(opts.cancel, /*stride=*/1);

  if (!opts.prune) {
    // Ablation "Base": the downstream algorithm on the untouched graph.
    const auto t0 = Clock::now();
    result.ksp = algo(sssp::BiView::of(g), s, t, {});
    result.ksp_seconds = seconds_since(t0);
    result.status = result.ksp.status;
    result.kept_vertices = g.num_vertices();
    result.kept_edges = m_original;
    finalize();
    return result;
  }

  // Stage 1: K upper bound pruning.
  const auto t0 = Clock::now();
  PruneOptions po;
  po.k = opts.k;
  po.parallel = opts.parallel;
  po.tight_edge_prune = opts.tight_edge_prune;
  po.cancel = opts.cancel;
  PruneResult pruned = k_upper_bound_prune(g, s, t, po);
  result.prune_seconds = seconds_since(t0);
  result.upper_bound = pruned.upper_bound;
  result.kept_vertices = pruned.kept_vertices;
  if (pruned.status != fault::Status::kOk) {
    result.status = pruned.status;
    finalize();
    return result;
  }
  if (pruned.kept_vertices == 0) {  // t unreachable
    finalize();
    return result;
  }

  // Stage 2: compaction into one (view, s, t, id map, reverse tree).
  const auto t1 = Clock::now();
  const std::uint8_t* keep = pruned.vertex_keep.data();
  const auto& edge_keep = pruned.edge_keep;
  compact::Strategy strategy = compact::Strategy::kStatusArray;
  switch (opts.compaction) {
    case PeekOptions::Compaction::kStatusArray:
      break;
    case PeekOptions::Compaction::kEdgeSwap:
      strategy = compact::Strategy::kEdgeSwap;
      break;
    case PeekOptions::Compaction::kRegeneration:
      strategy = compact::Strategy::kRegeneration;
      break;
    case PeekOptions::Compaction::kAdaptive:
      strategy = compact::choose_strategy(
          compact::count_remaining_edges(sssp::GraphView(g), keep,
                                         pruned.kept_list, edge_keep,
                                         opts.parallel),
          m_original, opts.alpha);
      break;
  }
  result.strategy_used = strategy;
  // One of the three representations owns the compacted graph; `map` is
  // set for regeneration only.
  std::optional<compact::StatusArrayGraph> status_array;
  std::optional<compact::MutableCsr> swapped;
  compact::RegeneratedGraph regen;
  sssp::BiView view;
  const compact::VertexMap* map = nullptr;
  fault::Status::Code compact_status = fault::Status::kOk;
  switch (strategy) {
    case compact::Strategy::kStatusArray:
      status_array.emplace(g);
      result.kept_edges = status_array->apply(keep, edge_keep, opts.parallel);
      view = status_array->biview();
      break;
    case compact::Strategy::kEdgeSwap: {
      swapped.emplace(g);
      const eid_t kept_edges = compact::edge_swap_compact(
          *swapped, keep, edge_keep,
          {.parallel = opts.parallel, .cancel = opts.cancel});
      if (kept_edges == compact::kEdgeSwapCancelled) {
        compact_status =
            poll.should_stop() ? poll.why() : fault::Status::kCancelled;
        break;
      }
      result.kept_edges = kept_edges;
      view = swapped->biview();
      break;
    }
    case compact::Strategy::kRegeneration:
      regen = compact::regenerate(
          sssp::GraphView(g), pruned.kept_list, edge_keep,
          {.parallel = opts.parallel, .cancel = opts.cancel});
      compact_status = regen.status;
      result.kept_edges = regen.graph.num_edges();
      view = sssp::BiView::of(regen.graph);
      map = &regen.map;
      break;
  }
  if (compact_status != fault::Status::kOk) {
    // Compaction aborted mid-flight: no paths.
    result.compact_seconds = seconds_since(t1);
    result.status = compact_status;
    finalize();
    return result;
  }
  const vid_t cs = map ? map->to_new(s) : s;
  const vid_t ct = map ? map->to_new(t) : t;
  sssp::SsspResult rtree = map
                               ? compacted_reverse_tree(pruned.to_target, *map)
                               : std::move(pruned.to_target);
  result.compact_seconds = seconds_since(t1);
  if (cs == kNoVertex || ct == kNoVertex) {
    finalize();
    return result;
  }

  // Stage 3: KSP on the compacted graph, reported in original ids.
  const auto t2 = Clock::now();
  ksp::KspResult r = algo(view, cs, ct, std::move(rtree));
  result.ksp_seconds = seconds_since(t2);
  if (map) {
    for (auto& p : r.paths) {
      for (auto& v : p.verts) v = map->to_old(v);
    }
  }
  result.status = r.status;
  result.ksp = std::move(r);
  finalize();
  return result;
}

}  // namespace

sssp::SsspResult compacted_reverse_tree(const sssp::SsspResult& to_target,
                                        const compact::VertexMap& map) {
  const auto n_new = map.new_to_old.size();
  sssp::SsspResult rtree;
  rtree.dist.resize(n_new);
  rtree.parent.resize(n_new);
  for (size_t v = 0; v < n_new; ++v) {
    const vid_t old = map.new_to_old[v];
    rtree.dist[v] = to_target.dist[old];
    const vid_t par = to_target.parent[old];
    rtree.parent[v] = par == kNoVertex ? kNoVertex : map.to_new(par);
  }
  return rtree;
}

PeekResult peek_with_algorithm(const graph::CsrGraph& g, vid_t s, vid_t t,
                               const PeekOptions& opts,
                               const KspAlgorithm& algo) {
  return run_pipeline(g, s, t, opts,
                      [&algo](const sssp::BiView& view, vid_t s2, vid_t t2,
                              sssp::SsspResult) { return algo(view, s2, t2); });
}

PeekResult peek_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                    const PeekOptions& opts) {
  ksp::KspOptions ko;
  ko.k = opts.k;
  ko.parallel = opts.parallel;
  ko.cancel = opts.cancel;
  return run_pipeline(g, s, t, opts,
                      [&ko](const sssp::BiView& view, vid_t s2, vid_t t2,
                            sssp::SsspResult rtree) {
                        if (rtree.dist.empty())
                          return ksp::optyen_ksp(view, s2, t2, ko);
                        return ksp::optyen_ksp(view, s2, t2, std::move(rtree),
                                               ko);
                      });
}

}  // namespace peek::core
