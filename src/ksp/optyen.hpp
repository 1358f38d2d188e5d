// OptYen (Ajwani et al. 2018) — the state-of-the-art parallel baseline: Yen's
// deviation loop plus ONE static reverse shortest-path tree from the target.
// When the tree already answers a deviation (the tree path from the best
// next-hop avoids the prefix), no SSSP is run; otherwise it falls back to a
// restricted SSSP on the original graph. PeeK's final KSP stage (§3) is this
// algorithm run on the compacted graph.
//
// There is one OptYen: optyen_ksp drains a ksp::KspStream, which is the
// shared deviation engine (ksp/yen_engine) driven by the solver below, and
// the distributed KSP stage runs the same solver through the engine's
// per-position step.
#pragma once

#include <atomic>
#include <functional>

#include "ksp/path_set.hpp"
#include "sssp/view.hpp"

namespace peek::ksp {

using sssp::BiView;

KspResult optyen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts);
KspResult optyen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                     const KspOptions& opts);

/// Warm-started OptYen: `rtree` is a precomputed reverse shortest-path tree
/// to t over `g` (dist[v] = v->t distance, parent[v] = v's successor toward
/// t), used instead of running the reverse SSSP. PeeK's KSP stage passes the
/// prune stage's tree (core::compacted_reverse_tree).
KspResult optyen_ksp(const BiView& g, vid_t s, vid_t t, sssp::SsspResult rtree,
                     const KspOptions& opts);

namespace detail {

struct DeviationContext;  // ksp/yen_engine.hpp

/// What an OptYen solver did, summed over its (possibly concurrent) calls.
struct OptYenCounts {
  std::atomic<int> sssp_calls{0};
  std::atomic<int> tree_shortcuts{0};
};

/// OptYen's deviation solver over `fwd` with the reverse tree `rtree` (the
/// tree and the arrays behind `fwd` must outlive it): the tree shortcut when
/// it applies, else restricted_suffix. Thread-safe; counts into `counts`.
std::function<sssp::Path(const DeviationContext&)> optyen_solver(
    const sssp::GraphView& fwd, const sssp::SsspResult& rtree, vid_t t,
    OptYenCounts& counts);

}  // namespace detail

}  // namespace peek::ksp
