// PeeK — the end-to-end prune-centric KSP pipeline (§3):
//   1. K upper bound pruning        (core/upper_bound)
//   2. adaptive graph compaction    (compact/)
//   3. KSP on the compacted graph   (OptYen-style: static reverse tree, no
//                                    vertex colors — ksp/optyen; the tree
//                                    is the prune stage's, reused)
// Results are always reported in ORIGINAL vertex ids, whatever compaction
// strategy ran. Per-stage wall times are returned for the benches.
#pragma once

#include <optional>

#include "compact/adaptive.hpp"
#include "core/upper_bound.hpp"
#include "ksp/optyen.hpp"
#include "obs/metrics.hpp"

namespace peek::core {

struct PeekOptions {
  int k = 8;
  /// Parallel PeeK (§6): data-parallel pruning (a Δ-stepping forward
  /// SSSP), embarrassingly parallel compaction, task-parallel KSP (a round's
  /// deviations run concurrently, each a serial Dijkstra).
  bool parallel = false;

  /// Compaction policy.
  enum class Compaction {
    kAdaptive,      // §5.4 rule (alpha)
    kEdgeSwap,      // always edge-swap
    kRegeneration,  // always regenerate
    kStatusArray,   // baseline: mark-only ("Base + Pruning" in Figure 8)
  };
  Compaction compaction = Compaction::kAdaptive;
  double alpha = 0.5;  // §5.4 trade-off coefficient

  /// Ablation switch: skip pruning entirely (the Figure 8 "Base" — plain
  /// OptYen on the original graph).
  bool prune = true;
  bool tight_edge_prune = false;  // see PruneOptions

  /// Attach a MetricsSnapshot of the global registry to the result. Off by
  /// default: the snapshot copies every registered metric under a mutex,
  /// which batch-mode hot paths should not pay per query.
  bool collect_metrics = false;

  /// Cooperative cancellation, threaded through every stage (SSSPs, the
  /// prune scan, compaction passes, KSP rounds). Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

struct PeekResult {
  ksp::KspResult ksp;          // paths in original vertex ids
  weight_t upper_bound = kInfDist;
  vid_t kept_vertices = 0;
  eid_t kept_edges = 0;
  compact::Strategy strategy_used = compact::Strategy::kStatusArray;
  double prune_seconds = 0;
  double compact_seconds = 0;
  double ksp_seconds = 0;
  /// Cumulative registry snapshot taken as this run finished (counters cover
  /// the whole process, not just this query). Populated only when
  /// PeekOptions::collect_metrics is set; empty in PEEK_OBS=OFF builds.
  std::optional<obs::MetricsSnapshot> metrics;
  /// kOk, or why the pipeline stopped early. The well-defined partial result:
  /// on kCancelled/kDeadlineExceeded `ksp.paths` holds the exact top-J (J<=K)
  /// shortest paths accepted before the trip — possibly none if an earlier
  /// stage was cut short; on kResourceExhausted the stage that failed to
  /// allocate produced nothing.
  fault::Status::Code status = fault::Status::kOk;

  double total_seconds() const {
    return prune_seconds + compact_seconds + ksp_seconds;
  }
};

/// The K shortest simple paths from s to t via the PeeK pipeline. The KSP
/// stage is OptYen warm-started from the prune stage's reverse tree.
PeekResult peek_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                    const PeekOptions& opts = {});

/// The prune stage's reverse tree (`to_target`, in original ids) in the ids
/// of a regenerated graph. Sound: for every kept v, the shortest v->t path
/// survives pruning vertex by vertex and edge by edge (for u on it,
/// spSrc[u] + spTgt[u] <= spSrc[v] + spTgt[v] <= b by subpath optimality,
/// and each edge obeys both §4 edge rules), so the result is a valid — and
/// distance-identical — reverse shortest-path tree of the compacted graph.
/// peek_ksp and serve::QueryEngine warm-start their KSP streams from it.
sssp::SsspResult compacted_reverse_tree(const sssp::SsspResult& to_target,
                                        const compact::VertexMap& map);

/// PeeK-as-preprocessor (§1.3 novelty iii): run any KSP algorithm on the
/// pruned-and-compacted graph. `algo` receives the compacted BiView and the
/// translated (s, t); returned paths are translated back to original ids.
using KspAlgorithm =
    std::function<ksp::KspResult(const sssp::BiView&, vid_t, vid_t)>;
PeekResult peek_with_algorithm(const graph::CsrGraph& g, vid_t s, vid_t t,
                               const PeekOptions& opts,
                               const KspAlgorithm& algo);

}  // namespace peek::core
