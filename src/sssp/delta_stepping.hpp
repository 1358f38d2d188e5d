// Δ-stepping (Meyer & Sanders 2003): the data-parallel SSSP of the paper's
// §6.2. Vertices are grouped into distance buckets of width Δ; each bucket
// is relaxed in parallel (light edges iteratively, heavy edges once), giving
// data parallelism instead of Dijkstra's one-vertex-at-a-time order. In this
// library it runs only the parallel prune's forward SSSP
// (core/upper_bound); every other search, deviation SSSPs included, runs on
// the one Dijkstra core (sssp/dijkstra).
#pragma once

#include "sssp/dijkstra.hpp"

namespace peek::sssp {

struct DeltaSteppingOptions {
  /// Bucket width. <= 0 selects automatically (max edge weight / 8, bounded
  /// below, which approximates the average-weight heuristic of the paper's
  /// implementations).
  weight_t delta = 0;
  /// Cooperative cancellation, polled at bucket/phase boundaries (the
  /// fork/join grain — never inside a parallel region). Null = never.
  const fault::CancelToken* cancel = nullptr;
};

/// SSSP from `source` over `view`, on par::max_threads() workers. Distances
/// match Dijkstra bit-for-bit on the same view; parents form a valid
/// shortest-path tree (under ties, not necessarily Dijkstra's).
SsspResult delta_stepping(const GraphView& view, vid_t source,
                          const DeltaSteppingOptions& opts = {});

/// Δ-stepping on the reverse graph (distances TO `target`).
SsspResult reverse_delta_stepping(const CsrGraph& g, vid_t target,
                                  const DeltaSteppingOptions& opts = {});

}  // namespace peek::sssp
