// Δ-stepping (Meyer & Sanders 2003): the data-parallel SSSP of the paper's
// §6.2. Vertices are grouped into distance buckets of width Δ and the least
// non-empty bucket is expanded in parallel rounds instead of Dijkstra's one
// vertex at a time. Each round, workers claim chunks of the bucket's shared
// frontier and relax every out-edge of an expanded vertex in one pass,
// pushing improvements into per-worker bins; a worker then drains its own
// bin of the same bucket while that bin stays small (bucket fusion, Zhang et
// al., "Optimizing Ordered Graph Algorithms with GraphIt", CGO 2020), so
// small buckets cost no extra round. A vertex is expanded at most once per
// distance value. In this library it is every prune's forward SSSP
// (core/upper_bound): on par::max_threads() workers for the parallel prune,
// on one worker inline for the serial one, where it still beats the Dijkstra
// core (DESIGN.md §3). Every other search, deviation SSSPs included, runs on
// the one Dijkstra core (sssp/dijkstra).
//
// A run is two steps: the bucket loop (distances) and the parent sweep (one
// parallel pass over every edge). `delta_stepping` runs both. The prune runs
// the loop alone: it reads only distances, and looks up the parents its
// bound scan walks by the sweep's own rule (core/upper_bound.cpp).
#pragma once

#include "sssp/dijkstra.hpp"

namespace peek::sssp {

struct DeltaSteppingOptions {
  /// Bucket width. <= 0 selects automatically: the viewed graph's max edge
  /// weight (GraphView::graph_max_weight, recorded once when the CsrGraph was
  /// built, so no call scans the edges for it) / 8, bounded below, which
  /// approximates the average-weight heuristic of the paper's
  /// implementations.
  weight_t delta = 0;
  /// Cooperative cancellation, polled between rounds (the fork/join grain —
  /// never inside a parallel region). Null = never.
  const fault::CancelToken* cancel = nullptr;
};

/// SSSP from `source` over `view`, on par::max_threads() workers: the bucket
/// loop, then the parent sweep. Distances match Dijkstra bit-for-bit on the
/// same view at every worker count. Each parent is the smallest alive
/// in-neighbour u with dist[u] + w == dist[v] (under ties, not necessarily
/// Dijkstra's), so parents do not depend on the worker count either. A
/// cancelled run returns its distances so far and no parents.
SsspResult delta_stepping(const GraphView& view, vid_t source,
                          const DeltaSteppingOptions& opts = {});

/// The bucket loop alone: `delta_stepping`'s distances and status, with
/// every parent kNoVertex. `worker_count` <= 0 runs on par::max_threads()
/// workers; 1 runs inline on the calling thread and opens no parallel
/// region. Distances do not depend on the worker count.
SsspResult delta_stepping_distances(const GraphView& view, vid_t source,
                                    const DeltaSteppingOptions& opts = {},
                                    int worker_count = 0);

/// Δ-stepping on the reverse graph (distances TO `target`).
SsspResult reverse_delta_stepping(const CsrGraph& g, vid_t target,
                                  const DeltaSteppingOptions& opts = {});

}  // namespace peek::sssp
