// Graph regeneration compaction (§5.3): build a brand-new dense CSR holding
// only the surviving vertices and edges, with remapped vertex ids. Slower to
// compact than edge-swap but the downstream computation gets perfect locality
// — the winning strategy when pruning removes almost everything.
#pragma once

#include <span>
#include <vector>

#include "compact/edge_swap.hpp"
#include "fault/cancel.hpp"
#include "fault/status.hpp"

namespace peek::compact {

/// old-id <-> new-id translation produced by regeneration.
struct VertexMap {
  std::vector<vid_t> old_to_new;  // size n_old, kNoVertex if pruned
  std::vector<vid_t> new_to_old;  // size n_new

  vid_t to_new(vid_t old_id) const { return old_to_new[old_id]; }
  vid_t to_old(vid_t new_id) const { return new_to_old[new_id]; }
};

struct RegenerationOptions {
  bool parallel = true;
  /// Cooperative cancellation, polled at pass boundaries (never inside a
  /// parallel region). Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

struct RegeneratedGraph {
  CsrGraph graph;
  VertexMap map;
  /// kOk, or why compaction aborted (cancellation, deadline, real/injected
  /// allocation failure). Non-kOk results carry an empty graph/map.
  fault::Status::Code status = fault::Status::kOk;
};

/// Rebuilds the subgraph of `view` induced by `kept` (alive vertices in
/// increasing id order, e.g. core::PruneResult::kept_list) minus edges
/// rejected by `keep`. New ids follow that order. Embarrassingly parallel
/// passes (§6.1) over the kept vertices only: the id maps, per-vertex
/// degree count + offset prefix-sum, then edge fill. The one n-sized step
/// left is filling VertexMap::old_to_new.
RegeneratedGraph regenerate(const GraphView& view, std::span<const vid_t> kept,
                            const EdgeKeep& keep = nullptr,
                            const RegenerationOptions& opts = {});

/// The same over the vertices `vertex_keep` marks (nullable = all alive
/// vertices): lists them with `kept_vertices`, then regenerates.
RegeneratedGraph regenerate(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep = nullptr,
                            const RegenerationOptions& opts = {});

/// The alive vertices of `view` that `vertex_keep` marks (nullable = all),
/// in increasing id order: one pass over every vertex, the list the
/// mask-taking compaction calls run on.
std::vector<vid_t> kept_vertices(const GraphView& view,
                                 const std::uint8_t* vertex_keep);

}  // namespace peek::compact
