// Edge-swap compaction (§5.2): swap each vertex's deleted out-edges past the
// valid region of its CSR row and shrink the valid-edge count, keeping the
// original arrays. Kept edges keep their order, as on a regenerated graph.
// O(n + m_a) where m_a is the edge count of surviving vertices;
// embarrassingly parallel across vertices (§6.1).
#pragma once

#include <functional>

#include "compact/mutable_csr.hpp"
#include "fault/cancel.hpp"

namespace peek::compact {

/// Position-independent edge filter: keep edge (src, dst, w)? Null = keep.
using EdgeKeep = std::function<bool(vid_t src, vid_t dst, weight_t w)>;

struct EdgeSwapOptions {
  bool parallel = true;
  /// Cooperative cancellation: polled per row in the serial sweep and at the
  /// sweep boundary in the parallel one (never inside the parallel region).
  /// Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

/// Sentinel return of edge_swap_compact when its CancelToken tripped: the
/// MutableCsr is then only partially packed (rows either packed or untouched)
/// and must be discarded by the caller.
inline constexpr eid_t kEdgeSwapCancelled = -1;

/// Marks vertices with `vertex_keep[v] == 0` dead, then packs every surviving
/// vertex's rows (both orientations) so edges to dead endpoints — and edges
/// rejected by `keep` — fall outside the valid range. Returns the number of
/// valid forward edges remaining, or kEdgeSwapCancelled on cancellation.
eid_t edge_swap_compact(MutableCsr& g, const std::uint8_t* vertex_keep,
                        const EdgeKeep& keep = nullptr,
                        const EdgeSwapOptions& opts = {});

}  // namespace peek::compact
