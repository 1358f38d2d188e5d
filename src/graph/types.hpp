// Core scalar types shared by every module.
#pragma once

#include <cstdint>
#include <limits>

namespace peek {

/// Vertex identifier. Graphs up to ~2 billion vertices.
using vid_t = std::int32_t;

/// Edge identifier / edge-array index. Graphs beyond 2^31 edges are supported.
using eid_t = std::int64_t;

/// Edge weight / path distance. The paper requires strictly positive weights.
using weight_t = double;

/// Sentinel distance for "unreachable".
inline constexpr weight_t kInfDist = std::numeric_limits<weight_t>::infinity();

/// Sentinel parent for roots / unreached vertices in shortest-path trees.
inline constexpr vid_t kNoVertex = -1;

/// Sentinel edge index.
inline constexpr eid_t kNoEdge = -1;

/// The keep-side slack of every comparison against a bound b (the K upper
/// bound, a cone threshold, a staleness budget): a relative plus absolute
/// epsilon, so float rounding only ever keeps more — a sum that associates
/// differently than the walk that produced b can land an ulp above it. Zero
/// for an infinite b.
inline weight_t keep_slack(weight_t b) {
  return b == kInfDist ? 0 : b * 1e-12 + 1e-12;
}

}  // namespace peek
