// Yen's algorithm (Yen 1971) with Lawler's deviation-index optimization —
// the foundational KSP baseline (Algorithm 1). One restricted SSSP per
// deviation vertex.
#pragma once

#include "ksp/path_set.hpp"
#include "sssp/view.hpp"

namespace peek::ksp {

using sssp::BiView;

/// K shortest simple paths s -> t. Uses only the forward view.
/// opts.parallel runs each round's deviations concurrently (§6.1's outer
/// level), each a serial Dijkstra; the paths equal the serial run's.
KspResult yen_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts);

/// Convenience overload over a plain graph.
KspResult yen_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                  const KspOptions& opts);

}  // namespace peek::ksp
