// Node Classification (Feng 2014): Yen's loop plus a reverse shortest-path
// tree and red/yellow/green vertex colors. Red = on the deviation prefix;
// green = the tree path to the target avoids every red vertex (so a green
// next-hop answers a deviation in O(1)); yellow = everything else, requiring
// a restricted SSSP. The color maintenance cost — every new red vertex
// re-colors its whole tree subtree — is exactly the overhead the paper blames
// for NC's poor parallel scaling (§7.2 observation iii), and it is faithfully
// reproduced here: NC's deviation loop stays serial because colors are
// shared mutable state, so nc_ksp ignores `KspOptions::parallel` — contrast
// the DeviationEngine in ksp/yen_engine, which runs the same loop's
// deviation SSSPs concurrently for Yen/OptYen (via
// par::parallel_for_dynamic) when it is set.
#pragma once

#include "ksp/path_set.hpp"
#include "sssp/view.hpp"

namespace peek::ksp {

using sssp::BiView;

KspResult nc_ksp(const BiView& g, vid_t s, vid_t t, const KspOptions& opts);
KspResult nc_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                 const KspOptions& opts);

}  // namespace peek::ksp
