// K diverse shortest paths — the biology-application variant the paper's
// introduction cites (Lhota & Xie 2016: "K diverse shortest paths" for
// protein-fold recognition). Plain KSP output is often K near-copies of one
// corridor; diverse KSP greedily keeps the next shortest path whose vertex
// set overlaps every kept path by at most `max_similarity` (Jaccard).
//
// Implementation composes the library's pieces: K-upper-bound prune with a
// scan budget, compact, then LAZILY stream ranked paths (ksp::KspStream,
// warm-started from the prune's reverse tree like peek_ksp) over the
// compacted graph, filtering as they come — so the expensive deep ranks are
// only generated while diversity is still unmet.
#pragma once

#include "core/upper_bound.hpp"
#include "ksp/path_set.hpp"

namespace peek::core {

struct DiverseOptions {
  int k = 4;                   // diverse paths wanted
  double max_similarity = 0.5; // pairwise Jaccard ceiling (vertex sets)
  /// Ranked-path scan budget: how deep the underlying KSP stream may go
  /// while hunting for diversity (also the pruning K, so the compacted
  /// graph provably contains all scanned ranks).
  int max_scanned = 256;
  bool parallel = false;
};

struct DiverseResult {
  std::vector<sssp::Path> paths;  // <= k, mutually diverse, shortest-first
  int scanned = 0;                // ranked paths examined
  bool exhausted = false;         // stream ran dry before the budget
};

/// Jaccard similarity of two paths' vertex sets (helper, exposed for tests).
double path_similarity(const sssp::Path& a, const sssp::Path& b);

DiverseResult diverse_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                          const DiverseOptions& opts = {});

}  // namespace peek::core
