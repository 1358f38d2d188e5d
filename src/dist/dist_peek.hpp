// Distributed PeeK (§6.2): 1-D partition, one distributed Δ-stepping SSSP
// from the source, the shared prune (core/upper_bound) replicated on the
// gathered distances, distributed regeneration of the (tiny) pruned graph,
// and a replicated-state distributed KSP, warm-started from the prune's
// reverse tree, where deviation SSSPs of each accepted path are assigned
// round-robin to ranks (the outer level of the two-level strategy mapped
// onto nodes).
#pragma once

#include "core/peek.hpp"
#include "dist/dist_sssp.hpp"

namespace peek::dist {

struct DistPeekOptions {
  int k = 8;
  /// Backoff schedule for the SSSP request exchanges and the candidate
  /// exchange of the distributed KSP stage (dist/retry.hpp).
  RetryOptions retry;
  /// Crash-safe stage-4 checkpointing (DESIGN.md §10): when non-empty, each
  /// rank atomically writes `rank_<r>.ckpt` here after every accepted round,
  /// and at stage-4 start the ranks resume from their checkpoints when all
  /// of them hold one for the same (graph, s, t, k) at the same round. The
  /// `dist.rank_fail` fault probe simulates a rank crash at a round boundary:
  /// the rank drops its live state and rebuilds it from its checkpoint
  /// (counted in dist.rank_restarts), invisibly to its peers because the
  /// replicated state is re-checkpointed every round. Empty = no
  /// checkpointing.
  std::string checkpoint_dir;
};

struct DistPeekResult {
  ksp::KspResult ksp;  // identical on every rank; original vertex ids
  weight_t upper_bound = kInfDist;
  vid_t kept_vertices = 0;
  eid_t kept_edges = 0;
  /// Total edges relaxed across ranks by the forward distributed SSSP (the
  /// prune's reverse search runs replicated, not distributed, and is not
  /// counted): the numerator of Figure 10's MTEPS column.
  std::int64_t edges_relaxed = 0;
  /// kOk, or why the run stopped early; identical on every rank. When any
  /// rank's prune fails (real or injected allocation failure), every rank
  /// returns that status with no paths.
  fault::Status::Code status = fault::Status::kOk;
};

/// Collective: every rank calls with the same graph reference (the shared
/// read-only input standing in for each node's copy of the dataset).
DistPeekResult dist_peek_ksp(Comm& comm, const graph::CsrGraph& g, vid_t s,
                             vid_t t, const DistPeekOptions& opts = {});

}  // namespace peek::dist
