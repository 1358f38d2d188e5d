// Distributed Δ-stepping (§6.2): each rank owns a 1-D row slice; bucket
// epochs are agreed by allreduce; relaxations of remote targets travel as
// (vertex, distance) request messages in an all-to-all exchange — the
// distributed-memory SSSP DistPeek runs from the source.
#pragma once

#include "dist/comm.hpp"
#include "dist/partition.hpp"

namespace peek::dist {

struct DistSsspOptions {
  /// Backoff schedule for the relaxation-request exchanges (dist/retry.hpp).
  RetryOptions retry;
};

/// Distances only: DistPeek's prune reads no forward parents (it looks up
/// the ones its scan walks, core/upper_bound.hpp), so none are kept or sent.
struct DistSsspResult {
  /// Distances of OWNED vertices (index = local id), equal to Dijkstra's
  /// bit for bit at every rank count.
  std::vector<weight_t> dist;
  /// Edges relaxed by this rank (the GTEPS numerator of Figure 10).
  std::int64_t edges_relaxed = 0;
};

/// Collective: every rank calls with its slice. `source` is a global id.
DistSsspResult dist_delta_stepping(Comm& comm, const LocalGraph& lg,
                                   vid_t source,
                                   const DistSsspOptions& opts = {});

/// Collective convenience: gathers the distributed result into the full
/// global dist array on every rank.
void gather_global(Comm& comm, const LocalGraph& lg, const DistSsspResult& r,
                   std::vector<weight_t>& dist_out);

}  // namespace peek::dist
