// Cone repair of cached SSSP trees (DESIGN.md §15).
//
// After an UpdateBatch lands, each cached tree whose cone_threshold is
// finite must be brought up to date. repair_trees() does that surgically:
// for each job, seed_cone_repair() fills a search workspace from the
// pre-mutation tree and the batch's threshold, and the one search loop
// (sssp/dijkstra.hpp) then settles only the poisoned region against the
// post-mutation graph — the output holds the exact distances (and, from a
// base tree with every parent, the tree) a from-scratch Dijkstra would
// produce, at a cost proportional to the cone, not the graph.
//
// This is the serving layer's repair loop, so it is fully fault-aware:
// `dyn.repair.stall` injects a kernel stall per job (deadline coverage) and
// `dyn.repair.crash` aborts the whole repair with Status::kInternal — the
// caller (serve::QueryEngine) must then fall back to wholesale invalidation
// and full recompute, never serving an answer repaired halfway. The job loop
// polls the CancelToken between trees (tools/peek_analyze.py `cancel`
// coverage includes src/dyn).
#pragma once

#include <memory>
#include <vector>

#include "fault/cancel.hpp"
#include "graph/csr.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::dyn {

/// One cached tree to repair against the post-mutation graph.
struct RepairJob {
  vid_t root = kNoVertex;
  /// Reverse tree (dist[x] = x -> root): the search runs over the transpose.
  bool reverse = false;
  /// cone_threshold() of the applied batch against `base`.
  weight_t threshold = kInfDist;
  /// The pre-mutation tree (same root / orientation): every distance; a
  /// cached forward tree carries only the parents the prune's scan
  /// resolved, which the repair copies as they are (nothing reads them).
  std::shared_ptr<const sssp::SsspResult> base;
};

struct RepairResult {
  /// kOk; kCancelled / kDeadlineExceeded when the token stopped the loop;
  /// kInternal when dyn.repair.crash fired (the repair must be abandoned).
  fault::Status status;
  /// Parallel to the job list; null for jobs not reached before a stop.
  std::vector<std::shared_ptr<const sssp::SsspResult>> trees;
};

/// Cone-repair seeding: `view` is the POST-mutation graph and `rview` its
/// transpose; `base` is a pre-mutation tree from `source` with every
/// distance. Every live vertex outside the cone of `threshold`
/// (dyn::in_cone) is provably unaffected by the mutation and is settled with
/// its base distance and parent; the frontier re-opens by offering each
/// poisoned vertex its in-edges from survivors — O(cone-incident edges), not
/// O(survivor edges). Running the search to completion then yields the
/// exact post-mutation distances.
void seed_cone_repair(const sssp::GraphView& view, const sssp::GraphView& rview,
                      vid_t source, const sssp::SsspResult& base,
                      weight_t threshold, sssp::DijkstraWorkspace& ws);

/// Repairs every job's tree in order against `post` (the post-mutation CSR).
/// Emits dyn.repair.trees per repaired tree and dyn.repair.crashes when the
/// injected crash fires.
RepairResult repair_trees(const graph::CsrGraph& post,
                          const std::vector<RepairJob>& jobs,
                          const fault::CancelToken* cancel = nullptr);

}  // namespace peek::dyn
