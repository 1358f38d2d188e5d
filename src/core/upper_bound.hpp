// K upper bound pruning (§4, Algorithm 2) — PeeK's central contribution.
//
// Two shortest-distance maps give, for every vertex v, the tightest possible
// distance of an s->t path through v: dist[v] = spSrc[v] + spTgt[v] (Lemma
// 4.1). Scanning vertices in increasing dist order and keeping only
// loop-free, distinct combined paths, the K-th such distance is a sound upper
// bound b on the K-th shortest path (Lemma 4.2): every vertex with
// dist[v] > b — and every edge heavier than b — can be deleted without
// changing the result (Theorem 4.3).
//
// spSrc is a full SSSP from s, but only its distances: every prune computes
// them with one kernel (Δ-stepping) and looks up the forward parents its scan
// walks by one rule, so every entry point walks the same source halves.
// spTgt is needed only where dist[v] <= b, so
// it comes from a reverse A* search from t guided by spSrc, which settles
// vertices in dist order and stops just past b: about the kept set, not the
// whole graph (DESIGN.md §5). A caller holding a full reverse tree can hand
// it in instead and gets the all-vertex scan; both paths share the scan and
// the mark.
#pragma once

#include "compact/edge_swap.hpp"
#include "fault/cancel.hpp"
#include "fault/status.hpp"
#include "sssp/path.hpp"

namespace peek::core {

using graph::CsrGraph;

struct PruneOptions {
  int k = 8;
  /// Data-parallel pruning (§6.1): the forward SSSP, Δ-stepping's bucket
  /// loop (auto bucket width) either way, runs on par::max_threads()
  /// workers instead of one worker inline on the calling thread; its
  /// distances are the same. On the reference path (`reuse_to_target` set)
  /// also the parallel distance-sum, sort and mark. The bounded reverse
  /// search is serial.
  bool parallel = false;
  /// Extension beyond the paper's Algorithm 2 line 13 (`w(e) > b`): also
  /// prune edge (u,v) when spSrc[u] + w + spTgt[v] > b, which is sound by
  /// the same Lemma 4.1 argument and strictly stronger.
  bool tight_edge_prune = false;
  /// Precomputed forward distances to reuse: the serving layer's
  /// cross-query artifact cache (serve/artifact_cache.hpp) hands in a tree
  /// it computed for an earlier query from the same s, and DistPeek
  /// (dist/dist_peek.hpp) the distances its distributed SSSP gathered on
  /// every rank. When non-null, the prune reads `dist` in place instead of
  /// recomputing it and never reads `parent` (which may be empty): the
  /// parents its scan walks go to a per-query overlay, so the tree stays
  /// const and is not copied. PruneResult::from_source stays empty. The
  /// distances must have been computed on this exact graph from this s.
  const sssp::SsspResult* reuse_from_source = nullptr;
  /// A full reverse SSSP tree to t, computed on this exact graph. Null (the
  /// default) runs the bounded reverse search. Non-null copies the tree and
  /// scans all n vertices instead: the reference the bounded search is
  /// tested against, equal to it in b, keep mask, inspected paths and spTgt
  /// on every kept vertex whenever no two path lengths tie.
  const sssp::SsspResult* reuse_to_target = nullptr;
  /// Cooperative cancellation: threaded into the forward SSSP and polled on
  /// every vertex the reverse search settles (or the full scan inspects). A
  /// cancelled prune returns early with `status` set and no usable keep
  /// mask. Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

struct PruneResult {
  /// Byte per vertex: survives the pruning?
  std::vector<std::uint8_t> vertex_keep;
  /// The surviving vertices in increasing id order (kept_vertices entries):
  /// what compaction iterates instead of all n vertices
  /// (compact::count_remaining_edges, compact::regenerate).
  std::vector<vid_t> kept_list;
  /// The K upper bound b (kInfDist if fewer than K estimated paths exist —
  /// then only unreachable vertices are pruned).
  weight_t upper_bound = kInfDist;
  /// Position-independent edge filter capturing b (and, when tight pruning
  /// is on, the two distance arrays); feed to any compaction strategy.
  compact::EdgeKeep edge_keep;
  /// spSrc: the forward distances the prune computed, bit-identical to
  /// Dijkstra's at every worker count; empty when
  /// PruneOptions::reuse_from_source handed them in. Its parents are only
  /// those on the source halves the scan walked, each the smallest tight
  /// in-neighbour (DESIGN.md §5), and kNoVertex elsewhere; nothing
  /// downstream reads them.
  sssp::SsspResult from_source;
  /// spTgt with parents, n entries: exact on every vertex the reverse search
  /// settled (a superset of the kept ones) and kInfDist with no parent
  /// elsewhere. The handed tree itself when `reuse_to_target` is set.
  sssp::SsspResult to_target;
  vid_t kept_vertices = 0;
  /// Paths inspected while identifying b: K valid ones + λ invalid/duplicate.
  int inspected_paths = 0;
  /// kOk, or why the prune stopped early (cancellation, deadline, injected
  /// allocation failure). Non-kOk results carry no usable keep mask.
  fault::Status::Code status = fault::Status::kOk;
};

PruneResult k_upper_bound_prune(const CsrGraph& g, vid_t s, vid_t t,
                                const PruneOptions& opts = {});

}  // namespace peek::core
