// Live-mutation update batches and their affected regions (DESIGN.md §15).
//
// An UpdateBatch is an ordered list of edge operations (insert / delete /
// reweight) applied atomically to a dyn::DynamicGraph. Instead of dropping
// every cached artifact, the serving layer asks this module two questions
// about an *applied* batch:
//
//   1. Which vertices of a cached SSSP tree can the batch have touched?
//      cone_threshold() answers with a distance bound T: every vertex whose
//      pre-mutation tree distance is < T is provably unaffected, so repair
//      (dyn/repair.hpp) only re-runs Dijkstra inside the cone {dist >= T}.
//      Soundness (first-batch-edge argument): any path whose length changes
//      crosses a batch edge; the *first* batch edge (u,v) on it is reached
//      through pre-existing edges only, so the path is at least
//      dist_pre[u] + min(w_old, w_new) long — hence any affected vertex sits
//      at distance >= T = min over ops of that sum. Ops whose tail vertex is
//      unreachable pre-mutation contribute nothing: they cannot be the first
//      batch edge on any path. The same bound covers multi-op chains through
//      previously-unreachable vertices for free.
//
//   2. Can the batch change the K-shortest-path answer of a cached (s, t)
//      snapshot? pair_impact() tests every op as the candidate first batch
//      edge of a changed path: ds[u] + min_w + S(v) <= upper_bound + slack,
//      where ds is the cached forward tree of s, and S(v) is a lower bound
//      on the *post-mutation* v -> t distance obtained by a tiny Bellman-Ford
//      over the batch's target vertices (pre-segments between batch edges
//      are bounded below by zero, the final segment by the cached reverse
//      tree minus the batch's total reweight decrease). Pairs that no op can
//      reach within budget are provably unchanged — the engine serves their
//      cached answers fresh, no repair needed.
//
// The impact classification also decides bounded-staleness eligibility: a
// pair affected only by reweight ops keeps a bijective path space, so every
// order statistic of the path-weight multiset moves by at most
// weight_bound = sum of |w_new - w_old| — the error bound the engine attaches
// to stale answers. A pair affected by an insert or delete has no such bound
// and must never be served stale. BatchLog carries that bound across several
// batches, for the engine's labels and the fleet's fence alike.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dyn/dynamic_graph.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::dyn {

enum class OpKind : std::uint8_t { kInsert, kDelete, kReweight };

struct EdgeOp {
  OpKind kind = OpKind::kReweight;
  vid_t u = kNoVertex;
  vid_t v = kNoVertex;
  /// New weight for insert/reweight; ignored for delete.
  weight_t weight = 0;
};

/// A to-be-applied group of edge mutations. Built by callers, applied once
/// via apply(); order matters (a delete after an insert of the same edge
/// removes it again).
struct UpdateBatch {
  std::vector<EdgeOp> ops;

  UpdateBatch& insert(vid_t u, vid_t v, weight_t w) {
    ops.push_back({OpKind::kInsert, u, v, w});
    return *this;
  }
  UpdateBatch& erase(vid_t u, vid_t v) {
    ops.push_back({OpKind::kDelete, u, v, 0});
    return *this;
  }
  UpdateBatch& reweight(vid_t u, vid_t v, weight_t w) {
    ops.push_back({OpKind::kReweight, u, v, w});
    return *this;
  }
  bool empty() const { return ops.empty(); }
};

/// One op as it actually landed: old weight recorded for delete/reweight
/// (kInfDist for inserts), applied=false when a delete/reweight found no
/// such edge (the op is then a no-op and excluded from every impact bound).
struct AppliedOp {
  EdgeOp op;
  weight_t old_weight = kInfDist;
  bool applied = false;

  /// min(w_old, w_new): the smallest weight this edge ever had across the
  /// mutation — the sound per-op term of every cone/pair bound.
  weight_t min_weight() const;
  bool structural() const {
    return op.kind == OpKind::kInsert || op.kind == OpKind::kDelete;
  }
};

/// An applied batch plus the mutation epoch the owning engine assigned it.
struct AppliedBatch {
  std::uint64_t epoch = 0;
  std::vector<AppliedOp> ops;

  /// Any applied insert/delete (edge set changed)?
  bool structural() const;
  /// Sum of |w_new - w_old| over applied reweight ops — the two-sided bound
  /// on how far any simple path's weight (hence any order statistic of the
  /// K-shortest answer) can move when the edge set is unchanged.
  weight_t weight_delta_sum() const;
  /// Sum of max(0, w_old - w_new) over applied reweight ops: the most any
  /// pre-mutation distance can shrink without crossing an inserted edge.
  weight_t weight_decrease_sum() const;
  bool any_applied() const;
};

/// The one batch log (DESIGN.md §15): the most recent adopted batches, each
/// with its epoch, whether it was structural and its weight_delta_sum. It
/// bounds how far an answer exact at one epoch can be from the truth at a
/// later one; the engine labels its answers with it and the fleet fences
/// with it. Not thread-safe: each owner keeps it under its own lock.
class BatchLog {
 public:
  static constexpr std::size_t kCapacity = 64;

  /// Appends `b` under its (stamped) epoch; the oldest record leaves once
  /// more than kCapacity are held.
  void record(const AppliedBatch& b);
  /// Per-rank weight bound from epoch `from` to epoch `to`: the sum of
  /// weight_delta_sum over the batches in (from, to], 0 when from == to.
  /// Empty when one of them was structural (no weight bound covers a
  /// topology change) or is not in the log.
  std::optional<weight_t> bound(std::uint64_t from, std::uint64_t to) const;
  void clear() { records_.clear(); }

 private:
  struct Record {
    std::uint64_t epoch = 0;
    bool structural = false;
    weight_t delta = 0;
  };
  std::deque<Record> records_;
};

/// Applies `batch` to `g` in order (single-writer: the caller serializes
/// mutations, as with every DynamicGraph method). Returns the per-op record;
/// epoch is left 0 for the caller to stamp.
AppliedBatch apply(DynamicGraph& g, const UpdateBatch& batch);

/// Cone threshold of `b` against a cached SSSP tree: vertices with
/// tree.dist < threshold are provably unaffected by the batch. `reverse`
/// selects reverse-tree orientation (tree.dist[x] = distance x -> root; the
/// anchoring endpoint of each op is then v, not u). Returns kInfDist when no
/// applied op can touch the tree at all.
weight_t cone_threshold(const AppliedBatch& b, const sssp::SsspResult& tree,
                        bool reverse);

/// The one cone test: true iff a vertex at pre-mutation tree distance `d`
/// lies inside the cone of `threshold`, d >= threshold widened by
/// keep_slack so float rounding never shrinks the cone. Unreachable
/// vertices (kInfDist) are always inside: a batch can connect them. Repair
/// seeding (dyn/repair.hpp) settles exactly the live vertices outside.
/// keep_slack(∞) is 0, so an infinite threshold's cone is exactly the
/// unreachable vertices.
inline bool in_cone(weight_t d, weight_t threshold) {
  return d >= threshold - keep_slack(threshold);
}

/// The cone itself: mask[x] = in_cone(tree.dist[x], threshold).
std::vector<std::uint8_t> cone_mask(const sssp::SsspResult& tree,
                                    weight_t threshold);

/// How an applied batch can touch the cached answer of one (s, t) pair.
struct PairImpact {
  /// False: the K-shortest answer is provably identical pre/post mutation.
  bool affected = false;
  /// Some insert/delete op reaches the pair within budget — the answer may
  /// gain or lose paths, no staleness bound exists.
  bool structural = false;
  /// Valid when affected && !structural: every order statistic of the true
  /// post-mutation answer is within weight_bound of the pre-mutation one.
  weight_t weight_bound = 0;
};

/// Impact of `b` on the cached (s, t) snapshot with prune bound
/// `upper_bound`. `fwd` is the cached full-graph forward tree of s, `rev`
/// the cached reverse tree of t, both pre-mutation; pass null for either to
/// get the conservative answer (affected, structural iff the batch is).
PairImpact pair_impact(const AppliedBatch& b, const sssp::SsspResult* fwd,
                       const sssp::SsspResult* rev, weight_t upper_bound);

/// Post-mutation CSR snapshot, cheaply: a reweight-only batch patches the
/// weights of `base` in place (edge ids and adjacency preserved); a
/// structural batch falls back to g.to_csr(). `base` must be the
/// pre-mutation snapshot of `g`.
graph::CsrGraph patched_csr(const DynamicGraph& g, const graph::CsrGraph& base,
                            const AppliedBatch& b);

}  // namespace peek::dyn
