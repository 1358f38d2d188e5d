#include "core/upper_bound.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/sort.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::core {

namespace {

/// spSrc[v] + spTgt[v] (Lemma 4.1), kInfDist when either half is missing.
/// `fwd` is the forward tree: computed into r.from_source, or handed in.
/// The keep rules compare it with b + keep_slack(b) (graph/types.hpp):
/// vertices on the K-th path itself can sum an ulp above b, and without
/// slack the K-th path would lose a vertex and the result silently degrade
/// to the (K+1)-th. Under-pruning is sound (Theorem 4.3 bounds what may be
/// deleted, not what must be); the tight-edge rule uses the same slack.
weight_t sum_at(const sssp::SsspResult& fwd, const sssp::SsspResult& tgt,
                vid_t v) {
  const weight_t a = fwd.dist[v];
  const weight_t c = tgt.dist[v];
  return a == kInfDist || c == kInfDist ? kInfDist : a + c;
}

/// The forward parents the scan walks, found on demand by one rule, whoever
/// computed the distances: the prune's Δ-stepping bucket loop leaves every
/// parent unset, and a handed-in tree's parents are never read. Each parent
/// on a walked source half is looked up just before the walk: the first
/// tight in-edge (dist[u] + w == dist[v]) in v's in-row of g.reverse().
/// graph::transpose lists every in-row's sources in increasing id order, so
/// that edge comes from the smallest tight in-neighbour, the parent
/// sssp::delta_stepping's full sweep sets. The walked chains, and with them
/// b, the keep mask and the inspected count, depend on the distances alone
/// (DESIGN.md §5). Resolved parents go to `parent`, a per-query store the
/// prune owns: the computed tree's own parent array, or an overlay when the
/// tree was handed in (it stays const).
class ForwardParents {
 public:
  ForwardParents(const CsrGraph& g, const std::vector<weight_t>& dist,
                 std::vector<vid_t>& parent, vid_t s)
      : rev_(g.reverse()), dist_(dist), parent_(parent), s_(s) {}

  /// The tree path s -> v into `out`, resolving every unset parent on it;
  /// false (and `out` cleared) when the chain does not reach s.
  bool source_half(vid_t v, std::vector<vid_t>& out) {
    out.clear();
    for (vid_t u = v; u != kNoVertex; u = parent_of(u)) {
      out.push_back(u);
      if (u == s_) {
        std::reverse(out.begin(), out.end());
        return true;
      }
      // Defensive: rounding can make a positive-weight cycle tight.
      if (out.size() > parent_.size()) break;
    }
    out.clear();
    return false;
  }

  /// In-edges read by the lookups (prune.fwd_parent_edges).
  std::int64_t edges_read() const { return edges_read_; }

 private:
  vid_t parent_of(vid_t v) {
    vid_t& p = parent_[v];
    if (p != kNoVertex) return p;
    const weight_t dv = dist_[v];
    for (eid_t e = rev_.edge_begin(v); e < rev_.edge_end(v); ++e) {
      ++edges_read_;
      const vid_t u = rev_.edge_target(e);
      const weight_t du = dist_[u];
      if (du != kInfDist && du + rev_.edge_weight(e) == dv) return p = u;
    }
    return kNoVertex;
  }

  const CsrGraph& rev_;
  const std::vector<weight_t>& dist_;
  std::vector<vid_t>& parent_;
  const vid_t s_;
  std::int64_t edges_read_ = 0;
};

/// Step 3, Algorithm 2 lines 5-9: fed candidates in increasing (sum, id)
/// order, it keeps the K-th valid, distinct combined path's sum as b.
/// `tgt` is the spTgt tree the candidates' target halves are read from;
/// `parents` resolves their source halves.
class BoundScan {
 public:
  BoundScan(const sssp::SsspResult& tgt, ForwardParents& parents,
            PruneResult& r, vid_t t, int k)
      : tgt_(tgt), parents_(parents), r_(r), t_(t), k_(k) {}

  /// Inspects candidate `v` of sum `sum`. True once `v` completed the K-th
  /// valid path; `bound()` is then its sum.
  bool inspect(vid_t v, weight_t sum) {
    r_.inspected_paths++;
    sssp::Path p;
    if (!combined_path(v, p)) {
      non_simple_++;
      return false;
    }
    p.dist = sum;
    if (!distinct_.insert(std::move(p)).second) {
      duplicates_++;
      return false;
    }
    if (++valid_ != k_) return false;
    b_ = sum;
    return true;
  }

  weight_t bound() const { return b_; }

  void publish() const {
    PEEK_COUNT_ADD("prune.inspected_paths", r_.inspected_paths);
    PEEK_COUNT_ADD("prune.valid_paths", valid_);
    PEEK_COUNT_ADD("prune.non_simple_paths", non_simple_);
    PEEK_COUNT_ADD("prune.duplicate_paths", duplicates_);
  }

 private:
  /// The combined path s -> v -> t into `p` (§4.1): the source half by the
  /// resolved forward parents, the target half by spTgt's. False when the
  /// halves share a vertex other than v (the path is not simple) or either
  /// half is missing.
  bool combined_path(vid_t v, sssp::Path& p) {
    if (tgt_.dist[v] == kInfDist || !parents_.source_half(v, p.verts)) {
      return false;
    }
    std::unordered_set<vid_t> seen(p.verts.begin(), p.verts.end());
    for (vid_t u = tgt_.parent[v]; u != kNoVertex; u = tgt_.parent[u]) {
      if (!seen.insert(u).second) return false;
      p.verts.push_back(u);
      if (u == t_) break;
    }
    return p.verts.back() == t_;
  }

  const sssp::SsspResult& tgt_;
  ForwardParents& parents_;
  PruneResult& r_;
  const vid_t t_;
  const int k_;
  std::unordered_set<sssp::Path, sssp::PathHash> distinct_;
  int valid_ = 0;
  std::int64_t non_simple_ = 0, duplicates_ = 0;
  weight_t b_ = kInfDist;
};

/// The reference scan over a full reverse tree: every vertex's sum (data
/// parallel, lines 3-4), sorted by (sum, id). Returns that order, every
/// vertex, as the mark's candidates.
std::vector<vid_t> full_scan(const sssp::SsspResult& fwd, PruneResult& r,
                             BoundScan& scan, const PruneOptions& opts) {
  const vid_t n = static_cast<vid_t>(r.vertex_keep.size());
  std::vector<weight_t> dist(static_cast<size_t>(n));
  auto sum_body = [&](vid_t v) { dist[v] = sum_at(fwd, r.to_target, v); };
  if (opts.parallel) par::parallel_for(vid_t{0}, n, sum_body);
  else for (vid_t v = 0; v < n; ++v) sum_body(v);
  std::vector<vid_t> order = par::sort_permutation(dist);
  fault::CancelPoll poll(opts.cancel);
  for (vid_t v : order) {
    if (dist[v] == kInfDist) break;  // only unreachable remain
    if (poll.should_stop()) {
      r.status = poll.why();
      break;
    }
    if (scan.inspect(v, dist[v])) break;
  }
  return order;
}

/// Steps 1-3 for spTgt without a full reverse SSSP: A* from t over the
/// reverse graph in `ws`, keyed by spTgt + spSrc, with the scan fed as it
/// goes. Returns the settled vertices, the only ones whose sum is finite
/// here; `ws.tree` is then spTgt, exact on them and kInfDist elsewhere.
///
/// Soundness and exactness (DESIGN.md §5). spSrc is a consistent potential
/// on reverse edges: spSrc[u] <= spSrc[v] + w(v,u) for every edge v->u, so
/// each relaxation's reduced cost is >= 0. Hence the search settles
/// vertices in nondecreasing key order, each with its exact spTgt, and the
/// frontier's least key lower-bounds the sum of every unsettled vertex: any
/// such x has a vertex y on its shortest x->t suffix in the frontier, and
/// sum(y) <= sum(x) by subpath optimality. Vertices with spSrc = ∞ have
/// infinite sums and lie on no finite sum's suffix, so they are skipped.
///
/// The scan therefore sees every vertex of sum below the frontier: a
/// settled candidate is inspected, in (sum, id) order, once the frontier
/// has passed its sum — so the scan visits exactly the prefix of the full
/// scan's (sum, id) order, and every vertex on a candidate's combined path
/// is settled with its final parent. Once the K-th valid path fixes b, the
/// frontier already exceeds b plus the keep slack, so every vertex to keep
/// is settled. Without tied path lengths the search's parents are the
/// unique shortest ones, and b, the keep mask and the inspected count equal
/// the full scan's. Under ties, A* may pick other equally short parents; b
/// is then still the K-th valid combined path of a valid pair of trees,
/// which is all Lemma 4.2 needs. With fewer than K paths (b = ∞) the
/// search runs out the whole reverse-reachable graph.
///
/// The frontier test uses twice the keep slack: one slack is the keep
/// rule's; the other absorbs rounding in the keys, which can let a vertex
/// discovered later undercut the frontier by a few ulps (the search never
/// re-opens a settled vertex for it).
std::vector<vid_t> bounded_reverse_search(const CsrGraph& g, vid_t t,
                                          const sssp::SsspResult& fwd,
                                          sssp::DijkstraWorkspace& ws,
                                          PruneResult& r, BoundScan& scan,
                                          const fault::CancelToken* cancel) {
  const sssp::GraphView rev(g.reverse());
  const weight_t* src = fwd.dist.data();
  const auto potential = [src](vid_t v) { return src[v]; };
  using Entry = std::pair<weight_t, vid_t>;  // (sum, vertex)
  // Settled, not yet inspected: the scan's queue, not a search heap.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pending;
  std::vector<vid_t> settled;
  fault::CancelPoll cancel_poll(cancel);
  ws.start(rev, t, {}, potential);
  for (;;) {
    const weight_t next = ws.next_key();
    bool done = false;
    while (!done && !pending.empty()) {
      const auto [sum, v] = pending.top();
      if (next != kInfDist && sum + 2 * keep_slack(sum) >= next) break;
      pending.pop();
      done = scan.inspect(v, sum);
    }
    if (done || next == kInfDist) break;
    const vid_t u = ws.settle_next(rev, {}, cancel_poll, potential);
    if (u == kNoVertex) {
      r.status = ws.tree.status;
      break;
    }
    settled.push_back(u);
    pending.push({sum_at(fwd, ws.tree, u), u});
  }
  ws.forget_frontier();
  PEEK_COUNT_ADD("prune.search.settled", ws.counts.settled);
  PEEK_COUNT_ADD("prune.search.relaxed_edges", ws.counts.relaxed);
  return settled;
}

/// Step 4's vertex rule (lines 10-12) over `candidates`, every vertex whose
/// sum may be finite: keeps those with sum <= limit and clears the rest.
/// Sets r.vertex_keep, r.kept_list and r.kept_vertices.
void mark_kept(const sssp::SsspResult& fwd, PruneResult& r,
               const std::vector<vid_t>& candidates, weight_t limit,
               bool parallel) {
  auto keep_body = [&](size_t i) {
    const vid_t v = candidates[i];
    const weight_t sum = sum_at(fwd, r.to_target, v);
    r.vertex_keep[v] =
        static_cast<std::uint8_t>(sum != kInfDist && sum <= limit);
  };
  if (parallel) par::parallel_for(size_t{0}, candidates.size(), keep_body);
  else for (size_t i = 0; i < candidates.size(); ++i) keep_body(i);
  // The kept list in increasing id order: sort the kept candidates, unless
  // that costs more than one pass over the mask (most of the graph kept).
  std::vector<vid_t>& kept = r.kept_list;
  for (vid_t v : candidates) {
    if (r.vertex_keep[v]) kept.push_back(v);
  }
  const size_t n = r.vertex_keep.size();
  if (kept.size() * std::bit_width(kept.size()) <= n) {
    std::sort(kept.begin(), kept.end());
  } else {
    kept.clear();
    for (size_t v = 0; v < n; ++v) {
      if (r.vertex_keep[v]) kept.push_back(static_cast<vid_t>(v));
    }
  }
  r.kept_vertices = static_cast<vid_t>(kept.size());
}

PruneResult prune_impl(const CsrGraph& g, vid_t s, vid_t t,
                       const PruneOptions& opts) {
  PruneResult r;
  const vid_t n = g.num_vertices();
  r.vertex_keep.assign(static_cast<size_t>(n), 0);
  PEEK_COUNT_INC("prune.runs");

  // Step 1: shortest distances from the source: Δ-stepping's bucket loop,
  // on every worker when parallel and on one inline otherwise, or handed in
  // by the serving layer's artifact cache or DistPeek — a handed-in tree is
  // read in place, and r.from_source stays empty. Only distances are read:
  // the scan looks up the parents it walks. A handed-in reverse tree
  // selects the reference scan; otherwise spTgt comes from the bounded
  // search in Step 3.
  {
    PEEK_TIMER_SCOPE("prune.sssp");
    PEEK_FAULT_ALLOC("prune.sssp.alloc");
    if (opts.reuse_from_source) {
      PEEK_COUNT_INC("prune.reused_trees");
    } else {
      sssp::DeltaSteppingOptions ds;
      ds.cancel = opts.cancel;
      r.from_source = sssp::delta_stepping_distances(
          sssp::GraphView(g), s, ds, opts.parallel ? 0 : 1);
    }
    if (r.from_source.status != fault::Status::kOk) {
      r.status = r.from_source.status;
      return r;
    }
    if (opts.reuse_to_target) {
      r.to_target = *opts.reuse_to_target;
      PEEK_COUNT_INC("prune.reused_trees");
    }
  }

  const sssp::SsspResult& fwd = opts.reuse_from_source != nullptr
                                     ? *opts.reuse_from_source
                                     : r.from_source;
  if (fwd.dist[t] == kInfDist) {
    // t unreachable: no path at all; prune everything.
    PEEK_COUNT_INC("prune.unreachable_queries");
    if (!opts.reuse_to_target) {
      r.to_target.dist.assign(static_cast<size_t>(n), kInfDist);
      r.to_target.parent.assign(static_cast<size_t>(n), kNoVertex);
    }
    r.upper_bound = kInfDist;
    r.edge_keep = nullptr;
    return r;
  }

  // Steps 2-3: identify b, and the candidates Step 4 must look at.
  std::vector<vid_t> candidates;
  {
    PEEK_TIMER_SCOPE("prune.scan");
    PEEK_FAULT_STALL("prune.scan.stall");
    sssp::DijkstraWorkspace search;  // the bounded search's spTgt
    // The scan's forward parents: into the tree the prune computed, or into
    // an overlay, since a handed-in tree stays const.
    std::vector<vid_t> overlay;
    if (opts.reuse_from_source) {
      overlay.assign(static_cast<size_t>(n), kNoVertex);
    }
    ForwardParents parents(
        g, fwd.dist, opts.reuse_from_source ? overlay : r.from_source.parent,
        s);
    BoundScan scan(opts.reuse_to_target ? r.to_target : search.tree, parents,
                   r, t, opts.k);
    if (opts.reuse_to_target) {
      candidates = full_scan(fwd, r, scan, opts);
    } else {
      candidates =
          bounded_reverse_search(g, t, fwd, search, r, scan, opts.cancel);
      r.to_target = std::move(search.tree);
    }
    if (r.status != fault::Status::kOk) return r;
    scan.publish();
    PEEK_COUNT_ADD("prune.fwd_parent_edges", parents.edges_read());
    r.upper_bound = scan.bound();
  }
  const weight_t b = r.upper_bound;

  // Step 4: prune (lines 10-13). Unreachable vertices (dist == inf) always
  // go; with fewer than K estimated paths (b == inf) nothing else can.
  {
    PEEK_TIMER_SCOPE("prune.mark");
    mark_kept(fwd, r, candidates, b == kInfDist ? kInfDist : b + keep_slack(b),
              opts.parallel && opts.reuse_to_target != nullptr);
  }
  PEEK_COUNT_ADD("prune.kept_vertices", r.kept_vertices);
  PEEK_COUNT_ADD("prune.pruned_vertices", n - r.kept_vertices);
  if (n > 0) {
    PEEK_GAUGE_SET("prune.kept_vertex_ratio",
                   static_cast<double>(r.kept_vertices) / n);
  }

  if (b == kInfDist) {
    r.edge_keep = nullptr;  // keep all edges between kept vertices
  } else if (opts.tight_edge_prune) {
    auto src = std::make_shared<std::vector<weight_t>>(fwd.dist);
    auto tgt = std::make_shared<std::vector<weight_t>>(r.to_target.dist);
    // The K-th path's own edges can land an ulp above b because spSrc + w +
    // spTgt sums in a different order than the path walk that produced b;
    // a relative epsilon on the KEEP side is sound (it can only under-prune).
    const weight_t slack = keep_slack(b);
    r.edge_keep = [src, tgt, b, slack](vid_t u, vid_t v, weight_t w) {
      if (w > b) return false;
      const weight_t a = (*src)[u], c = (*tgt)[v];
      return a != kInfDist && c != kInfDist && a + w + c <= b + slack;
    };
  } else {
    r.edge_keep = [b](vid_t, vid_t, weight_t w) { return w <= b; };
  }
  return r;
}

}  // namespace

PruneResult k_upper_bound_prune(const CsrGraph& g, vid_t s, vid_t t,
                                const PruneOptions& opts) {
  try {
    return prune_impl(g, s, t, opts);
  } catch (const std::bad_alloc&) {
    // Real or injected (fault::InjectedFault) allocation failure: surface as
    // a typed status instead of crashing the serving thread.
    PruneResult r;
    r.status = fault::Status::kResourceExhausted;
    return r;
  }
}

}  // namespace peek::core
