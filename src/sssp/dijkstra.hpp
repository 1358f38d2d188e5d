// Dijkstra's algorithm with a lazy-deletion binary heap, early exit, and
// vertex/edge ban masks. This is the serial SSSP workhorse of the Yen-family
// algorithms: bans let them "remove" prefix vertices and deviation edges
// without mutating the graph (Algorithm 1, lines 6 and 10).
//
// DijkstraWorkspace is the library's one search loop (DESIGN.md §5):
// seedable, steppable, resumable, A* with an optional potential. Every
// heap-based search runs it except dyn::dynamic_dijkstra, which walks a
// DynamicGraph instead of a GraphView.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/cancel.hpp"
#include "sssp/view.hpp"

namespace peek::sssp {

/// Distances + shortest-path-tree parents from one source.
struct SsspResult {
  std::vector<weight_t> dist;   // kInfDist when unreachable
  std::vector<vid_t> parent;    // kNoVertex for source / unreachable
  /// kOk, or kCancelled/kDeadlineExceeded when a CancelToken stopped the run
  /// early — dist/parent then hold a valid partial tree (settled prefix);
  /// unsettled vertices may carry overestimates. Consumers must not treat a
  /// non-kOk tree as shortest.
  fault::Status::Code status = fault::Status::kOk;
};

/// Temporary exclusions applied on top of a GraphView.
struct Bans {
  /// Byte per vertex; nonzero = banned. May be null.
  const std::uint8_t* vertices = nullptr;
  /// Banned forward-CSR edge indices. May be null.
  const std::unordered_set<eid_t>* edges = nullptr;

  bool vertex_banned(vid_t v) const { return vertices && vertices[v]; }
  bool edge_banned(eid_t e) const { return edges && edges->count(e) > 0; }
};

struct DijkstraOptions {
  /// Stop as soon as this vertex is settled (kNoVertex = settle everything).
  vid_t target = kNoVertex;
  Bans bans;
  /// Cooperative cancellation, polled once per settled vertex (clock reads
  /// strided — see fault/cancel.hpp). Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

/// Full SSSP from `source` over `view`.
SsspResult dijkstra(const GraphView& view, vid_t source,
                    const DijkstraOptions& opts = {});

/// The potential of a plain run: keys are distances. Any other potential p
/// (a callable vid_t -> weight_t) makes the run A*, keyed by dist + p(v). It
/// must be consistent — p(u) <= w(u, v) + p(v) on every edge — and kInfDist
/// where the goal is unreachable; such vertices are never opened.
struct NoPotential {
  weight_t operator()(vid_t) const { return 0; }
};

/// The one search state, caller-owned and reusable: back-to-back runs (the
/// KSP engine's deviation SSSPs, thousands per query) keep the capacities of
/// the tree and the heap. Owned by one thread at a time; pass the same view,
/// bans and potential to every call of one search.
///
/// Vertices settle in nondecreasing key order. Plain runs keep no settled
/// flags: with non-negative weights a settled vertex never improves, so an
/// entry is stale exactly when its key exceeds its vertex's distance. A*
/// and seeded runs keep flags and never re-open a settled vertex: their keys
/// and seeded distances round, so a later relaxation may undercut a settled
/// distance by an ulp (DESIGN.md §5).
class DijkstraWorkspace {
 public:
  /// Work of the loop since the last reset, published by each caller under
  /// its own metric names.
  struct Counts {
    std::int64_t settled = 0, relaxed = 0, improved = 0;
  };

  /// Final on settled vertices, tentative on the frontier, kInfDist /
  /// kNoVertex elsewhere; `status` is kOk unless a poll stopped the search.
  SsspResult tree;
  Counts counts;

  /// Empties the search for `n` vertices, ready for seeding.
  void reset(vid_t n) { clear(n, /*flagged=*/true); }

  /// Fresh search: empties it, then opens `source` at distance 0 unless it is
  /// out of range, dead, banned or of infinite potential (returns false:
  /// the search is empty). A run with a potential keeps settled flags.
  template <class Potential = NoPotential>
  bool start(const GraphView& view, vid_t source, const Bans& bans,
             const Potential& pot = {}) {
    constexpr bool kFlagged = !std::is_same_v<Potential, NoPotential>;
    const vid_t n = view.num_vertices();
    clear(n, kFlagged);
    if (source < 0 || source >= n) return false;
    if (!view.vertex_alive(source) || bans.vertex_banned(source)) return false;
    const weight_t p = pot(source);
    if (p == kInfDist) return false;
    tree.dist[source] = 0;
    push<kFlagged>({p, source});
    return true;
  }

  /// Seeding (flagged, potential-free searches): `settle` makes `v` final
  /// at distance `d` via `parent`; `open` offers `v` that tentative
  /// distance, kept and pushed if `v` is unsettled and `d` improves it.
  void settle(vid_t v, weight_t d, vid_t parent) {
    tree.dist[v] = d;
    tree.parent[v] = parent;
    settled_[v] = 1;
  }
  void open(vid_t v, weight_t d, vid_t parent) {
    if (settled_[v] || !(d < tree.dist[v])) return;
    tree.dist[v] = d;
    tree.parent[v] = parent;
    push<true>({d, v});
  }
  bool settled(vid_t v) const { return settled_[v] != 0; }  // flagged only

  /// The least key on the frontier, dropping stale entries; kInfDist when
  /// the frontier is empty.
  weight_t next_key();

  /// Settles the next vertex and relaxes its out-edges. Returns it, or
  /// kNoVertex when the frontier is empty or `poll` stopped the search
  /// (tree.status says why; the frontier is kept).
  template <class Potential = NoPotential>
  vid_t settle_next(const GraphView& view, const Bans& bans,
                    fault::CancelPoll& poll, const Potential& pot = {}) {
    return flagged_ ? loop<true>(view, bans, kNoVertex, true, poll, pot)
                    : loop<false>(view, bans, kNoVertex, true, poll, pot);
  }

  /// Settles vertices until this call settles opts.target, the frontier
  /// empties or opts.cancel stops it. The target's out-edges are relaxed
  /// only when the search resumes, so stopping and resuming settles the
  /// same vertices, with the same distances and parents, as one run.
  template <class Potential = NoPotential>
  void run(const GraphView& view, const DijkstraOptions& opts,
           const Potential& pot = {}) {
    fault::CancelPoll poll(opts.cancel);
    if (flagged_) loop<true>(view, opts.bans, opts.target, false, poll, pot);
    else loop<false>(view, opts.bans, opts.target, false, poll, pot);
  }

  /// Ends a flagged search: reached but unsettled vertices go back to
  /// kInfDist with no parent, so the tree holds exactly the settled ones.
  void forget_frontier();

 private:
  /// A vertex and its key: the tentative distance plus the potential.
  struct HeapEntry {
    weight_t key;
    vid_t v;
  };

  void clear(vid_t n, bool flagged);

  /// Min-heap order. Plain runs compare keys only, as std::priority_queue
  /// with std::greater<> would; flagged runs break key ties by vertex id,
  /// as the prune's search always did. A function object, so the heap
  /// algorithms inline it.
  template <bool kFlagged>
  struct HeapAfter {
    bool operator()(const HeapEntry& a,
                    const HeapEntry& b) const {
      if constexpr (kFlagged) {
        return a.key > b.key || (a.key == b.key && a.v > b.v);
      }
      return a.key > b.key;
    }
  };
  template <bool kFlagged>
  void push(HeapEntry e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter<kFlagged>{});
  }
  template <bool kFlagged>
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), HeapAfter<kFlagged>{});
    heap_.pop_back();
  }

  /// The loop: settles in key order until it settles `target` (held
  /// unexpanded), one vertex when `single` (returned), or the frontier
  /// empties or `poll` stops it.
  template <bool kFlagged, class Potential>
  vid_t loop(const GraphView& view, const Bans& bans, vid_t target,
             bool single, fault::CancelPoll& poll, const Potential& pot) {
    tree.status = fault::Status::kOk;
    // Hot loop: counts accumulate in locals, one add on exit; the arrays go
    // through locals so their pointers stay in registers across the pushes.
    Counts c;
    weight_t* const dist = tree.dist.data();
    vid_t* const parent = tree.parent.data();
    std::uint8_t* const done = settled_.data();
    auto expand = [&](vid_t u) {
      const weight_t du = dist[u];
      for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
        if (!view.edge_alive(e) || bans.edge_banned(e)) continue;
        const vid_t v = view.edge_target(e);
        if (!view.vertex_alive(v) || bans.vertex_banned(v)) continue;
        weight_t pv = 0;
        if constexpr (kFlagged) {
          if (done[v] || (pv = pot(v)) == kInfDist) continue;
        }
        c.relaxed++;
        const weight_t nd = du + view.edge_weight(e);
        if (nd < dist[v]) {
          dist[v] = nd;
          parent[v] = u;
          push<kFlagged>({kFlagged ? nd + pv : nd, v});
          c.improved++;
        }
      }
    };
    if (held_ != kNoVertex) expand(std::exchange(held_, kNoVertex));
    vid_t settled_now = kNoVertex;
    while (!heap_.empty()) {
      const vid_t u = heap_.front().v;
      if (kFlagged ? done[u] != 0 : heap_.front().key > dist[u]) {
        pop<kFlagged>();  // stale lazy-deleted entry
        continue;
      }
      if (poll.should_stop()) {
        tree.status = poll.why();
        break;
      }
      pop<kFlagged>();
      if constexpr (kFlagged) done[u] = 1;
      c.settled++;
      if (u == target) {
        held_ = u;
        break;
      }
      expand(u);
      if (single) {
        settled_now = u;
        break;
      }
    }
    counts.settled += c.settled;
    counts.relaxed += c.relaxed;
    counts.improved += c.improved;
    return settled_now;
  }

  std::vector<HeapEntry> heap_;  // lazy deletion: stale entries stay
  std::vector<std::uint8_t> settled_;    // flagged searches only
  bool flagged_ = false;
  /// A target settled but not yet expanded; the next call expands it first.
  vid_t held_ = kNoVertex;
};

/// dijkstra() computed in `ws`; returns `ws.tree`, valid until the next run
/// in the same workspace. Bit-identical to the allocating overload (it is
/// the same loop).
const SsspResult& dijkstra(const GraphView& view, vid_t source,
                           const DijkstraOptions& opts, DijkstraWorkspace& ws);

/// SB*'s ban repair: seeds `ws` from `base`, a complete tree from `source`
/// computed on `view` with FEWER bans. A vertex survives when it, its tree
/// edge and its tree parent survive `bans`; survivors are settled with
/// their base distances and the frontier re-opens from their out-edges, so
/// running the search to completion only re-explores the poisoned region
/// and yields the tree a fresh banned dijkstra() computes.
void seed_ban_repair(const GraphView& view, vid_t source,
                     const SsspResult& base, const Bans& bans,
                     DijkstraWorkspace& ws);

/// SSSP on the reverse graph: result.dist[v] is the shortest distance from v
/// TO `target` in the original orientation; parent[v] is v's successor on
/// that path (the reverse shortest-path tree of §4.1 / OptYen).
SsspResult reverse_dijkstra(const CsrGraph& g, vid_t target,
                            const DijkstraOptions& opts = {});

/// Shortest s->t distance only (early-exit convenience).
weight_t shortest_distance(const CsrGraph& g, vid_t s, vid_t t);

}  // namespace peek::sssp
