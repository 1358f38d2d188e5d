#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::sssp {

namespace {

/// A worker keeps draining its own bin of the current bucket while that bin
/// holds fewer entries than this (bucket fusion: no barrier per small
/// bucket); a larger bin goes to the shared frontier of the next round.
/// GraphIt's threshold.
constexpr size_t kFuseLimit = 1000;
/// Frontier entries one claim takes.
constexpr size_t kClaimChunk = 64;
constexpr size_t kNoBucket = std::numeric_limits<size_t>::max();

weight_t auto_delta(weight_t max_w) {
  if (max_w <= 0) return 1.0;
  return std::max<weight_t>(max_w / 8.0, 1e-4);
}

/// One worker's share of a round's frontier: read by every worker, claimed
/// in chunks through `cursor`.
struct alignas(64) Share {
  std::vector<vid_t> entries;
  alignas(64) std::atomic<size_t> cursor{0};
};

/// State only its own worker touches inside a round.
struct alignas(64) Worker {
  std::vector<std::vector<vid_t>> bins;  // bins[b]: pushed into bucket b
  std::vector<vid_t> draining;           // the current bin, while fused
  size_t first = kNoBucket;              // least non-empty bin after a round
  std::int64_t expanded = 0, relaxed = 0, improved = 0;
};

}  // namespace

SsspResult delta_stepping_distances(const GraphView& view, vid_t source,
                                    const DeltaSteppingOptions& opts,
                                    int worker_count) {
  const vid_t n = view.num_vertices();
  SsspResult r;
  r.dist.assign(static_cast<size_t>(n), kInfDist);
  r.parent.assign(static_cast<size_t>(n), kNoVertex);
  if (source < 0 || source >= n || !view.vertex_alive(source)) return r;

  const int nt =
      worker_count > 0 ? worker_count : std::max(1, par::max_threads());
  std::vector<Worker> workers(static_cast<size_t>(nt));
  std::vector<Share> shares(static_cast<size_t>(nt));
  weight_t* const dist = r.dist.data();
  const weight_t delta =
      opts.delta > 0 ? opts.delta : auto_delta(view.graph_max_weight());

  auto push = [delta](Worker& me, vid_t v, weight_t d) {
    const auto b = static_cast<size_t>(d / delta);
    if (b >= me.bins.size()) me.bins.resize(b + 1);
    me.bins[b].push_back(v);
  };
  // Relaxes every out-edge of u in one pass, unless u is claimed at its
  // current distance already. The claim is the distance's sign bit (-0.0
  // for the source): the worker whose CAS negates the distance expands u,
  // and lowering a distance stores it positive again, so a vertex is
  // expanded once per distance value and a duplicate bin entry costs a load.
  auto expand = [&](Worker& me, vid_t u) {
    std::atomic_ref<weight_t> claim(dist[u]);
    weight_t du = claim.load(std::memory_order_relaxed);
    do {
      if (std::signbit(du)) return;
    } while (!claim.compare_exchange_weak(du, -du, std::memory_order_relaxed));
    ++me.expanded;
    const eid_t end = view.edge_end(u);
    for (eid_t e = view.edge_begin(u); e < end; ++e) {
      if (!view.edge_alive(e)) continue;
      const vid_t v = view.edge_target(e);
      if (!view.vertex_alive(v)) continue;
      ++me.relaxed;
      const weight_t nd = du + view.edge_weight(e);
      std::atomic_ref<weight_t> dv(dist[v]);
      weight_t old = dv.load(std::memory_order_relaxed);
      while (nd < std::fabs(old)) {
        if (dv.compare_exchange_weak(old, nd, std::memory_order_relaxed)) {
          ++me.improved;
          push(me, v, nd);
          break;
        }
      }
    }
  };
  // One round of bucket `cur`: the shared frontier (own share first), then
  // this worker's own bin of `cur` while it stays small.
  auto round = [&](int w, size_t cur) {
    Worker& me = workers[static_cast<size_t>(w)];
    for (int i = 0; i < nt; ++i) {
      Share& sh = shares[static_cast<size_t>((w + i) % nt)];
      const vid_t* entries = sh.entries.data();
      const size_t size = sh.entries.size();
      for (size_t lo = sh.cursor.fetch_add(kClaimChunk,
                                           std::memory_order_relaxed);
           lo < size;
           lo = sh.cursor.fetch_add(kClaimChunk, std::memory_order_relaxed)) {
        const size_t hi = std::min(lo + kClaimChunk, size);
        for (size_t j = lo; j < hi; ++j) expand(me, entries[j]);
      }
    }
    while (cur < me.bins.size() && !me.bins[cur].empty() &&
           me.bins[cur].size() < kFuseLimit) {
      me.draining.swap(me.bins[cur]);
      for (vid_t v : me.draining) expand(me, v);
      me.draining.clear();
    }
    me.first = kNoBucket;
    for (size_t b = cur; b < me.bins.size(); ++b) {
      if (!me.bins[b].empty()) {
        me.first = b;
        break;
      }
    }
  };

  PEEK_COUNT_INC("sssp.delta.runs");
  dist[source] = 0;
  push(workers[0], source, 0);
  std::int64_t buckets = 0, rounds = 0;
  fault::CancelPoll poll(opts.cancel, /*stride=*/16);
  for (size_t cur = 0; cur != kNoBucket;) {
    if (poll.should_stop()) {
      r.status = poll.why();
      break;
    }
    // Every worker's bin of `cur` becomes its share of this round.
    for (int w = 0; w < nt; ++w) {
      Worker& wk = workers[static_cast<size_t>(w)];
      Share& sh = shares[static_cast<size_t>(w)];
      sh.entries.clear();
      if (cur < wk.bins.size()) sh.entries.swap(wk.bins[cur]);
      sh.cursor.store(0, std::memory_order_relaxed);
    }
    // One worker runs inline: a parallel_for opens a team even for one
    // iteration (OpenMP), or forks (the std::thread backend).
    if (nt == 1) round(0, cur);
    else par::parallel_for(0, nt, [&](int w) { round(w, cur); });
    ++rounds;
    size_t next = kNoBucket;
    for (const Worker& wk : workers) next = std::min(next, wk.first);
    if (next != cur) {
      ++buckets;
      // Bucket `cur` is done: free what its bins kept.
      for (Worker& wk : workers) {
        if (cur < wk.bins.size()) std::vector<vid_t>().swap(wk.bins[cur]);
      }
    }
    cur = next;
  }
  std::int64_t expanded = 0, relaxed = 0, improved = 0;
  for (const Worker& wk : workers) {
    expanded += wk.expanded;
    relaxed += wk.relaxed;
    improved += wk.improved;
  }
  PEEK_COUNT_ADD("sssp.delta.buckets", buckets);
  PEEK_COUNT_ADD("sssp.delta.rounds", rounds);
  PEEK_COUNT_ADD("sssp.delta.settled", expanded);
  PEEK_COUNT_ADD("sssp.delta.relaxed_edges", relaxed);
  PEEK_COUNT_ADD("sssp.delta.improved", improved);

  // Drop the claims.
  const auto unclaim = [dist](vid_t v) { dist[v] = std::fabs(dist[v]); };
  if (nt == 1) for (vid_t v = 0; v < n; ++v) unclaim(v);
  else par::parallel_for(vid_t{0}, n, unclaim);
  return r;
}

namespace {

/// The parent sweep, one parallel pass over every alive edge: sets each
/// parent of `r` to the smallest alive in-neighbour u of v with
/// dist[u] + w(u, v) == dist[v] (kNoVertex for `source` and unreachable
/// vertices). `r` holds the finished distances from `source` over `view`.
void sweep_tight_parents(const GraphView& view, vid_t source, SsspResult& r) {
  // For every tight alive edge u->v (dist[u] + w == dist[v]) the smallest
  // such u, whatever order the workers find them in.
  const weight_t* const dist = r.dist.data();
  vid_t* const parent = r.parent.data();
  par::parallel_for_dynamic(vid_t{0}, view.num_vertices(), [&](vid_t u) {
    const weight_t du = dist[u];
    if (du == kInfDist || !view.vertex_alive(u)) return;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      if (!view.edge_alive(e)) continue;
      const vid_t v = view.edge_target(e);
      if (v == source || !view.vertex_alive(v)) continue;
      if (du + view.edge_weight(e) != dist[v]) continue;
      std::atomic_ref<vid_t> pv(parent[v]);
      vid_t cur = pv.load(std::memory_order_relaxed);
      while ((cur == kNoVertex || u < cur) &&
             !pv.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
      }
    }
  }, /*chunk=*/1024);
}

}  // namespace

SsspResult delta_stepping(const GraphView& view, vid_t source,
                          const DeltaSteppingOptions& opts) {
  SsspResult r = delta_stepping_distances(view, source, opts);
  // A partial tree keeps no parents.
  if (r.status == fault::Status::kOk) sweep_tight_parents(view, source, r);
  return r;
}

SsspResult reverse_delta_stepping(const CsrGraph& g, vid_t target,
                                  const DeltaSteppingOptions& opts) {
  GraphView rev(g.reverse());
  return delta_stepping(rev, target, opts);
}

}  // namespace peek::sssp
