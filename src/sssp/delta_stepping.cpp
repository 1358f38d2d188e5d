#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::sssp {

namespace {

/// Atomically lowers `slot` to `val` if smaller. Returns true if it won.
bool atomic_min(std::atomic<weight_t>& slot, weight_t val) {
  weight_t cur = slot.load(std::memory_order_relaxed);
  while (val < cur) {
    if (slot.compare_exchange_weak(cur, val, std::memory_order_relaxed))
      return true;
  }
  return false;
}

weight_t auto_delta(const GraphView& view) {
  const weight_t max_w = view.max_edge_weight();
  if (max_w <= 0) return 1.0;
  return std::max<weight_t>(max_w / 8.0, 1e-4);
}

}  // namespace

SsspResult delta_stepping(const GraphView& view, vid_t source,
                          const DeltaSteppingOptions& opts) {
  const vid_t n = view.num_vertices();
  SsspResult r;
  r.dist.assign(static_cast<size_t>(n), kInfDist);
  r.parent.assign(static_cast<size_t>(n), kNoVertex);
  if (source < 0 || source >= n || !view.vertex_alive(source)) return r;

  const weight_t delta = opts.delta > 0 ? opts.delta : auto_delta(view);

  std::vector<std::atomic<weight_t>> dist(static_cast<size_t>(n));
  for (vid_t v = 0; v < n; ++v)
    dist[v].store(kInfDist, std::memory_order_relaxed);
  dist[source].store(0, std::memory_order_relaxed);

  // Buckets hold candidate vertices; membership is validated lazily against
  // the distance array (a vertex may appear in several buckets; only the one
  // matching its current distance processes it).
  std::vector<std::vector<vid_t>> buckets;
  auto bucket_of = [delta](weight_t d) {
    return static_cast<size_t>(d / delta);
  };
  auto push_bucket = [&buckets, bucket_of](vid_t v, weight_t d) {
    const size_t b = bucket_of(d);
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(v);
  };
  push_bucket(source, 0);

  auto relax_edges = [&](const std::vector<vid_t>& frontier, bool light,
                         std::vector<vid_t>& out) {
    // Per-thread request buffers avoid contention on `out`.
    std::vector<std::vector<vid_t>> local(
        static_cast<size_t>(par::max_threads()));
    par::parallel_for_dynamic(size_t{0}, frontier.size(), [&](size_t i) {
      const vid_t u = frontier[i];
      const weight_t du = dist[u].load(std::memory_order_relaxed);
      std::vector<vid_t>& mine = local[static_cast<size_t>(par::thread_id())];
      std::int64_t relaxed = 0, improved = 0;
      for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
        if (!view.edge_alive(e)) continue;
        const weight_t w = view.edge_weight(e);
        if (light != (w <= delta)) continue;
        const vid_t v = view.edge_target(e);
        if (!view.vertex_alive(v)) continue;
        relaxed++;
        if (atomic_min(dist[v], du + w)) {
          improved++;
          mine.push_back(v);
        }
      }
      PEEK_COUNT_ADD("sssp.delta.relaxed_edges", relaxed);
      PEEK_COUNT_ADD("sssp.delta.improved", improved);
    });
    for (auto& buf : local) out.insert(out.end(), buf.begin(), buf.end());
  };

  PEEK_COUNT_INC("sssp.delta.runs");
  fault::CancelPoll poll(opts.cancel, /*stride=*/16);
  for (size_t bi = 0; bi < buckets.size() && r.status == fault::Status::kOk;
       ++bi) {
    std::vector<vid_t> settled;  // every vertex processed from bucket bi
    std::vector<vid_t> current;
    current.swap(buckets[bi]);
    if (!current.empty()) PEEK_COUNT_INC("sssp.delta.buckets");
    while (!current.empty()) {
      if (poll.should_stop()) {
        r.status = poll.why();
        break;
      }
      PEEK_COUNT_INC("sssp.delta.light_phases");
      // Keep only vertices whose distance still maps to this bucket.
      std::vector<vid_t> frontier;
      frontier.reserve(current.size());
      for (vid_t v : current) {
        const weight_t d = dist[v].load(std::memory_order_relaxed);
        if (d != kInfDist && bucket_of(d) == bi) frontier.push_back(v);
      }
      if (frontier.empty()) break;
      settled.insert(settled.end(), frontier.begin(), frontier.end());
      std::vector<vid_t> updated;
      relax_edges(frontier, /*light=*/true, updated);
      current.clear();
      for (vid_t v : updated) {
        const weight_t d = dist[v].load(std::memory_order_relaxed);
        if (bucket_of(d) == bi)
          current.push_back(v);  // re-relax within this bucket
        else
          push_bucket(v, d);
      }
      // `buckets` may have grown; re-check index validity is implicit since
      // we only touch bucket bi here.
    }
    // Heavy edges once per settled vertex.
    PEEK_COUNT_ADD("sssp.delta.settled", settled.size());
    std::vector<vid_t> updated;
    relax_edges(settled, /*light=*/false, updated);
    for (vid_t v : updated)
      push_bucket(v, dist[v].load(std::memory_order_relaxed));
  }

  for (vid_t v = 0; v < n; ++v)
    r.dist[v] = dist[v].load(std::memory_order_relaxed);
  if (r.status != fault::Status::kOk) return r;  // partial: skip the O(m) sweep

  // Parent reconstruction: one deterministic O(m) sweep. For every alive edge
  // u->v that is tight (dist[u] + w == dist[v]) keep the smallest such u.
  for (vid_t u = 0; u < n; ++u) {
    if (!view.vertex_alive(u)) continue;
    const weight_t du = r.dist[u];
    if (du == kInfDist) continue;
    for (eid_t e = view.edge_begin(u); e < view.edge_end(u); ++e) {
      if (!view.edge_alive(e)) continue;
      const vid_t v = view.edge_target(e);
      if (v == source || !view.vertex_alive(v)) continue;
      if (du + view.edge_weight(e) == r.dist[v] &&
          (r.parent[v] == kNoVertex || u < r.parent[v]))
        r.parent[v] = u;
    }
  }
  return r;
}

SsspResult reverse_delta_stepping(const CsrGraph& g, vid_t target,
                                  const DeltaSteppingOptions& opts) {
  GraphView rev(g.reverse());
  return delta_stepping(rev, target, opts);
}

}  // namespace peek::sssp
