#include "dist/dist_sssp.hpp"

#include <algorithm>
#include <limits>

namespace peek::dist {

namespace {

/// One relaxation request travelling between ranks.
struct Req {
  vid_t v;     // global target vertex
  weight_t d;  // candidate distance
};

constexpr std::int64_t kNoBucket = std::numeric_limits<std::int64_t>::max();

}  // namespace

DistSsspResult dist_delta_stepping(Comm& comm, const LocalGraph& lg,
                                   vid_t source, const DistSsspOptions& opts) {
  const auto points = partition_points(lg.n_global, lg.ranks);
  DistSsspResult r;
  r.dist.assign(static_cast<size_t>(lg.owned()), kInfDist);

  // Agree on Δ: global max edge weight / 8.
  weight_t local_max = 0;
  for (weight_t w : lg.wgt) local_max = std::max(local_max, w);
  const weight_t global_max = comm.allreduce(
      local_max, [](weight_t a, weight_t b) { return std::max(a, b); },
      weight_t{0});
  const weight_t delta = std::max<weight_t>(global_max / 8.0, 1e-4);
  auto bucket_of = [delta](weight_t d) {
    return static_cast<std::int64_t>(d / delta);
  };

  // Local buckets of owned LOCAL vertex ids.
  std::vector<std::vector<vid_t>> buckets;
  auto push_bucket = [&](vid_t local, weight_t d) {
    const auto b = static_cast<size_t>(bucket_of(d));
    if (b >= buckets.size()) buckets.resize(b + 1);
    buckets[b].push_back(local);
  };
  if (lg.owns(source)) {
    r.dist[lg.to_local(source)] = 0;
    push_bucket(lg.to_local(source), 0);
  }

  // Applies a batch of requests to owned vertices; returns locals improved.
  auto apply = [&](const std::vector<std::vector<Req>>& inbound,
                   std::vector<vid_t>& improved) {
    for (const auto& batch : inbound) {
      for (const Req& q : batch) {
        const vid_t local = lg.to_local(q.v);
        if (q.d < r.dist[local]) {
          r.dist[local] = q.d;
          improved.push_back(local);
        }
      }
    }
  };

  // Generates requests for the edges of `frontier` (light or heavy phase).
  auto generate = [&](const std::vector<vid_t>& frontier, bool light,
                      std::vector<std::vector<Req>>& outbox) {
    for (auto& o : outbox) o.clear();
    for (vid_t local : frontier) {
      const weight_t du = r.dist[local];
      for (eid_t e = lg.row[local]; e < lg.row[local + 1]; ++e) {
        const weight_t w = lg.wgt[static_cast<size_t>(e)];
        if (light != (w <= delta)) continue;
        const vid_t gv = lg.col[static_cast<size_t>(e)];
        outbox[static_cast<size_t>(owner_of(gv, points))].push_back(
            {gv, du + w});
        r.edges_relaxed++;
      }
    }
  };

  std::vector<std::vector<Req>> outbox(static_cast<size_t>(lg.ranks));
  int tag = 0;
  while (true) {
    // Outer epoch: agree on the smallest non-empty bucket anywhere.
    std::int64_t my_min = kNoBucket;
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (!buckets[b].empty()) {
        my_min = static_cast<std::int64_t>(b);
        break;
      }
    }
    const std::int64_t cur = comm.allreduce_min(my_min);
    if (cur == kNoBucket) break;

    std::vector<vid_t> settled;
    std::vector<vid_t> current;
    if (static_cast<size_t>(cur) < buckets.size())
      current.swap(buckets[static_cast<size_t>(cur)]);

    // Inner iterations: light edges until the whole bucket is globally calm.
    while (true) {
      std::vector<vid_t> frontier;
      for (vid_t local : current) {
        const weight_t d = r.dist[local];
        if (d != kInfDist && bucket_of(d) == cur) frontier.push_back(local);
      }
      const std::int64_t active =
          comm.allreduce_sum(static_cast<std::int64_t>(frontier.size()));
      if (active == 0) break;
      settled.insert(settled.end(), frontier.begin(), frontier.end());
      generate(frontier, /*light=*/true, outbox);
      auto inbound = comm.all_to_all_reliable(outbox, tag++, opts.retry);
      std::vector<vid_t> improved;
      apply(inbound, improved);
      current.clear();
      for (vid_t local : improved) {
        const weight_t d = r.dist[local];
        if (bucket_of(d) == cur) current.push_back(local);
        else push_bucket(local, d);
      }
    }

    // Heavy edges once per settled vertex.
    generate(settled, /*light=*/false, outbox);
    auto inbound = comm.all_to_all_reliable(outbox, tag++, opts.retry);
    std::vector<vid_t> improved;
    apply(inbound, improved);
    for (vid_t local : improved) push_bucket(local, r.dist[local]);
  }
  return r;
}

void gather_global(Comm& comm, const LocalGraph& lg, const DistSsspResult& r,
                   std::vector<weight_t>& dist_out) {
  auto dists = comm.allgatherv(r.dist);
  dist_out.clear();
  dist_out.reserve(static_cast<size_t>(lg.n_global));
  for (int rk = 0; rk < comm.size(); ++rk) {
    dist_out.insert(dist_out.end(), dists[static_cast<size_t>(rk)].begin(),
                    dists[static_cast<size_t>(rk)].end());
  }
}

}  // namespace peek::dist
