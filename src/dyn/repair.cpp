#include "dyn/repair.hpp"

#include "dyn/update_batch.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"

namespace peek::dyn {

void seed_cone_repair(const sssp::GraphView& view, const sssp::GraphView& rview,
                      vid_t source, const sssp::SsspResult& base,
                      weight_t threshold, sssp::DijkstraWorkspace& ws) {
  const vid_t n = view.num_vertices();
  ws.reset(n);
  if (source < 0 || source >= n || !view.vertex_alive(source)) return;
  const vid_t base_n = static_cast<vid_t>(base.dist.size());
  std::vector<vid_t> poisoned;
  for (vid_t v = 0; v < n; ++v) {
    const weight_t d = v < base_n ? base.dist[v] : kInfDist;
    if (!in_cone(d, threshold) && view.vertex_alive(v)) {
      // Survivor: its tree path stays below the threshold everywhere
      // (distances are monotone along it), so no batch edge touched it.
      ws.settle(v, d, v == source ? kNoVertex : base.parent[v]);
    } else {
      poisoned.push_back(v);
    }
  }
  if (!ws.settled(source)) {
    // threshold <= 0: the cone swallowed the root (and with non-negative
    // weights, everything else) — degenerate to a fresh full search.
    ws.open(source, 0, kNoVertex);
    return;
  }
  for (vid_t x : poisoned) {
    if (!view.vertex_alive(x)) continue;
    for (eid_t e = rview.edge_begin(x); e < rview.edge_end(x); ++e) {
      if (!rview.edge_alive(e)) continue;
      const vid_t u = rview.edge_target(e);
      if (u < 0 || u >= n || !ws.settled(u)) continue;
      ws.open(x, ws.tree.dist[u] + rview.edge_weight(e), u);
    }
  }
}

RepairResult repair_trees(const graph::CsrGraph& post,
                          const std::vector<RepairJob>& jobs,
                          const fault::CancelToken* cancel) {
  RepairResult out;
  out.trees.assign(jobs.size(), nullptr);
  if (jobs.empty()) return out;
  post.warm_reverse();
  const sssp::GraphView fwd(post);
  const sssp::GraphView rev(post.reverse());
  fault::CancelPoll poll(cancel, 1);
  sssp::DijkstraWorkspace ws;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (poll.should_stop()) {
      out.status = fault::Status(poll.why(), "tree repair stopped");
      return out;
    }
    PEEK_FAULT_STALL("dyn.repair.stall");
    if (PEEK_FAULT_FIRE("dyn.repair.crash")) {
      PEEK_COUNT_INC("dyn.repair.crashes");
      out.status =
          fault::Status(fault::Status::kInternal, "injected repair crash");
      return out;
    }
    const RepairJob& job = jobs[i];
    if (job.base == nullptr) continue;
    // A reverse tree is a forward tree of the transpose, so search and
    // boundary views swap roles.
    const sssp::GraphView& search = job.reverse ? rev : fwd;
    const sssp::GraphView& boundary = job.reverse ? fwd : rev;
    seed_cone_repair(search, boundary, job.root, *job.base, job.threshold,
                     ws);
    ws.run(search, {});
    out.trees[i] = std::make_shared<sssp::SsspResult>(std::move(ws.tree));
    PEEK_COUNT_INC("dyn.repair.trees");
  }
  return out;
}

}  // namespace peek::dyn
