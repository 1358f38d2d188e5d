#include "ksp/yen_engine.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::ksp::detail {

std::vector<weight_t> cumulative_distances(const GraphView& fwd,
                                           const std::vector<vid_t>& verts) {
  std::vector<weight_t> cum(verts.size(), 0);
  for (size_t i = 0; i + 1 < verts.size(); ++i) {
    const eid_t e = fwd.find_edge(verts[i], verts[i + 1]);
    cum[i + 1] = cum[i] + (e == kNoEdge ? kInfDist : fwd.edge_weight(e));
  }
  return cum;
}

std::unordered_set<eid_t> banned_edges_at(const GraphView& fwd,
                                          const std::vector<Candidate>& accepted,
                                          const std::vector<vid_t>& p, int i) {
  std::unordered_set<eid_t> banned;
  for (const Candidate& q : accepted) {
    const auto& qv = q.path.verts;
    if (static_cast<int>(qv.size()) <= i + 1) continue;
    if (!std::equal(p.begin(), p.begin() + i + 1, qv.begin())) continue;
    const eid_t e = fwd.find_edge(qv[i], qv[i + 1]);
    if (e != kNoEdge) banned.insert(e);
  }
  return banned;
}

eid_t cheapest_tree_exit(const GraphView& fwd, const sssp::SsspResult& rtree,
                         vid_t v, const std::uint8_t* banned_vertices,
                         const std::unordered_set<eid_t>& banned_edges) {
  eid_t best_e = kNoEdge;
  weight_t best = kInfDist;
  for (eid_t e = fwd.edge_begin(v); e < fwd.edge_end(v); ++e) {
    if (!fwd.edge_alive(e) || banned_edges.count(e)) continue;
    const vid_t w = fwd.edge_target(e);
    if (!fwd.vertex_alive(w) || banned_vertices[w] || w == v) continue;
    if (rtree.dist[w] == kInfDist) continue;
    const weight_t bound = fwd.edge_weight(e) + rtree.dist[w];
    if (bound < best) {
      best = bound;
      best_e = e;
    }
  }
  return best_e;
}

sssp::Path tree_suffix(const GraphView& fwd, const sssp::SsspResult& rtree,
                       vid_t v, eid_t exit, vid_t t,
                       const std::uint8_t* banned_vertices) {
  const vid_t head = fwd.edge_target(exit);
  sssp::Path suffix;
  suffix.verts.push_back(v);
  for (vid_t u = head; u != kNoVertex; u = rtree.parent[u]) {
    if (u == v || (banned_vertices && banned_vertices[u])) return {};
    suffix.verts.push_back(u);
    if (u == t) break;
  }
  if (suffix.verts.back() != t) return {};
  suffix.dist = fwd.edge_weight(exit) + rtree.dist[head];
  return suffix;
}

sssp::Path restricted_suffix(const GraphView& fwd, vid_t t,
                             const DeviationContext& ctx) {
  const vid_t v = ctx.deviation_vertex;
  sssp::DijkstraOptions dj;
  dj.target = t;
  dj.bans = {ctx.banned_vertices, &ctx.banned_edges};
  dj.cancel = ctx.cancel;
  const sssp::SsspResult& r = sssp::dijkstra(fwd, v, dj, ctx.workspace);
  if (r.status != fault::Status::kOk) return {};
  return sssp::path_from_parents(r, v, t);
}

std::optional<Candidate> deviate_at(const GraphView& fwd,
                                    const std::vector<Candidate>& accepted,
                                    const std::vector<vid_t>& p,
                                    const std::vector<weight_t>& cum, int i,
                                    std::vector<std::uint8_t>& mask,
                                    sssp::DijkstraWorkspace& ws,
                                    const fault::CancelToken* cancel,
                                    const DeviationSolver& solver) {
  const auto at = static_cast<size_t>(i);
  for (size_t j = 0; j < at; ++j) mask[p[j]] = 1;
  std::vector<vid_t> prefix(p.begin(), p.begin() + i + 1);
  const std::unordered_set<eid_t> banned = banned_edges_at(fwd, accepted, p, i);
  sssp::Path suffix = solver({p[at], mask.data(), banned, i, ws, cancel});
  for (size_t j = 0; j < at; ++j) mask[p[j]] = 0;
  if (suffix.empty()) return std::nullopt;
  Candidate cand;
  cand.dev_index = i;
  cand.path.verts = std::move(prefix);
  cand.path.verts.insert(cand.path.verts.end(), suffix.verts.begin() + 1,
                         suffix.verts.end());
  cand.path.dist = cum[at] + suffix.dist;
  return cand;
}

DeviationEngine::DeviationEngine(const GraphView& fwd, vid_t s, vid_t t,
                                 DeviationSolver solver, bool parallel,
                                 EngineHooks hooks)
    : fwd_(fwd), s_(s), t_(t), solver_(std::move(solver)),
      parallel_(parallel && !hooks.on_path_accepted),
      hooks_(std::move(hooks)) {
  const vid_t n = fwd_.num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n || !fwd_.vertex_alive(s) ||
      !fwd_.vertex_alive(t))
    exhausted_ = true;
}

std::size_t DeviationEngine::ensure_workers() {
  // In serial mode thread_id() may be nonzero (the engine can run inside an
  // outer parallel region, e.g. a parallel batch), so serial always uses
  // slot 0; parallel mode sizes for the current worker count.
  const auto workers =
      parallel_ ? static_cast<std::size_t>(par::max_threads()) : 1;
  if (masks_.size() < workers) {
    masks_.resize(workers, std::vector<std::uint8_t>(
                               static_cast<size_t>(fwd_.num_vertices()), 0));
    workspaces_.resize(workers);
  }
  return workers;
}

void DeviationEngine::start(sssp::Path first) { seed_ = std::move(first); }

sssp::Path DeviationEngine::accept(Candidate c) {
  PEEK_COUNT_INC("ksp.paths_accepted");
  accepted_.push_back(std::move(c));
  return accepted_.back().path;
}

bool DeviationEngine::expand(const fault::CancelToken* cancel) {
  // Round-boundary cancellation (stride 1 — rounds are rare next to the
  // SSSP work inside them): a tripped token may have cut some deviation
  // SSSPs short, so the pool could miss a shorter candidate. The round's
  // candidates are therefore pushed only when it completed.
  fault::CancelPoll poll(cancel, /*stride=*/1);
  if (poll.should_stop()) return false;
  const Candidate& cur = accepted_.back();
  const auto& p = cur.path.verts;
  const int len = static_cast<int>(p.size());
  if (hooks_.on_path_accepted) hooks_.on_path_accepted(cur.path, cur.dev_index);
  const std::vector<weight_t> cum = cumulative_distances(fwd_, p);

  // One deviation task per position; results buffered per worker, merged
  // serially into the candidate pool (its hash set is not thread-safe).
  const std::size_t workers = ensure_workers();
  std::vector<std::vector<Candidate>> found(workers);
  auto deviate = [&](int i) {
    PEEK_FAULT_STALL("ksp.deviation.stall");
    const auto slot = parallel_ ? static_cast<size_t>(par::thread_id()) : 0;
    auto cand = deviate_at(fwd_, accepted_, p, cum, i, masks_[slot],
                           workspaces_[slot], cancel, solver_);
    if (cand) found[slot].push_back(std::move(*cand));
  };
  if (len - 1 > cur.dev_index) {
    PEEK_COUNT_ADD("ksp.deviation_tasks", len - 1 - cur.dev_index);
  }
  if (parallel_) {
    PEEK_COUNT_INC("ksp.parallel_deviation_rounds");
    par::parallel_for_dynamic(cur.dev_index, len - 1, deviate, 1);
  } else {
    for (int i = cur.dev_index; i < len - 1 && !poll.should_stop(); ++i)
      deviate(i);
  }
  if (poll.should_stop()) return false;

  const std::size_t before = cands_.total_generated();
  for (auto& bucket : found) {
    for (Candidate& c : bucket) cands_.push(std::move(c.path), c.dev_index);
  }
  PEEK_COUNT_ADD("ksp.candidates_generated",
                 cands_.total_generated() - before);
  return true;
}

std::optional<sssp::Path> DeviationEngine::next(
    const fault::CancelToken* cancel) {
  if (exhausted_) return std::nullopt;
  if (accepted_.empty()) {
    sssp::Path first;
    if (seed_) {
      first = std::move(*seed_);
    } else {
      // The shortest path: the solver with the trivial prefix {s}, no bans.
      ensure_workers();
      const std::unordered_set<eid_t> no_edges;
      first = solver_(
          {s_, masks_[0].data(), no_edges, 0, workspaces_[0], cancel});
    }
    if (first.empty()) {
      fault::CancelPoll poll(cancel, /*stride=*/1);
      if (seed_ || !poll.should_stop()) exhausted_ = true;
      return std::nullopt;
    }
    return accept({std::move(first), 0});
  }
  // A cancelled round is re-run in full by the next call.
  if (!expand(cancel)) return std::nullopt;
  auto cand = cands_.pop_min();
  if (!cand) {
    exhausted_ = true;
    return std::nullopt;
  }
  return accept(std::move(*cand));
}

KspResult drain(DeviationEngine& engine, const KspOptions& opts) {
  KspResult result;
  while (static_cast<int>(engine.accepted().size()) < opts.k) {
    if (engine.next(opts.cancel)) continue;
    if (!engine.exhausted()) result.status = opts.cancel->why();
    break;
  }
  result.paths.reserve(engine.accepted().size());
  for (const Candidate& c : engine.accepted()) result.paths.push_back(c.path);
  result.stats.candidates_generated = engine.candidates_generated();
  return result;
}

KspResult run_yen_engine(const GraphView& fwd, vid_t s, vid_t t,
                         const KspOptions& opts, const DeviationSolver& solver,
                         const EngineHooks& hooks) {
  DeviationEngine engine(fwd, s, t, solver, opts.parallel, hooks);
  return drain(engine, opts);
}

}  // namespace peek::ksp::detail
