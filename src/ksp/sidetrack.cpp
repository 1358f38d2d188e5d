#include "ksp/sidetrack.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "ksp/yen_engine.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::ksp {

namespace {

using sssp::GraphView;
using sssp::SsspResult;
using TreePtr = std::shared_ptr<const SsspResult>;

struct PrefixHash {
  size_t operator()(const std::vector<vid_t>& v) const {
    size_t h = 1469598103934665603ULL;
    for (vid_t x : v) {
      h ^= static_cast<size_t>(x);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Bounded pool of reverse shortest-path trees keyed by the red prefix they
/// were computed under. FIFO eviction (evicted prefixes recompute on demand).
class TreePool {
 public:
  explicit TreePool(size_t cap) : cap_(cap) {}

  TreePtr find(const std::vector<vid_t>& prefix) const {
    auto it = cache_.find(prefix);
    return it == cache_.end() ? nullptr : it->second;
  }

  void insert(std::vector<vid_t> prefix, TreePtr tree) {
    if (cache_.count(prefix)) return;
    if (cache_.size() >= cap_ && !fifo_.empty()) {
      cache_.erase(fifo_.front());
      fifo_.pop_front();
    }
    fifo_.push_back(prefix);
    cache_.emplace(std::move(prefix), std::move(tree));
    peak_ = std::max(peak_, cache_.size());
  }

  size_t peak() const { return peak_; }

 private:
  size_t cap_;
  size_t peak_ = 0;
  std::unordered_map<std::vector<vid_t>, TreePtr, PrefixHash> cache_;
  std::deque<std::vector<vid_t>> fifo_;
};

struct SidetrackRun {
  const BiView& g;
  vid_t s, t;
  const SidetrackOptions& opts;
  TreePool pool;
  std::vector<std::uint8_t> mask;  // scratch vertex-ban mask
  KspStats stats;

  SidetrackRun(const BiView& bg, vid_t src, vid_t tgt,
               const SidetrackOptions& o)
      : g(bg), s(src), t(tgt), opts(o), pool(o.max_resident_trees),
        mask(static_cast<size_t>(bg.fwd.num_vertices()), 0) {}

  /// Reverse tree for red set = `prefix` (vertices banned from the suffix).
  /// SB computes it fresh; SB* repairs the nearest cached ancestor tree.
  TreePtr tree_for(const std::vector<vid_t>& prefix) {
    if (TreePtr hit = pool.find(prefix)) return hit;
    for (vid_t v : prefix) mask[v] = 1;
    sssp::Bans bans{mask.data(), nullptr};
    TreePtr tree;
    if (opts.resume_trees && !prefix.empty()) {
      // Longest cached ancestor (always terminates: the empty prefix / root
      // tree is inserted first).
      std::vector<vid_t> ancestor = prefix;
      TreePtr base;
      while (!base) {
        ancestor.pop_back();
        base = pool.find(ancestor);
        if (ancestor.empty() && !base) break;
      }
      stats.sssp_calls++;
      if (base) {
        sssp::DijkstraWorkspace ws;
        sssp::seed_ban_repair(g.rev, t, *base, bans, ws);
        ws.run(g.rev, {.bans = bans});
        tree = std::make_shared<SsspResult>(std::move(ws.tree));
      } else {
        tree = std::make_shared<SsspResult>(sssp::dijkstra(g.rev, t, {.bans = bans}));
      }
    } else {
      stats.sssp_calls++;
      tree = std::make_shared<SsspResult>(sssp::dijkstra(g.rev, t, {.bans = bans}));
    }
    for (vid_t v : prefix) mask[v] = 0;
    pool.insert(prefix, tree);
    return tree;
  }
};

}  // namespace

KspResult sb_ksp(const BiView& g, vid_t s, vid_t t,
                 const SidetrackOptions& opts) {
  const vid_t n = g.fwd.num_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n || opts.base.k <= 0) return {};

  // ONE reverse tree per extracted path (the Kurz–Mutzel economy): it is
  // computed on G minus the path's pre-deviation prefix P[0..d-1]. The root
  // tree (empty red set) also gives the shortest path.
  SidetrackRun run(g, s, t, opts);
  TreePtr tree = run.tree_for({});
  detail::EngineHooks hooks;
  hooks.on_path_accepted = [&](const sssp::Path& p, int dev_index) {
    tree = run.tree_for({p.verts.begin(), p.verts.begin() + dev_index});
  };
  // For deviation positions i > d the tree may route through the newly red
  // vertices P[d..i-1]; the validity walk catches that and falls back to a
  // restricted SSSP ("repair"), serial like the rest of this baseline.
  detail::DeviationSolver solver = [&](const detail::DeviationContext& ctx) {
    const vid_t v = ctx.deviation_vertex;
    const eid_t exit = detail::cheapest_tree_exit(
        g.fwd, *tree, v, ctx.banned_vertices, ctx.banned_edges);
    if (exit == kNoEdge) return sssp::Path{};
    sssp::Path suffix =
        detail::tree_suffix(g.fwd, *tree, v, exit, t, ctx.banned_vertices);
    if (!suffix.empty()) {
      run.stats.tree_shortcuts++;
      return suffix;
    }
    run.stats.sssp_calls++;
    return detail::restricted_suffix(g.fwd, t, ctx);
  };
  detail::DeviationEngine engine(g.fwd, s, t, solver, /*parallel=*/false,
                                 hooks);
  engine.start(sssp::path_from_reverse_parents(*tree, s, t));
  KspResult result = detail::drain(engine, opts.base);
  run.stats.candidates_generated = result.stats.candidates_generated;
  run.stats.trees_stored = run.pool.peak();
  result.stats = run.stats;
  return result;
}

KspResult sb_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                 const KspOptions& opts) {
  SidetrackOptions so;
  so.base = opts;
  so.resume_trees = false;
  return sb_ksp(BiView::of(g), s, t, so);
}

KspResult sb_star_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                      const KspOptions& opts) {
  SidetrackOptions so;
  so.base = opts;
  so.resume_trees = true;
  return sb_ksp(BiView::of(g), s, t, so);
}

}  // namespace peek::ksp
