// Internal: the deviation loop shared by Yen, NC, hop-limited KSP and OptYen
// — and through OptYen by PeeK's final KSP stage, the serving layer's
// streams and the distributed KSP stage. Algorithm 1 gives the skeleton; the
// algorithms differ only in how they answer one question — "what is the
// shortest v->t path avoiding these prefix vertices and these deviation
// edges?" — so that question is a pluggable DeviationSolver and everything
// else (prefix walking, edge banning, candidate pooling, Lawler indices, the
// outer level of the two-level parallel strategy, per-worker SSSP
// workspaces) lives here once.
#pragma once

#include <functional>
#include <optional>

#include "ksp/path_set.hpp"
#include "sssp/view.hpp"

namespace peek::ksp::detail {

using sssp::GraphView;

/// One deviation of accepted path P at position i.
struct DeviationContext {
  vid_t deviation_vertex;  // P[i]
  /// Byte mask over vertices: P[0..i-1].
  const std::uint8_t* banned_vertices;
  /// Forward-view edge ids banned at the deviation vertex (line 6).
  const std::unordered_set<eid_t>& banned_edges;
  /// Position of the deviation vertex within the accepted path.
  int position;
  /// The calling worker's Dijkstra storage (see restricted_suffix).
  sssp::DijkstraWorkspace& workspace;
  /// The round's cancellation token. Null = never cancelled.
  const fault::CancelToken* cancel;
};

/// Returns the shortest suffix path deviation_vertex -> t under the context's
/// bans (dist = suffix distance only), or an empty path if none exists or
/// the context's token cut the search short.
using DeviationSolver = std::function<sssp::Path(const DeviationContext&)>;

struct EngineHooks {
  /// Called once per accepted path before its deviations are explored
  /// (NC uses it to rebuild vertex colors). May be null.
  std::function<void(const sssp::Path&, int dev_index)> on_path_accepted;
};

/// Deviation edges banned at position `i` of path `p`: every accepted path Q
/// sharing p's first i+1 vertices contributes its edge (Q[i], Q[i+1])
/// (Algorithm 1 line 6). Shared with the sidetrack algorithms.
std::unordered_set<eid_t> banned_edges_at(const GraphView& fwd,
                                          const std::vector<Candidate>& accepted,
                                          const std::vector<vid_t>& p, int i);

/// Cumulative distance along `verts` (cum[i] = distance of verts[0..i]).
std::vector<weight_t> cumulative_distances(const GraphView& fwd,
                                           const std::vector<vid_t>& verts);

/// The cheapest first step from v into the reverse tree `rtree`: the edge
/// (v, w), first in edge order, minimizing w(e) + rtree.dist[w] over alive
/// edges not in `banned_edges` whose head w is alive, not v, not banned and
/// tree-reachable. That sum lower-bounds every allowed v->t suffix.
/// kNoEdge when there is no such edge.
eid_t cheapest_tree_exit(const GraphView& fwd, const sssp::SsspResult& rtree,
                         vid_t v, const std::uint8_t* banned_vertices,
                         const std::unordered_set<eid_t>& banned_edges);

/// v, then the reverse-tree path from the head of `exit` to t, priced
/// w(exit) + rtree.dist[head]. Empty when that path revisits v or a banned
/// vertex (null = none banned) or does not reach t.
sssp::Path tree_suffix(const GraphView& fwd, const sssp::SsspResult& rtree,
                       vid_t v, eid_t exit, vid_t t,
                       const std::uint8_t* banned_vertices);

/// The restricted search every deviation solver falls back to (Algorithm 1
/// line 10): the shortest ctx.deviation_vertex -> t path under the
/// context's bans, a Dijkstra with target early exit in ctx.workspace. It
/// is serial in every mode: parallelism is the engine's outer level, which
/// runs a round's deviations concurrently. Empty when t is unreachable or
/// ctx.cancel cut the search short — a cut-short tree may overestimate, so
/// it is never used.
sssp::Path restricted_suffix(const GraphView& fwd, vid_t t,
                             const DeviationContext& ctx);

/// The per-position step (Algorithm 1 lines 5-11): bans P[0..i-1] and the
/// edges accepted paths sharing P[0..i] leave by, asks `solver` for the
/// suffix and returns P[0..i] ++ suffix with its Lawler index i, or nullopt
/// when there is none. `mask` is an all-zero byte-per-vertex scratch and is
/// all-zero again on return.
std::optional<Candidate> deviate_at(const GraphView& fwd,
                                    const std::vector<Candidate>& accepted,
                                    const std::vector<vid_t>& p,
                                    const std::vector<weight_t>& cum, int i,
                                    std::vector<std::uint8_t>& mask,
                                    sssp::DijkstraWorkspace& ws,
                                    const fault::CancelToken* cancel,
                                    const DeviationSolver& solver);

/// The resumable deviation loop: each next() expands the newest accepted
/// path (one deviation per position from its Lawler index on) and pops the
/// shortest candidate. With `parallel` the positions of a round run
/// concurrently (the outer level of §6.1's two-level strategy) — only legal
/// when the solver is thread-safe, and ignored when an on_path_accepted hook
/// is set. Pop order is the pool's total (dist, lex) order, so the sequence
/// does not depend on the order a round's candidates arrive in.
class DeviationEngine {
 public:
  /// `fwd` is the forward view of the (possibly compacted) graph; its arrays
  /// must outlive the engine.
  DeviationEngine(const GraphView& fwd, vid_t s, vid_t t,
                  DeviationSolver solver, bool parallel,
                  EngineHooks hooks = {});

  /// Makes `first` the shortest path the first next() returns (OptYen reads
  /// it off its reverse tree) instead of asking the solver for it. Call
  /// before the first next(); an empty path means there is none.
  void start(sssp::Path first);

  /// The next shortest simple path, or nullopt when the path space is
  /// exhausted — or when `cancel` tripped. A cancelled call leaves the engine
  /// valid and NOT exhausted: its round is re-run in full by the next call
  /// (nothing of a cancelled round reaches the pool, so accepted paths stay
  /// the exact top-J).
  std::optional<sssp::Path> next(const fault::CancelToken* cancel);

  bool exhausted() const { return exhausted_; }
  const std::vector<Candidate>& accepted() const { return accepted_; }
  int candidates_generated() const {
    return static_cast<int>(cands_.total_generated());
  }

 private:
  sssp::Path accept(Candidate c);
  /// Pushes the deviations of accepted_.back() into the pool; false (and
  /// nothing pushed) when `cancel` tripped during the round.
  bool expand(const fault::CancelToken* cancel);
  /// Per-worker masks and workspaces for the current worker count.
  std::size_t ensure_workers();

  GraphView fwd_;
  vid_t s_, t_;
  DeviationSolver solver_;
  bool parallel_;
  EngineHooks hooks_;
  std::vector<Candidate> accepted_;
  CandidateSet cands_;
  std::vector<std::vector<std::uint8_t>> masks_;
  std::vector<sssp::DijkstraWorkspace> workspaces_;
  std::optional<sssp::Path> seed_;  // set by start()
  bool exhausted_ = false;
};

/// Pulls `engine` until it holds opts.k paths or runs dry. On a tripped
/// opts.cancel the result holds the exact top-J paths and the trip's status.
KspResult drain(DeviationEngine& engine, const KspOptions& opts);

/// Drains a fresh engine (first path from the solver) — Yen, NC and
/// hop-limited KSP.
KspResult run_yen_engine(const GraphView& fwd, vid_t s, vid_t t,
                         const KspOptions& opts, const DeviationSolver& solver,
                         const EngineHooks& hooks = {});

}  // namespace peek::ksp::detail
