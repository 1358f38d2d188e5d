#include "dist/dist_peek.hpp"

#include <algorithm>

#include "fault/injector.hpp"
#include "graph/builder.hpp"
#include "ksp/optyen.hpp"
#include "ksp/yen_engine.hpp"
#include "obs/metrics.hpp"
#include "recover/artifacts.hpp"
#include "recover/manager.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::dist {

namespace {

using ksp::Candidate;
using ksp::CandidateSet;
using sssp::SsspResult;

/// Flat encoding of candidate paths for the allgather exchange:
/// per candidate [dev_index, len, v0..v_{len-1}] in the id stream plus one
/// distance in the weight stream.
void encode_candidate(const Candidate& c, std::vector<vid_t>& ids,
                      std::vector<weight_t>& dists) {
  ids.push_back(static_cast<vid_t>(c.dev_index));
  ids.push_back(static_cast<vid_t>(c.path.verts.size()));
  ids.insert(ids.end(), c.path.verts.begin(), c.path.verts.end());
  dists.push_back(c.path.dist);
}

std::vector<Candidate> decode_candidates(const std::vector<vid_t>& ids,
                                         const std::vector<weight_t>& dists) {
  std::vector<Candidate> out;
  size_t i = 0, d = 0;
  while (i < ids.size()) {
    Candidate c;
    c.dev_index = ids[i++];
    const auto len = static_cast<size_t>(ids[i++]);
    c.path.verts.assign(ids.begin() + static_cast<ptrdiff_t>(i),
                        ids.begin() + static_cast<ptrdiff_t>(i + len));
    i += len;
    c.path.dist = dists[d++];
    out.push_back(std::move(c));
  }
  return out;
}

/// Loads + validates this rank's checkpoint. False on any of: file missing
/// or corrupt (corrupt-but-checksummed decode failures are quarantined),
/// checkpoint for a different (graph, s, t, k, comm shape) — staleness, not
/// corruption — or compacted vertex ids out of range for this run.
bool load_rank_checkpoint(const std::string& path, std::uint64_t fp, vid_t s,
                          vid_t t, int k, int ranks, int rank, vid_t n_compact,
                          recover::DistCheckpoint& out) {
  recover::ParseResult pr = recover::load_snapshot_file(path);
  if (pr.status.code != fault::Status::kOk) return false;
  fault::Status st = recover::decode_dist_checkpoint(pr.snap, out);
  if (st.code != fault::Status::kOk) {
    // A failed quarantine leaves the corrupt file where it is; the decode
    // failure above already forces a from-scratch run either way.
    if (!recover::quarantine_file(path, st).ok()) {
      PEEK_COUNT_INC("recover.quarantine_failures");
    }
    return false;
  }
  if (out.fingerprint != fp || out.s != s || out.t != t || out.k != k ||
      out.ranks != ranks || out.rank != rank || out.accepted.empty())
    return false;
  const auto in_range = [n_compact](const std::vector<sssp::Path>& ps) {
    for (const auto& p : ps)
      for (vid_t v : p.verts)
        if (v < 0 || v >= n_compact) return false;
    return true;
  };
  return in_range(out.accepted) && in_range(out.pending) && in_range(out.seen);
}

/// Replaces the live stage-4 state with a checkpoint's.
void apply_checkpoint(recover::DistCheckpoint&& c,
                      std::vector<Candidate>& accepted, CandidateSet& cands,
                      int& cand_tag) {
  accepted.clear();
  for (size_t i = 0; i < c.accepted.size(); ++i)
    accepted.push_back({std::move(c.accepted[i]), c.accepted_dev[i]});
  std::vector<Candidate> pending;
  pending.reserve(c.pending.size());
  for (size_t i = 0; i < c.pending.size(); ++i)
    pending.push_back({std::move(c.pending[i]), c.pending_dev[i]});
  cands.restore(std::move(pending), std::move(c.seen));
  cand_tag = c.cand_tag;
}

/// Atomically publishes this rank's stage-4 state. A failed write is counted
/// (recover.write_failures) but never fails the query — the next round
/// simply re-checkpoints.
void write_rank_checkpoint(const std::string& path, std::uint64_t fp, vid_t s,
                           vid_t t, int k, int ranks, int rank, int cand_tag,
                           const std::vector<Candidate>& accepted,
                           const CandidateSet& cands) {
  recover::DistCheckpoint c;
  c.fingerprint = fp;
  c.s = s;
  c.t = t;
  c.k = k;
  c.ranks = ranks;
  c.rank = rank;
  c.cand_tag = cand_tag;
  for (const Candidate& a : accepted) {
    c.accepted.push_back(a.path);
    c.accepted_dev.push_back(a.dev_index);
  }
  for (const Candidate& p : cands.pending()) {
    c.pending.push_back(p.path);
    c.pending_dev.push_back(p.dev_index);
  }
  c.seen = cands.seen_paths();
  const std::vector<std::byte> image = recover::encode_dist_checkpoint(c);
  if (!recover::write_file_atomic(path, image.data(), image.size()).ok()) {
    // Checkpointing is best-effort: a lost round costs recomputation, not
    // correctness (resume is all-or-nothing across ranks anyway).
    PEEK_COUNT_INC("recover.checkpoint_write_failures");
  }
}

}  // namespace

DistPeekResult dist_peek_ksp(Comm& comm, const graph::CsrGraph& g, vid_t s,
                             vid_t t, const DistPeekOptions& opts) {
  DistPeekResult result;
  const vid_t n = g.num_vertices();

  // Stage 1: the forward distributed SSSP over the 1-D slices, its
  // distances gathered on every rank.
  const LocalGraph slice = make_local_graph(g, comm.rank(), comm.size());
  const DistSsspResult local =
      dist_delta_stepping(comm, slice, s, {.retry = opts.retry});
  result.edges_relaxed = comm.allreduce_sum(local.edges_relaxed);
  SsspResult fwd;
  gather_global(comm, slice, local, fwd.dist);

  // Stage 2: the one prune (core/upper_bound), replicated. Every rank runs
  // it on the same graph and gathered distances, which equal Dijkstra's, and
  // the prune resolves the forward parents it walks by its one rule: so all
  // ranks compute peek_ksp's b, keep mask and reverse tree, with no
  // messages. It can fail on one rank alone (an allocation failure, real or
  // injected), so the ranks agree on its status before stage 3's
  // collectives, and then all return it.
  core::PruneOptions po;
  po.k = opts.k;
  po.reuse_from_source = &fwd;
  const core::PruneResult pruned = core::k_upper_bound_prune(g, s, t, po);
  result.status = comm.allreduce(
      pruned.status,
      [](fault::Status::Code a, fault::Status::Code b) {
        return a != fault::Status::kOk ? a : b;
      },
      fault::Status::kOk);
  if (result.status != fault::Status::kOk) return result;
  result.upper_bound = pruned.upper_bound;
  result.kept_vertices = pruned.kept_vertices;
  if (pruned.kept_vertices == 0) return result;  // t unreachable

  // Stage 3: distributed regeneration. Each rank contributes the surviving
  // edges of its OWNED rows; the (tiny) pruned graph is then replicated.
  compact::VertexMap map;
  map.old_to_new.assign(static_cast<size_t>(n), kNoVertex);
  map.new_to_old = pruned.kept_list;
  for (vid_t i = 0; i < result.kept_vertices; ++i) {
    map.old_to_new[map.new_to_old[i]] = i;
  }
  std::vector<vid_t> edge_ids;      // (new_u, new_v) pairs, flattened
  std::vector<weight_t> edge_wgts;
  for (vid_t lu = 0; lu < slice.owned(); ++lu) {
    const vid_t gu = slice.to_global(lu);
    if (!pruned.vertex_keep[gu]) continue;
    for (eid_t e = slice.row[lu]; e < slice.row[lu + 1]; ++e) {
      const vid_t gv = slice.col[static_cast<size_t>(e)];
      const weight_t w = slice.wgt[static_cast<size_t>(e)];
      if (!pruned.vertex_keep[gv]) continue;
      if (pruned.edge_keep && !pruned.edge_keep(gu, gv, w)) continue;
      edge_ids.push_back(map.to_new(gu));
      edge_ids.push_back(map.to_new(gv));
      edge_wgts.push_back(w);
    }
  }
  auto all_ids = comm.allgatherv(edge_ids);
  auto all_wgts = comm.allgatherv(edge_wgts);
  graph::Builder builder(result.kept_vertices);
  for (int rk = 0; rk < comm.size(); ++rk) {
    const auto& ids = all_ids[static_cast<size_t>(rk)];
    const auto& ws = all_wgts[static_cast<size_t>(rk)];
    for (size_t i = 0; i < ws.size(); ++i)
      builder.add_edge(ids[2 * i], ids[2 * i + 1], ws[i]);
  }
  const graph::CsrGraph compacted = builder.build();
  result.kept_edges = compacted.num_edges();
  const vid_t cs = map.to_new(s), ct = map.to_new(t);
  if (cs == kNoVertex || ct == kNoVertex) return result;

  // Stage 4: replicated-state distributed KSP, warm-started from the
  // prune's reverse tree as peek_ksp is. All ranks hold identical
  // accepted/candidate state; the deviation SSSPs of each accepted path are
  // computed round-robin (outer level of the two-level strategy) and the
  // candidates merged with a deterministic allgather.
  const sssp::BiView view = sssp::BiView::of(compacted);
  const SsspResult rtree = core::compacted_reverse_tree(pruned.to_target, map);
  sssp::Path first = sssp::path_from_reverse_parents(rtree, cs, ct);
  if (first.empty()) return result;

  std::vector<Candidate> accepted;
  accepted.push_back({std::move(first), 0});
  CandidateSet cands;
  // Each owned deviation is the shared engine's per-position step with
  // OptYen's solver — the same computation a single-process stream runs.
  std::vector<std::uint8_t> mask(static_cast<size_t>(result.kept_vertices), 0);
  sssp::DijkstraWorkspace ws;
  ksp::detail::OptYenCounts counts;
  const ksp::detail::DeviationSolver solver =
      ksp::detail::optyen_solver(view.fwd, rtree, ct, counts);

  int cand_tag = 0;  // mailboxes are drained by now; fresh tag space is safe

  // Checkpoint/restart (DESIGN.md §10). Resume is all-or-nothing: every rank
  // must hold a checkpoint for this exact (graph, s, t, k) at the same round,
  // because the replicated-state loop below is a sequence of collectives —
  // ranks entering it at different rounds would exchange mismatched tags.
  const bool ckpt = !opts.checkpoint_dir.empty();
  std::uint64_t fp = 0;
  std::string ckpt_path;
  if (ckpt) {
    fp = recover::graph_fingerprint(g);
    recover::RecoveryManager mgr(opts.checkpoint_dir);
    // Idempotent; safe for every rank to call. On failure the per-round
    // checkpoint writes below fail too (counted there) — the run proceeds
    // without restart protection rather than aborting K-path computation.
    if (!mgr.ensure_dir().ok()) {
      PEEK_COUNT_INC("recover.ensure_dir_failures");
    }
    ckpt_path = mgr.path_for("rank_" + std::to_string(comm.rank()) + ".ckpt");
    recover::DistCheckpoint c;
    int my_round = 0;
    if (load_rank_checkpoint(ckpt_path, fp, s, t, opts.k, comm.size(),
                             comm.rank(), result.kept_vertices, c))
      my_round = static_cast<int>(c.accepted.size());
    const auto rounds = comm.allgather(my_round);
    const bool agree =
        my_round > 0 && std::all_of(rounds.begin(), rounds.end(),
                                    [&](int r) { return r == my_round; });
    if (agree) {
      apply_checkpoint(std::move(c), accepted, cands, cand_tag);
      PEEK_COUNT_INC("dist.rank_restarts");
    }
    write_rank_checkpoint(ckpt_path, fp, s, t, opts.k, comm.size(),
                          comm.rank(), cand_tag, accepted, cands);
  }

  while (static_cast<int>(accepted.size()) < opts.k) {
    if (ckpt && PEEK_FAULT_FIRE("dist.rank_fail")) {
      // Simulated rank crash at a round boundary: drop the live state and
      // rebuild it from the checkpoint written at the end of the previous
      // round. The checkpoint always equals the state just dropped, so the
      // restart is invisible to the other ranks (no re-sync needed).
      recover::DistCheckpoint c;
      if (load_rank_checkpoint(ckpt_path, fp, s, t, opts.k, comm.size(),
                               comm.rank(), result.kept_vertices, c)) {
        apply_checkpoint(std::move(c), accepted, cands, cand_tag);
        PEEK_COUNT_INC("dist.rank_restarts");
      }
    }
    const Candidate cur = accepted.back();
    const auto& p = cur.path.verts;
    const int len = static_cast<int>(p.size());
    const auto cum = ksp::detail::cumulative_distances(view.fwd, p);

    std::vector<vid_t> my_ids;
    std::vector<weight_t> my_dists;
    for (int i = cur.dev_index; i < len - 1; ++i) {
      if (i % comm.size() != comm.rank()) continue;  // round-robin ownership
      const auto cand = ksp::detail::deviate_at(view.fwd, accepted, p, cum, i,
                                                mask, ws, nullptr, solver);
      if (cand) encode_candidate(*cand, my_ids, my_dists);
    }

    auto all_cand_ids = comm.allgatherv_reliable(my_ids, cand_tag++, opts.retry);
    auto all_cand_dists =
        comm.allgatherv_reliable(my_dists, cand_tag++, opts.retry);
    for (int rk = 0; rk < comm.size(); ++rk) {
      for (Candidate& c : decode_candidates(all_cand_ids[static_cast<size_t>(rk)],
                                            all_cand_dists[static_cast<size_t>(rk)]))
        cands.push(std::move(c.path), c.dev_index);
    }
    auto next = cands.pop_min();
    if (!next) break;
    accepted.push_back(std::move(*next));
    if (ckpt)
      write_rank_checkpoint(ckpt_path, fp, s, t, opts.k, comm.size(),
                            comm.rank(), cand_tag, accepted, cands);
  }

  // Translate back to original ids.
  result.ksp.paths.reserve(accepted.size());
  for (Candidate& c : accepted) {
    for (auto& v : c.path.verts) v = map.to_old(v);
    result.ksp.paths.push_back(std::move(c.path));
  }
  return result;
}

}  // namespace peek::dist
