#include "serve/query_engine.hpp"

#include <algorithm>
#include <chrono>

#include "check/certify.hpp"
#include "ksp/stream.hpp"
#include "obs/metrics.hpp"
#include "recover/artifacts.hpp"
#include "sssp/dijkstra.hpp"

namespace peek::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Translates a compacted-id path into original ids (in place).
void to_original_ids(sssp::Path& p, const compact::VertexMap& map) {
  for (auto& v : p.verts) v = map.to_old(v);
}

/// How often one query re-reads after the label found no bound for its answer
/// (a structural batch landed mid-pass) before giving up with kOverloaded.
/// Each retry reads the new epoch, so in practice one suffices.
constexpr int kMaxEpochRetries = 8;

}  // namespace

namespace {

/// Shared persistence setup of both constructors. A directory that cannot be
/// created is counted and degrades the engine to no-persistence — persist()
/// would only produce per-file write failures against the same broken path.
void init_recovery(std::optional<recover::RecoveryManager>& recovery,
                   const std::string& dir) {
  recovery.emplace(dir);
  if (!recovery->ensure_dir().ok()) {
    PEEK_COUNT_INC("recover.ensure_dir_failures");
  }
}

}  // namespace

QueryEngine::QueryEngine(const graph::CsrGraph& g, const ServeOptions& opts)
    // Non-owning: the caller guarantees the graph outlives the engine.
    : QueryEngine(std::shared_ptr<const graph::CsrGraph>(
                      &g, [](const graph::CsrGraph*) {}),
                  nullptr, opts) {}

QueryEngine::QueryEngine(const dyn::DynamicGraph& dg, const ServeOptions& opts)
    // The snapshot is taken here, before warm restart reads it, and while
    // the caller is still single-threaded: a later snapshot could race a
    // fleet apply_batch mutating `dg`.
    : QueryEngine(std::make_shared<const graph::CsrGraph>(dg.to_csr()), &dg,
                  opts) {}

QueryEngine::QueryEngine(std::shared_ptr<const graph::CsrGraph> g,
                         const dyn::DynamicGraph* dg, const ServeOptions& opts)
    : dyn_graph_(dg), n_(g->num_vertices()), opts_(opts), cache_(opts.cache) {
  {
    // Uncontended (no other thread exists yet); taken so the annotation on
    // graph_ holds unconditionally.
    check::MutexLock lock(dyn_mu_);
    graph_ = std::move(g);
  }
  if (opts_.injector) fault::Injector::global().configure(*opts_.injector);
  if (!opts_.snapshot_dir.empty()) {
    init_recovery(recovery_, opts_.snapshot_dir);
    if (opts_.warm_restart) restore_from_dir();
  }
  // Only a dynamic graph receives batches, hence repairs.
  if (dyn_graph_ != nullptr) {
    repair_thread_ = std::thread([this] { repair_loop(); });
  }
}

QueryEngine::QueryEngine(dyn::DynamicGraph& dg, const ServeOptions& opts)
    : QueryEngine(static_cast<const dyn::DynamicGraph&>(dg), opts) {
  // Safe post-delegation: the repair thread never touches mutable_dyn_.
  mutable_dyn_ = &dg;
}

QueryEngine::~QueryEngine() {
  if (repair_thread_.joinable()) {
    {
      check::MutexLock lock(repair_mu_);
      repair_stop_ = true;
    }
    repair_cv_.notify_all();
    repair_thread_.join();
  }
}

void QueryEngine::invalidate() {
  generation_.fetch_add(1, std::memory_order_acq_rel);
  PEEK_COUNT_INC("serve.invalidations");
  // Unpin the coalescing map: in-flight owners are computing against the old
  // generation, so abort them (via the per-entry token their pipeline polls)
  // and wake their waiters — both sides then retry against the new
  // generation instead of blocking on, and serving, a doomed snapshot.
  std::vector<std::shared_ptr<Inflight>> pinned;
  {
    check::MutexLock lock(inflight_mu_);
    pinned.reserve(inflight_.size());
    for (auto& [key, inf] : inflight_) pinned.push_back(inf);
  }
  for (auto& inf : pinned) {
    inf->abort.cancel();
    {
      check::MutexLock lock(inf->mu);
      inf->invalidated = true;
    }
    inf->cv.notify_all();
    PEEK_COUNT_INC("serve.inflight_invalidations");
  }
}

size_t QueryEngine::inflight_entries() {
  check::MutexLock lock(inflight_mu_);
  return inflight_.size();
}

int QueryEngine::budget_for(int k) const {
  int target = k > opts_.k_budget_floor ? k : opts_.k_budget_floor;
  int b = 1;
  while (b < target) b <<= 1;
  return b;
}

std::shared_ptr<const graph::CsrGraph> QueryEngine::active_graph() {
  check::MutexLock lock(dyn_mu_);
  return graph_;
}

// ---------------------------------------------------------------------------
// Live-mutation pipeline (DESIGN.md §15)
// ---------------------------------------------------------------------------

dyn::AppliedBatch QueryEngine::apply_batch(const dyn::UpdateBatch& batch) {
  dyn::AppliedBatch b;
  if (mutable_dyn_ == nullptr) return b;  // misuse: no-op record
  check::MutexLock lock(dyn_mu_);
  // Mutation and adoption under one dyn_mu_ hold: no query can observe the
  // mutated DynamicGraph before the serving state has caught up.
  b = dyn::apply(*mutable_dyn_, batch);
  adopt_batch(b, nullptr);
  return b;
}

void QueryEngine::note_batch(const dyn::AppliedBatch& batch,
                             std::shared_ptr<const graph::CsrGraph> post) {
  if (dyn_graph_ == nullptr) return;  // a static CSR stays at epoch 0
  dyn::AppliedBatch b = batch;
  check::MutexLock lock(dyn_mu_);
  adopt_batch(b, std::move(post));
}

void QueryEngine::adopt_batch(dyn::AppliedBatch& b,
                              std::shared_ptr<const graph::CsrGraph> post) {
  const std::uint64_t prev = mutation_epoch_.load(std::memory_order_relaxed);
  if (b.epoch != 0 && b.epoch <= prev) {
    // Stale redelivery (a fleet heal raced a pending-queue drain): this
    // engine's content already reflects every batch up to `prev` — its
    // snapshot was taken from the post-mutation graph — so adopting an older
    // epoch would only move the counters backwards. No-op.
    return;
  }
  const std::uint64_t e = b.epoch != 0 ? b.epoch : prev + 1;
  b.epoch = e;
  PEEK_COUNT_INC("serve.batches");

  // Swap in the post-mutation snapshot: the caller-provided one when the
  // fleet already built it (see note_batch), else patched from the
  // pre-mutation one (a weight patch when the batch was reweight-only).
  graph_ = post ? std::move(post)
                : std::make_shared<const graph::CsrGraph>(
                      dyn::patched_csr(*dyn_graph_, *graph_, b));

  batch_log_.record(b);

  const std::uint64_t gen = generation();

  // Collect this generation's resident artifacts; affectedness is decided
  // here (outside the shard locks), then applied by one sweep below.
  std::unordered_map<vid_t, std::shared_ptr<const sssp::SsspResult>> fwd_roots;
  std::unordered_map<vid_t, std::shared_ptr<const sssp::SsspResult>> rev_roots;
  cache_.for_each_tree(
      [&](ArtifactKind kind, vid_t v,
          const std::shared_ptr<const sssp::SsspResult>& tree,
          std::uint64_t tgen) {
        if (tgen != gen) return;
        (kind == ArtifactKind::kForwardTree ? fwd_roots : rev_roots)[v] = tree;
      });
  struct SnapRef {
    vid_t s, t;
    std::shared_ptr<PrunedSnapshot> snap;
  };
  std::vector<SnapRef> snaps;
  cache_.for_each_snapshot([&](vid_t s, vid_t t,
                               const std::shared_ptr<PrunedSnapshot>& snap,
                               std::uint64_t sgen) {
    if (sgen == gen) snaps.push_back({s, t, snap});
  });

  // Trees: a finite cone threshold means part of the tree is in the affected
  // region — it becomes a background repair job seeded with itself.
  std::map<std::tuple<int, vid_t, vid_t>, bool> keep;
  std::vector<dyn::RepairJob> jobs;
  std::vector<std::pair<ArtifactKind, vid_t>> keys;
  auto classify_trees =
      [&](const std::unordered_map<
              vid_t, std::shared_ptr<const sssp::SsspResult>>& roots,
          ArtifactKind kind, bool reverse) {
        for (const auto& [root, tree] : roots) {
          const weight_t th = dyn::cone_threshold(b, *tree, reverse);
          keep[{static_cast<int>(kind), root, kNoVertex}] = th == kInfDist;
          if (th != kInfDist) {
            jobs.push_back({root, reverse, th, tree});
            keys.emplace_back(kind, root);
          }
        }
      };
  classify_trees(fwd_roots, ArtifactKind::kForwardTree, /*reverse=*/false);
  classify_trees(rev_roots, ArtifactKind::kReverseTree, /*reverse=*/true);

  // Snapshots: the pair test needs the pair's PRE-mutation trees, which is
  // why impacts are evaluated before any repair runs.
  std::vector<std::pair<SnapRef, weight_t>> newly_stale;
  for (const SnapRef& sr : snaps) {
    auto fit = fwd_roots.find(sr.s);
    auto rit = rev_roots.find(sr.t);
    const dyn::PairImpact pi = dyn::pair_impact(
        b, fit != fwd_roots.end() ? fit->second.get() : nullptr,
        rit != rev_roots.end() ? rit->second.get() : nullptr,
        sr.snap->upper_bound);
    keep[{static_cast<int>(ArtifactKind::kSnapshot), sr.s, sr.t}] =
        !pi.affected;
    // Reweight-only impact: the displaced snapshot stays servable with an
    // explicit bound while the repair is in flight. Structural impact: never
    // stale-served — the pair recomputes fresh against the post graph.
    if (pi.affected && !pi.structural) {
      newly_stale.push_back({sr, pi.weight_bound});
    }
  }

  // The side table keeps only entries the log can still widen to `e`: an
  // entry's pre-mutation trees are gone, so a later batch cannot be
  // pair-tested against it, and a structural one leaves no sound bound. The
  // pair then recomputes fresh.
  for (auto it = stale_snaps_.begin(); it != stale_snaps_.end();) {
    if (batch_log_.bound(it->second.epoch + 1, e)) {
      ++it;
    } else {
      it = stale_snaps_.erase(it);
    }
  }
  for (auto& [sr, bound] : newly_stale) {
    stale_snaps_[{sr.s, sr.t}] = StaleEntry{sr.snap, prev, bound};
  }
  mutation_epoch_.store(e, std::memory_order_release);

  // One sweep applies the decisions: keepers are restamped to epoch `e`
  // (still valid, served fresh with zero work), the rest erased in place.
  // Entries from older generations miss the decision map and are erased too.
  cache_.sweep(e, [&](ArtifactKind kind, vid_t a, vid_t bb, std::uint64_t) {
    const auto it = keep.find(
        {static_cast<int>(kind), a,
         kind == ArtifactKind::kSnapshot ? bb : kNoVertex});
    return it != keep.end() && it->second;
  });

  // Merge the repair work and wake the repair thread. Cone thresholds
  // against the same base tree min-compose across batches (the first-batch-
  // edge argument ranges over the union of all ops), so a pending job hit by
  // this batch just tightens its threshold; an in-flight repair's results
  // will fail their epoch check and be discarded.
  {
    check::MutexLock rlock(repair_mu_);
    if (repair_pending_) {
      for (dyn::RepairJob& j : repair_pending_->jobs) {
        j.threshold =
            std::min(j.threshold, dyn::cone_threshold(b, *j.base, j.reverse));
      }
      repair_pending_->jobs.insert(repair_pending_->jobs.end(), jobs.begin(),
                                   jobs.end());
      repair_pending_->keys.insert(repair_pending_->keys.end(), keys.begin(),
                                   keys.end());
      repair_pending_->epoch = e;
      repair_pending_->post = graph_;
    } else {
      repair_pending_ = RepairTask{e, graph_, std::move(jobs),
                                   std::move(keys)};
    }
  }
  repair_cv_.notify_all();
}

void QueryEngine::repair_loop() {
  for (;;) {
    RepairTask task;
    {
      check::UniqueLock lock(repair_mu_);
      while (!repair_stop_ && !repair_pending_) repair_cv_.wait(lock);
      if (repair_stop_) return;
      task = std::move(*repair_pending_);
      repair_pending_.reset();
      repair_busy_ = true;
    }
    const dyn::RepairResult rr = dyn::repair_trees(*task.post, task.jobs);
    if (rr.status.ok()) {
      check::MutexLock lock(dyn_mu_);
      if (mutation_epoch_.load(std::memory_order_relaxed) == task.epoch) {
        for (std::size_t i = 0; i < task.jobs.size(); ++i) {
          if (rr.trees[i]) {
            cache_.put_tree(task.keys[i].first, task.keys[i].second,
                            rr.trees[i], generation(), task.epoch);
          }
        }
        stale_snaps_.clear();  // fresh computes are cheap again: trees are back
        repaired_epoch_.store(task.epoch, std::memory_order_release);
      }
      // else: a newer batch landed mid-repair — these trees answer a
      // superseded epoch, so they are dropped (roots recompute on demand)
      // and the merged pending task catches up instead.
    } else {
      // Injected repair crash (dyn.repair.crash): fall back to wholesale
      // invalidation. Nothing stays cached, nothing stays stale-servable,
      // and the epochs equalize — so no answer can ever be served with an
      // unbounded staleness.
      PEEK_COUNT_INC("dyn.repair.fallbacks");
      check::MutexLock lock(dyn_mu_);
      invalidate();
      {
        check::MutexLock rlock(repair_mu_);
        repair_pending_.reset();  // superseded by the wholesale invalidation
      }
      stale_snaps_.clear();
      repaired_epoch_.store(mutation_epoch_.load(std::memory_order_relaxed),
                            std::memory_order_release);
    }
    {
      check::MutexLock lock(repair_mu_);
      repair_busy_ = false;
    }
    repair_cv_.notify_all();
  }
}

void QueryEngine::drain_repairs() {
  if (!repair_thread_.joinable()) return;
  check::UniqueLock lock(repair_mu_);
  while (repair_busy_ || repair_pending_) repair_cv_.wait(lock);
}

void QueryEngine::reset_epoch(std::uint64_t epoch) {
  check::MutexLock lock(dyn_mu_);
  batch_log_.clear();
  {
    check::MutexLock rlock(repair_mu_);
    repair_pending_.reset();
  }
  stale_snaps_.clear();
  mutation_epoch_.store(epoch, std::memory_order_release);
  repaired_epoch_.store(epoch, std::memory_order_release);
}

std::size_t QueryEngine::stale_entries() {
  check::MutexLock lock(dyn_mu_);
  return stale_snaps_.size();
}

bool QueryEngine::publish_tree(
    ArtifactKind kind, vid_t v,
    const std::shared_ptr<const sssp::SsspResult>& tree, std::uint64_t gen,
    std::uint64_t epoch0) {
  check::MutexLock lock(dyn_mu_);
  if (mutation_epoch_.load(std::memory_order_relaxed) != epoch0) return false;
  cache_.put_tree(kind, v, tree, gen, epoch0);
  return true;
}

bool QueryEngine::publish_snapshot(vid_t s, vid_t t,
                                   const std::shared_ptr<PrunedSnapshot>& snap,
                                   std::uint64_t gen, std::uint64_t epoch0,
                                   ServeResult& out) {
  check::MutexLock lock(dyn_mu_);
  if (mutation_epoch_.load(std::memory_order_relaxed) != epoch0) return false;
  if (!cache_.put_snapshot(s, t, snap, gen, epoch0)) out.uncached = true;
  return true;
}

QueryEngine::Read QueryEngine::read(vid_t s, vid_t t, int k) {
  Read r;
  check::MutexLock lock(dyn_mu_);
  r.epoch = mutation_epoch_.load(std::memory_order_relaxed);
  r.graph = graph_;
  r.gen = generation();
  if (cache_.byte_budget() == 0) return r;  // nothing is ever cached
  r.snap = cache_.get_snapshot(s, t, r.gen);
  if (k == 0) return r;
  if (r.snap && PEEK_FAULT_FIRE("serve.snapshot.corrupt")) {
    // Corruption probe: drop the hit and recompute; the fresh snapshot
    // replaces the doubted entry.
    PEEK_COUNT_INC("serve.cache.corruption_drops");
    r.snap = nullptr;
  }
  if (r.snap && r.snap->k_budget >= k) return r;
  if (repaired_epoch() < r.epoch) {
    auto it = stale_snaps_.find({s, t});
    if (it != stale_snaps_.end()) r.stale = it->second;
  }
  r.fwd = cache_.get_tree(ArtifactKind::kForwardTree, s, r.gen);
  r.rev = cache_.get_tree(ArtifactKind::kReverseTree, t, r.gen);
  return r;
}

bool QueryEngine::label(ServeResult& out, vid_t s, vid_t t,
                        const Provenance& p) {
  out.staleness = Staleness{};
  out.staleness.epoch = p.epoch;
  if (mutation_epoch() == p.epoch) return true;
  std::uint64_t now = 0;
  std::optional<weight_t> widen;
  {
    check::MutexLock lock(dyn_mu_);
    now = mutation_epoch_.load(std::memory_order_relaxed);
    if (p.snap != nullptr &&
        cache_.get_snapshot(s, t, generation()).get() == p.snap) {
      // Still the cached entry: every sweep since p.epoch restamped it, so
      // the answer is exact for `now` too.
      out.staleness.epoch = now;
      return true;
    }
    widen = batch_log_.bound(p.covered, now);
  }
  if (!widen) return false;
  out.staleness.stale = true;
  out.staleness.epochs_behind = now - p.epoch;
  out.staleness.weight_bound = p.bound + *widen;
  PEEK_COUNT_INC("serve.stale_answers");
  PEEK_GAUGE_SET("serve.staleness.epochs_behind",
                 static_cast<std::int64_t>(out.staleness.epochs_behind));
  return true;
}

bool QueryEngine::ensure_stream(PrunedSnapshot& snap, ServeResult& out,
                                const fault::CancelToken* cancel) {
  if (!snap.stream) {
    // Only a disk-restored snapshot parks here with paths still extendable;
    // a computed snapshot's stream lives until genuine exhaustion.
    if (!snap.graph) {
      snap.exhausted = true;  // negative answer: nothing to extend
      return false;
    }
    const vid_t cs = snap.map.to_new(snap.s), ct = snap.map.to_new(snap.t);
    if (cs == kNoVertex || ct == kNoVertex) {
      snap.exhausted = true;
      return false;
    }
    snap.graph->warm_reverse();
    if (snap.restored_has_rtree) {
      // Rebuild warm-started from the persisted reverse tree: deviations
      // replay with the exact tie-breaks of the original stream.
      snap.stream = std::make_unique<ksp::KspStream>(
          sssp::BiView::of(*snap.graph), cs, ct,
          std::move(snap.restored_rtree));
      snap.restored_has_rtree = false;
      snap.restored_rtree = {};
    } else {
      snap.stream = std::make_unique<ksp::KspStream>(
          sssp::BiView::of(*snap.graph), cs, ct);
    }
    PEEK_COUNT_INC("serve.stream_rebuilds");
  }
  // Fast-forward a rebuilt stream past the already-materialized paths.
  // Replayed paths are discarded — `paths` already holds them in original
  // ids — leaving the stream positioned to produce path |paths|+1 next.
  while (snap.stream->produced().size() < snap.paths.size()) {
    auto p = snap.stream->next(cancel);
    if (!p) {
      if (!snap.stream->exhausted()) {
        // Cancelled mid-fast-forward: the stream keeps its progress; a later
        // un-cancelled query resumes the replay from here.
        fault::CancelPoll poll(cancel, /*stride=*/1);
        out.status.code =
            poll.should_stop() ? poll.why() : fault::Status::kCancelled;
        return false;
      }
      // Replay dried up before reaching the persisted list. The persisted
      // paths remain the (complete) answer; nothing more can be extended.
      snap.exhausted = true;
      snap.stream.reset();
      return false;
    }
  }
  return true;
}

bool QueryEngine::serve_from_snapshot(PrunedSnapshot& snap, int k,
                                      ServeResult& out,
                                      const fault::CancelToken* cancel) {
  check::MutexLock lock(snap.mu);
  if (snap.restored) PEEK_COUNT_INC("serve.cache.restore_hits");
  if (static_cast<int>(snap.paths.size()) < k && !snap.exhausted) {
    if (snap.k_budget < k) return false;  // needs a wider pruning bound
    // Incremental K extension: pull only the missing paths from the live
    // stream (rebuilt + fast-forwarded first if this snapshot came from
    // disk). Exhaustion below the budget is definitive — when the pruned
    // graph runs out before k_budget, the bound was infinite (Lemma 4.2)
    // and the pruned graph holds every s->t path there is.
    if (ensure_stream(snap, out, cancel)) {
      while (static_cast<int>(snap.paths.size()) < k) {
        auto p = snap.stream ? snap.stream->next(cancel) : std::nullopt;
        if (!p) {
          if (snap.stream && !snap.stream->exhausted()) {
            // Cancelled mid-extension: the stream stays live (a later
            // un-cancelled query resumes it) and this query answers
            // partially.
            fault::CancelPoll poll(cancel, /*stride=*/1);
            out.status.code = poll.should_stop() ? poll.why()
                                                 : fault::Status::kCancelled;
            break;
          }
          snap.exhausted = true;
          snap.stream.reset();
          break;
        }
        to_original_ids(*p, snap.map);
        snap.paths.push_back(std::move(*p));
        out.extended = true;
        PEEK_COUNT_INC("serve.stream_extensions");
      }
    }
  }
  const size_t take = std::min<size_t>(static_cast<size_t>(k),
                                       snap.paths.size());
  out.paths.assign(snap.paths.begin(), snap.paths.begin() + take);
  out.upper_bound = snap.upper_bound;
  return true;
}

bool QueryEngine::serve_degraded(vid_t s, vid_t t, int k, ServeResult& out) {
  if (!opts_.degraded_serving) return false;
  const Read r = read(s, t, /*k=*/0);
  if (!r.snap) return false;
  {
    check::MutexLock lock(r.snap->mu);
    // Already-materialized paths only — a shed query must not touch the
    // graph. An exhausted snapshot's paths are complete, so even an empty
    // list is a definitive (unreachable) answer then.
    if (r.snap->paths.empty() && !r.snap->exhausted) return false;
    const size_t take = std::min<size_t>(static_cast<size_t>(k),
                                         r.snap->paths.size());
    out.paths.assign(r.snap->paths.begin(), r.snap->paths.begin() + take);
    out.upper_bound = r.snap->upper_bound;
  }
  if (!label(out, s, t, {r.epoch, r.epoch, 0, r.snap.get()})) {
    out.paths.clear();
    out.staleness = {};
    return false;
  }
  out.snapshot_hit = true;
  out.degraded = true;
  PEEK_COUNT_INC("serve.degraded");
  return true;
}

bool QueryEngine::check_args(vid_t s, vid_t t, int k, ServeResult& out) const {
  if (k > 0 && s >= 0 && s < n_ && t >= 0 && t < n_) return true;
  out.status = {fault::Status::kInvalidArgument,
                "query requires 0 <= s,t < n and k > 0"};
  PEEK_COUNT_INC("serve.invalid_arguments");
  return false;
}

ServeResult QueryEngine::query_cached_only(vid_t s, vid_t t, int k) {
  const auto t0 = std::chrono::steady_clock::now();
  ServeResult out;
  if (check_args(s, t, k, out) && !serve_degraded(s, t, k, out)) {
    // Honors ServeOptions::degraded_serving: disabled means no cached-only
    // answers, same as the shed path.
    out.status = {fault::Status::kOverloaded,
                  "no cached answer for degraded-only query"};
  }
  out.seconds = seconds_since(t0);
  return out;
}

std::shared_ptr<PrunedSnapshot> QueryEngine::compute_snapshot(
    const Read& r, vid_t s, vid_t t, int k_budget, ServeResult& out,
    const fault::CancelToken* cancel) {
  PEEK_TIMER_SCOPE("serve.compute");
  const graph::CsrGraph& g = *r.graph;
  std::shared_ptr<const sssp::SsspResult> fwd = r.fwd;
  std::shared_ptr<const sssp::SsspResult> rev = r.rev;
  // Corruption probes: a hit flagged corrupt is dropped on the floor and
  // recomputed — the fresh artifact overwrites the cache entry.
  if (fwd && PEEK_FAULT_FIRE("serve.tree.corrupt")) {
    fwd = nullptr;
    PEEK_COUNT_INC("serve.cache.corruption_drops");
  }
  if (rev && PEEK_FAULT_FIRE("serve.tree.corrupt")) {
    rev = nullptr;
    PEEK_COUNT_INC("serve.cache.corruption_drops");
  }
  if (fwd || rev) {
    // Warm-restart accounting: hits on trees that came from disk.
    check::MutexLock lock(restored_mu_);
    if (fwd && restored_trees_.count(
                   {static_cast<int>(ArtifactKind::kForwardTree), s}) > 0)
      PEEK_COUNT_INC("serve.cache.restore_hits");
    if (rev && restored_trees_.count(
                   {static_cast<int>(ArtifactKind::kReverseTree), t}) > 0)
      PEEK_COUNT_INC("serve.cache.restore_hits");
  }
  out.fwd_tree_hit = fwd != nullptr;
  out.rev_tree_hit = rev != nullptr;

  core::PruneOptions po;
  po.k = k_budget;
  po.parallel = opts_.peek.parallel;
  po.tight_edge_prune = opts_.peek.tight_edge_prune;
  po.reuse_from_source = fwd.get();
  po.cancel = cancel;
  core::PruneResult pruned = core::k_upper_bound_prune(g, s, t, po);
  if (pruned.status != fault::Status::kOk) {
    out.status = {pruned.status, "prune aborted"};
    return nullptr;  // partial artifacts are never cached
  }

  // Epoch-guarded: a tree computed against a superseded snapshot is simply
  // not cached (the answer itself is handled by the caller's epoch check).
  if (!fwd) {
    publish_tree(ArtifactKind::kForwardTree, s,
                 std::make_shared<sssp::SsspResult>(
                     std::move(pruned.from_source)),
                 r.gen, r.epoch);
  }
  if (!rev) {
    // The prune's reverse tree covers only about its kept set; the
    // live-mutation pair tests and cone repair need the full tree to t.
    sssp::DijkstraOptions dj;
    dj.cancel = cancel;
    sssp::SsspResult tree = sssp::reverse_dijkstra(g, t, dj);
    if (tree.status != fault::Status::kOk) {
      out.status = {tree.status, "reverse tree aborted"};
      return nullptr;
    }
    publish_tree(ArtifactKind::kReverseTree, t,
                 std::make_shared<sssp::SsspResult>(std::move(tree)),
                 r.gen, r.epoch);
  }

  // The snapshot is private until put_snapshot publishes it, but its
  // mu-guarded fields are initialized under the lock anyway: the annotations
  // hold unconditionally, and an uncontended lock is nanoseconds against the
  // pipeline that just ran.
  auto snap = std::make_shared<PrunedSnapshot>();
  snap->s = s;
  snap->t = t;
  snap->k_budget = k_budget;
  snap->upper_bound = pruned.upper_bound;
  if (pruned.kept_vertices == 0) {
    check::MutexLock lock(snap->mu);
    snap->exhausted = true;  // t unreachable: a cached negative answer
    return snap;
  }

  auto regen = compact::regenerate(
      sssp::GraphView(g), pruned.kept_list, pruned.edge_keep,
      {.parallel = opts_.peek.parallel, .cancel = cancel});
  if (regen.status != fault::Status::kOk) {
    out.status = {regen.status, "compaction aborted"};
    return nullptr;
  }
  const vid_t cs = regen.map.to_new(s), ct = regen.map.to_new(t);
  if (cs == kNoVertex || ct == kNoVertex) {  // defensive: s/t are kept
    check::MutexLock lock(snap->mu);
    snap->exhausted = true;
    return snap;
  }
  auto cg = std::make_shared<graph::CsrGraph>(std::move(regen.graph));
  cg->warm_reverse();  // the stream's reverse view, built once here

  // Recycle the pruning stage's reverse tree as the stream's warm-start
  // tree, translated into compacted ids — exactly as core::peek_ksp does.
  sssp::SsspResult rtree =
      core::compacted_reverse_tree(pruned.to_target, regen.map);

  snap->graph = cg;
  snap->map = std::move(regen.map);
  {
    check::MutexLock lock(snap->mu);
    snap->stream = std::make_unique<ksp::KspStream>(sssp::BiView::of(*cg), cs,
                                                    ct, std::move(rtree));
  }
  return snap;
}

ServeResult QueryEngine::query(vid_t s, vid_t t, int k,
                               const QueryOptions& qopts) {
  const auto t0 = std::chrono::steady_clock::now();
  ServeResult out;
  PEEK_COUNT_INC("serve.queries");
  PEEK_TIMER_SCOPE("serve.query");
  if (!check_args(s, t, k, out)) {
    out.seconds = seconds_since(t0);
    return out;
  }

  // Per-query deadline (query's own, else the engine default), combined with
  // the caller's token: either trip cancels the whole pipeline mid-flight.
  fault::CancelToken deadline_token;
  const fault::CancelToken* cancel =
      qopts.cancel != nullptr && qopts.cancel->valid() ? qopts.cancel : nullptr;
  const auto budget =
      qopts.deadline.count() > 0 ? qopts.deadline : opts_.default_deadline;
  if (budget.count() > 0) {
    deadline_token = cancel != nullptr
                         ? fault::CancelToken::linked(*cancel, budget)
                         : fault::CancelToken::after(budget);
    cancel = &deadline_token;
  }

  // Admission control: bounded in-flight occupancy with load shedding. The
  // slot is RAII-released on every exit path below.
  struct Slot {
    std::atomic<int>* counter = nullptr;
    ~Slot() {
      if (counter) counter->fetch_sub(1, std::memory_order_acq_rel);
    }
  } slot;
  if (opts_.max_inflight > 0) {
    bool admitted = false;
    int cur = admitted_.load(std::memory_order_relaxed);
    while (cur < opts_.max_inflight) {
      if (admitted_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      PEEK_COUNT_INC("serve.shed");
      if (!serve_degraded(s, t, k, out)) {
        out.status = {fault::Status::kOverloaded,
                      "in-flight limit reached and no cached answer"};
      }
      out.seconds = seconds_since(t0);
      return out;
    }
    slot.counter = &admitted_;
  }

  const bool uncached = cache_.byte_budget() == 0;
  const std::pair<vid_t, vid_t> key{s, t};
  std::shared_ptr<const graph::CsrGraph> g;  // the last pass's graph
  bool reread = false;  // a pass started over for a snapshot it just missed
  for (int retries = 0;;) {
    // One pass: one read, one answer, one label. A pass that waited on a
    // coalesced owner, lost its compute to invalidate(), or got no bound
    // from the label starts over with a fresh read.
    const Read r = read(s, t, k);
    PEEK_FAULT_STALL("serve.query.stall");
    g = r.graph;
    out.staleness.epoch = r.epoch;  // label() refines it for every answer
    Provenance p{r.epoch, r.epoch, 0, nullptr};

    if (uncached) {
      // Memory-pressure degradation: plain uncached PeeK at exactly K.
      core::PeekOptions po = opts_.peek;
      po.k = k;
      po.cancel = cancel;
      auto res = core::peek_ksp(*r.graph, s, t, po);
      out.paths = std::move(res.ksp.paths);
      out.upper_bound = res.upper_bound;
      out.status.code = res.status;
      out.uncached = true;
    } else if (r.snap && serve_from_snapshot(*r.snap, k, out, cancel)) {
      out.snapshot_hit = true;
      p.snap = r.snap.get();
      PEEK_COUNT_INC("serve.snapshot_hits");
    } else if (r.stale.snap &&
               serve_from_snapshot(*r.stale.snap, k, out, cancel)) {
      // Bounded-staleness serving: the pair's snapshot was displaced by a
      // reweight-affected batch and its repair is still in flight — answer
      // from the pre-batch snapshot rather than block on a fresh compute.
      out.snapshot_hit = true;
      p = {r.stale.epoch, r.stale.epoch + 1, r.stale.bound, nullptr};
    } else {
      // A miss, or a cached snapshot whose budget is too small for K: the
      // compute below replaces it with a wider one.
      {
        // Don't claim (or wait for) work with a tripped token.
        fault::CancelPoll poll(cancel, /*stride=*/1);
        if (poll.should_stop()) {
          out.status.code = poll.why();
          break;
        }
      }

      // Coalesce with an identical in-flight computation, or claim ownership
      // of this (s, t). An owner publishes its snapshot before it erases its
      // entry, so with no entry left the snapshot may have landed after this
      // pass's read: once per query, such a pass starts over and hits
      // instead of computing it again.
      std::shared_ptr<Inflight> inf;
      bool owner = false;
      bool published_since_read = false;
      {
        check::MutexLock lock(inflight_mu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
          inf = it->second;
        } else if (!reread) {
          const auto snap = cache_.peek_snapshot(s, t, r.gen);
          published_since_read = snap != nullptr && snap->k_budget >= k;
        }
        if (!inf && !published_since_read) {
          inf = std::make_shared<Inflight>();
          inf->k_budget = budget_for(k);
          // Abortable by invalidate() without touching the caller's token.
          inf->abort = cancel != nullptr ? fault::CancelToken::linked(*cancel)
                                         : fault::CancelToken::cancellable();
          inflight_[key] = inf;
          owner = true;
        }
      }
      if (published_since_read) {
        reread = true;
        continue;
      }

      if (!owner) {
        bool published = false;
        bool retry = false;
        // Copied out under the lock: the owner publishes snap and done
        // together, and reading snap after the scope would be an unlocked
        // access to guarded state.
        std::shared_ptr<PrunedSnapshot> published_snap;
        {
          check::UniqueLock lock(inf->mu);
          for (;;) {
            if (inf->done) {
              published = true;
              published_snap = inf->snap;
              break;
            }
            if (inf->invalidated) {
              // The generation moved under this entry: the owner is being
              // aborted, so retry against the new generation instead of
              // waiting for (and serving) its doomed snapshot.
              retry = true;
              break;
            }
            if (cancel != nullptr) {
              fault::CancelPoll poll(cancel, /*stride=*/1);
              if (poll.should_stop()) {
                out.status.code = poll.why();
                break;
              }
              // Bounded waits so a tripped deadline (or parent cancel) is
              // noticed without the owner having to finish first.
              if (auto dl = cancel->deadline()) {
                inf->cv.wait_until(lock, *dl);
              } else {
                inf->cv.wait_for(lock, std::chrono::milliseconds(5));
              }
            } else {
              inf->cv.wait(lock);
            }
          }
        }
        if (retry) {
          PEEK_COUNT_INC("serve.coalesce_retries");
          continue;
        }
        if (!published) break;  // cancelled while coalesced; status set
        out.coalesced = true;
        PEEK_COUNT_INC("serve.coalesced_waits");
        // A dynamic graph's engine revalidates through the cache: the next
        // pass reads the owner's entry, or what a batch left of it. A static
        // engine serves the owner's snapshot, exact for epoch 0.
        if (dyn_graph_ != nullptr || !published_snap ||
            !serve_from_snapshot(*published_snap, k, out, cancel)) {
          continue;  // or the owner failed, or its budget was too small
        }
      } else {
        PEEK_COUNT_INC("serve.snapshot_misses");
        std::shared_ptr<PrunedSnapshot> snap;
        try {
          snap = compute_snapshot(r, s, t, inf->k_budget, out, &inf->abort);
        } catch (const std::bad_alloc& e) {
          // Real or injected allocation failure outside the hardened kernels
          // (e.g. while copying a tree into the cache).
          out.status = {fault::Status::kResourceExhausted, e.what()};
        } catch (const std::exception& e) {
          out.status = {fault::Status::kInternal, e.what()};
        }
        if (snap) {
          serve_from_snapshot(*snap, k, out, cancel);
          if (!publish_snapshot(s, t, snap, r.gen, r.epoch, out)) {
            PEEK_COUNT_INC("serve.epoch_races");  // a batch landed mid-compute
          }
          p.snap = snap.get();
        }
        // Publish (null on failure: waiters retry on their own token) and
        // always release the key — cancelled or not, no in-flight entry may
        // leak.
        {
          check::MutexLock lock(inflight_mu_);
          inflight_.erase(key);
        }
        bool was_invalidated = false;
        {
          check::MutexLock lock(inf->mu);
          was_invalidated = inf->invalidated;
          inf->snap = snap;
          inf->done = true;
        }
        inf->cv.notify_all();
        if (!snap) {
          // invalidate() aborted this compute mid-flight: unless the
          // caller's own token also tripped, retry against the new
          // generation. Otherwise out.status says why it failed.
          fault::CancelPoll poll(cancel, /*stride=*/1);
          if (!was_invalidated || poll.should_stop()) break;
          out = ServeResult{};
          continue;
        }
      }
    }
    if (label(out, s, t, p)) break;
    if (++retries > kMaxEpochRetries) {
      out.paths.clear();
      out.status = {fault::Status::kOverloaded,
                    "mutation storm outran the query"};
      break;
    }
    out = ServeResult{};
  }

  if (uncached) PEEK_COUNT_INC("serve.uncached_fallbacks");
  if (out.status.code == fault::Status::kDeadlineExceeded) {
    PEEK_COUNT_INC("serve.deadline_exceeded");
  }
  certify_result(*g, s, t, out);
  out.seconds = seconds_since(t0);
  return out;
}

void QueryEngine::certify_result(const graph::CsrGraph& g, vid_t s, vid_t t,
                                 ServeResult& out) {
  // Stale answers are exact for an earlier epoch, not for `g` — certifying
  // them against the post-mutation weights would reject correct answers.
  if (!opts_.certify || out.status.code != fault::Status::kOk ||
      out.degraded || out.staleness.stale) {
    return;
  }
  PEEK_COUNT_INC("serve.certify.checks");
  check::CertifyOptions co;
  co.upper_bound = out.upper_bound;
  fault::Status cert = check::certify_paths(g, s, t, out.paths, co);
  if (!cert.ok()) {
    PEEK_COUNT_INC("serve.certify.failures");
    out.certificate_failed = true;
    out.status = {fault::Status::kInternal,
                  "answer failed certification: " + cert.message};
  }
}

void QueryEngine::restore_from_dir() {
  PEEK_TIMER_SCOPE("serve.warm_restart");
  auto g = active_graph();
  const std::uint64_t fp = recover::graph_fingerprint(*g);
  const std::uint64_t gen = generation();
  for (recover::LoadedFile& f : recovery_->scan()) {
    fault::Status st;
    if (f.snap.kind == recover::kSsspTree) {
      recover::TreeArtifact a;
      st = recover::decode_tree(f.snap, a);
      if (st.ok()) {
        // Fingerprint mismatch = a snapshot of some other graph (stale,
        // e.g. the graph was regenerated between runs). Not corruption:
        // skip it, leave the file for whoever owns it.
        if (a.fingerprint != fp ||
            a.tree.dist.size() != static_cast<size_t>(g->num_vertices()))
          continue;
        const ArtifactKind kind = a.reverse ? ArtifactKind::kReverseTree
                                            : ArtifactKind::kForwardTree;
        const vid_t root = a.root;
        if (cache_.put_tree(kind, root,
                            std::make_shared<sssp::SsspResult>(
                                std::move(a.tree)),
                            gen)) {
          check::MutexLock lock(restored_mu_);
          restored_trees_.insert({static_cast<int>(kind), root});
          ++restored_artifacts_;
        }
        continue;
      }
    } else if (f.snap.kind == recover::kPrunedSnapshot) {
      recover::PrunedSnapshotArtifact a;
      st = recover::decode_pruned_snapshot(f.snap, a);
      if (st.ok()) {
        if (a.fingerprint != fp || a.s >= g->num_vertices() ||
            a.t >= g->num_vertices())
          continue;
        if (a.reachable &&
            a.map.old_to_new.size() != static_cast<size_t>(g->num_vertices()))
          continue;
        auto snap = std::make_shared<PrunedSnapshot>();
        snap->s = a.s;
        snap->t = a.t;
        snap->k_budget = a.k_budget;
        snap->upper_bound = a.upper_bound;
        snap->restored = true;
        {
          // Private until put_snapshot publishes it; guarded fields are
          // still initialized under the (uncontended) lock so the
          // annotations hold unconditionally.
          check::MutexLock lock(snap->mu);
          snap->exhausted = a.exhausted;
          snap->paths = std::move(a.paths);
          if (a.reachable && a.has_rtree) {
            snap->restored_has_rtree = true;
            snap->restored_rtree = std::move(a.rtree);
          }
        }
        if (a.reachable) {
          snap->graph = std::make_shared<graph::CsrGraph>(std::move(a.graph));
          snap->map = std::move(a.map);
        }
        if (cache_.put_snapshot(snap->s, snap->t, snap, gen))
          ++restored_artifacts_;
        continue;
      }
    } else {
      // Unknown payload kind — possibly a newer writer or another
      // subsystem's file (e.g. a dist checkpoint). Not ours to judge.
      continue;
    }
    // Checksums passed but the decode rejected the contents: the writer was
    // broken or the corruption was crafted — quarantine with the typed why.
    // A failed quarantine (e.g. read-only dir) leaves the bad file in place;
    // it is counted and re-skipped on the next restart, never re-served.
    if (!recover::quarantine_file(f.path, st).ok()) {
      PEEK_COUNT_INC("recover.quarantine_failures");
    }
  }
}

int QueryEngine::persist() {
  if (!recovery_) return 0;
  PEEK_TIMER_SCOPE("serve.persist");
  if (!recovery_->ensure_dir().ok()) {
    // No directory, no files: every publish below would fail the same way.
    PEEK_COUNT_INC("recover.ensure_dir_failures");
    return 0;
  }
  auto g = active_graph();
  const std::uint64_t fp = recover::graph_fingerprint(*g);
  const std::uint64_t gen = generation();
  int written = 0;
  auto publish = [&](const std::string& name,
                     const std::vector<std::byte>& image) {
    const fault::Status st = recover::write_file_atomic(
        recovery_->path_for(name), image.data(), image.size());
    if (st.ok()) ++written;
  };
  // Snapshot the artifacts under the cache locks, encode + write after:
  // write_file_atomic fsyncs, and a shard lock held across an fsync would
  // stall every concurrent query hashing into that shard.
  std::vector<recover::TreeArtifact> trees;
  std::vector<recover::PrunedSnapshotArtifact> snaps;
  cache_.for_each_tree([&](ArtifactKind kind, vid_t v,
                           const std::shared_ptr<const sssp::SsspResult>& tree,
                           std::uint64_t tgen) {
    if (tgen != gen) return;  // stale generation: useless after restart
    recover::TreeArtifact a;
    a.fingerprint = fp;
    a.root = v;
    a.reverse = kind == ArtifactKind::kReverseTree;
    a.tree = *tree;
    trees.push_back(std::move(a));
  });
  cache_.for_each_snapshot([&](vid_t, vid_t,
                               const std::shared_ptr<PrunedSnapshot>& snap,
                               std::uint64_t sgen) {
    if (sgen != gen) return;
    recover::PrunedSnapshotArtifact a;
    a.fingerprint = fp;
    {
      check::MutexLock lock(snap->mu);
      a.s = snap->s;
      a.t = snap->t;
      a.k_budget = snap->k_budget;
      a.upper_bound = snap->upper_bound;
      a.exhausted = snap->exhausted;
      a.reachable = snap->graph != nullptr;
      if (snap->graph) {
        a.graph = *snap->graph;
        a.map = snap->map;
        if (snap->stream && snap->stream->has_reverse_tree()) {
          a.has_rtree = true;
          a.rtree = snap->stream->reverse_tree();
        } else if (snap->restored_has_rtree) {
          // Restored but never extended: pass the persisted tree through
          // unchanged so the next restart keeps the exact tie-breaks.
          a.has_rtree = true;
          a.rtree = snap->restored_rtree;
        }
      }
      a.paths = snap->paths;
    }
    snaps.push_back(std::move(a));
  });
  for (const recover::TreeArtifact& a : trees) {
    publish(std::string("tree_") + (a.reverse ? "r" : "f") + "_" +
                std::to_string(a.root) + ".snap",
            recover::encode_tree(a));
  }
  for (const recover::PrunedSnapshotArtifact& a : snaps) {
    publish("snap_" + std::to_string(a.s) + "_" + std::to_string(a.t) +
                ".snap",
            recover::encode_pruned_snapshot(a));
  }
  return written;
}

}  // namespace peek::serve
