// Query-serving layer: concurrent (s, t, K) admission on top of core/peek,
// amortizing PeeK's per-query artifacts across queries via the ArtifactCache.
//
// Per query, in order of decreasing savings:
//   1. Snapshot hit  — a cached pruned-and-compacted (s, t) state answers
//      K <= its budget with zero graph work: K paths already produced is a
//      pure lookup; otherwise the snapshot's live KspStream (incremental
//      OptYen, ksp/stream.hpp) pulls just the missing paths.
//   2. Tree hit      — the §4.1 forward tree (keyed on s) skips the
//      full-graph SSSP inside pruning, which dominates PeeK's runtime. A
//      cached forward tree carries distances only: the prune's own
//      (PruneResult::from_source), whose parents nothing reads — the prune
//      resolves the ones it walks, the pair tests read distances, and cone
//      repair only copies survivors' parents. The prune's reverse half is
//      always core::k_upper_bound_prune's own bounded search, so a miss, cold
//      or with the forward tree cached, prunes exactly as core::peek_ksp
//      does. Full reverse trees (keyed on t) are still computed on a miss and
//      cached, for the live-mutation pipeline's pair tests and cone repair;
//      a hit skips that.
//   3. Coalescing    — duplicate in-flight (s, t) queries block on the first
//      computation instead of repeating it (the thundering-herd guard).
//   4. Full compute  — prune with an over-provisioned K budget (so nearby
//      future Ks stay lookups), regeneration-compact, stream the paths.
//
// Snapshots are always regeneration-compacted (§5.3): of the three §5
// strategies it is the only one that yields a self-owned subgraph, which a
// cache entry must be — the other two alias the query-time graph. Pruning
// with budget B is sound for every K <= B (Theorem 4.3 with the larger
// bound b_B >= b_K), so one cached K = 32 run serves K ∈ [1, 32] exactly.
//
// Mutability: an engine over a dyn::DynamicGraph runs the live-mutation
// pipeline (DESIGN.md §15); an engine over a static CSR runs the same code at
// mutation epoch 0. Batches arrive through apply_batch()/note_batch(), which
// compute each cached artifact's affected region (dyn/update_batch.hpp), keep
// provably-unaffected entries valid via per-artifact region stamps, queue
// cone repairs of affected SSSP trees on a background thread
// (dyn/repair.hpp), and park reweight-affected snapshots in a stale side
// table that serves bounded-staleness answers while the repair is in flight.
// Each pass of a query reads the epoch, its graph and the cache entries it
// serves from in one dyn_mu_ hold, so its answer is exact for a known epoch;
// one label then turns that epoch into ServeResult::staleness (the content
// epoch, epochs behind, and a per-rank weight error bound from the batch
// log), or retries the pass.
//
// Degradation: with a zero cache budget every query runs plain peek_ksp;
// artifacts larger than a cache shard are served but not retained.
//
// Scale-out: one engine is one process's worth of caches. shard::ShardFleet
// (DESIGN.md §12) replicates whole engines behind a consistent-hash router;
// query_cached_only below is the zero-graph-work probe its degraded
// fallback uses against surviving replicas.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/thread_safety.hpp"
#include "core/peek.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/repair.hpp"
#include "dyn/update_batch.hpp"
#include "fault/injector.hpp"
#include "recover/manager.hpp"
#include "serve/artifact_cache.hpp"

namespace peek::serve {

struct ServeOptions {
  /// Base pipeline configuration for cache misses. `k` and `compaction` are
  /// managed per query by the engine (see header comment); `parallel` makes
  /// a miss's prune (its Δ-stepping forward SSSP on every worker) and
  /// regeneration parallel, and alpha and tight_edge_prune apply as in
  /// core::peek_ksp. The full reverse tree a miss caches and the served KSP
  /// streams are serial either way.
  core::PeekOptions peek;
  ArtifactCache::Options cache;
  /// A miss for K prunes with max(K, k_budget_floor) rounded up to a power
  /// of two, so the snapshot serves larger follow-up Ks without re-pruning.
  int k_budget_floor = 32;
  /// Deadline applied to queries that do not pass their own (<=0 = none).
  /// A tripped deadline returns Status::kDeadlineExceeded with the best
  /// <=K paths accepted before the trip.
  std::chrono::milliseconds default_deadline{0};
  /// Admission control: at most this many queries inside query() at once
  /// (<=0 = unbounded). Queries beyond the bound are shed: answered from
  /// already-materialized cached paths in degraded mode when possible,
  /// otherwise rejected with Status::kOverloaded. Zero graph work either way.
  int max_inflight = 0;
  /// Allow shed queries to fall back to degraded cached answers (possibly
  /// fewer than K paths). Off = always Status::kOverloaded when shedding.
  bool degraded_serving = true;
  /// When set, the constructor installs this fault-injection configuration
  /// into fault::Injector::global() (tests/CI; see DESIGN.md §9).
  std::optional<fault::InjectorConfig> injector;
  /// Crash-safe persistence (DESIGN.md §10): when non-empty, persist()
  /// spills cached artifacts here as checksummed v2 snapshots, and the
  /// constructor warm-restarts from them (validate / quarantine / decode /
  /// re-insert) so the first queries hit restored artifacts instead of
  /// recomputing. Empty = no persistence.
  std::string snapshot_dir;
  /// Restore from snapshot_dir at construction. Off = write-only (persist()
  /// still works; existing snapshots are ignored, not deleted).
  bool warm_restart = true;
  /// Certify every non-degraded kOk answer against the CSR before returning
  /// it (check/certify.hpp: simple, edge-consistent, nondecreasing, within
  /// the prune bound — O(K·len)). A failed certificate turns the result
  /// into Status::kInternal with ServeResult::certificate_failed set; the
  /// sharded fleet treats that as replica corruption (DESIGN.md §14).
  bool certify = false;
};

/// Per-query knobs of QueryEngine::query.
struct QueryOptions {
  /// This query's deadline (<=0 = ServeOptions::default_deadline).
  std::chrono::milliseconds deadline{0};
  /// Caller-owned cancellation handle, combined with the deadline. Must
  /// outlive the query() call. Null = deadline only.
  const fault::CancelToken* cancel = nullptr;
};

/// Bounded-staleness provenance of a served answer (DESIGN.md §15). A stale
/// answer is the exact top-K of the graph as of mutation epoch `epoch`,
/// served `epochs_behind` batches later because the post-mutation artifacts
/// were still being repaired. All intervening batches were reweight-only, so
/// path identities are unchanged and every true rank-i weight at the current
/// epoch is within `weight_bound` of the served rank-i weight (the sum of
/// |Δw| over the intervening batches — a per-path bound, hence a per-rank
/// one). Structurally-affected snapshots are never stale-served: they are
/// recomputed fresh against the post-mutation graph.
struct Staleness {
  bool stale = false;
  /// Mutation epoch the served paths are exact for, stamped on every answer,
  /// stale, degraded or not (epochs_behind is 0 and the bound exact for fresh
  /// ones; always 0 on a static engine) — `epoch + epochs_behind` is the
  /// engine's mutation epoch at serve time, which the sharded fleet's epoch
  /// fencing compares against the fleet-wide fence (DESIGN.md §15).
  std::uint64_t epoch = 0;
  /// Engine mutation epoch at serve time minus `epoch`.
  std::uint64_t epochs_behind = 0;
  /// Two-sided per-rank weight error bound vs. epoch `epoch + epochs_behind`.
  weight_t weight_bound = 0;
};

/// One served query: the paths plus where the work was (not) spent.
struct ServeResult {
  std::vector<sssp::Path> paths;  // original ids, sorted (dist, then lex)
  weight_t upper_bound = kInfDist;  // pruning bound of the answering snapshot
  /// kOk, or the typed reason the query came back short: kInvalidArgument
  /// (bad s/t/k), kOverloaded (shed, no degraded answer), kDeadlineExceeded /
  /// kCancelled (partial: `paths` holds the exact top-J accepted in time),
  /// kResourceExhausted (allocation failure, real or injected), kInternal.
  fault::Status status;
  bool snapshot_hit = false;  // answered from a cached (s, t) snapshot
  bool extended = false;      // the snapshot's stream pulled extra paths
  bool coalesced = false;     // waited on an identical in-flight query
  bool fwd_tree_hit = false;  // pruning reused the cached forward tree
  bool rev_tree_hit = false;  // the reverse tree was cached: not recomputed
  bool uncached = false;      // served via plain PeeK (budget 0 / oversize)
  bool degraded = false;      // shed query answered from cached paths only
  /// ServeOptions::certify rejected the answer (status is kInternal): the
  /// paths failed the §14 certificate and must not be served.
  bool certificate_failed = false;
  /// Bounded-staleness provenance (stale is false for every exact answer).
  Staleness staleness;
  double seconds = 0;         // wall time of this query() call
};

/// Thread-safe serving facade. The underlying graph must outlive the engine;
/// `query()` may be called concurrently from any number of threads.
class QueryEngine {
 public:
  explicit QueryEngine(const graph::CsrGraph& g, const ServeOptions& opts = {});
  /// Serve a dynamic graph through the live-mutation pipeline. The engine
  /// snapshots `dg` here; from then on every edit must reach it as a batch
  /// (note_batch(dyn::apply(dg, batch)), or apply_batch() on the mutable
  /// overload) — the engine never reads `dg` behind a batch.
  explicit QueryEngine(const dyn::DynamicGraph& dg,
                       const ServeOptions& opts = {});
  /// Mutable-graph overload: additionally enables apply_batch() (the engine
  /// owns mutation ordering); note_batch() works with either constructor.
  explicit QueryEngine(dyn::DynamicGraph& dg, const ServeOptions& opts = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The K shortest simple paths from s to t. They are vertex-identical to
  /// core::peek_ksp(g, s, t, {.k = k, .compaction = kRegeneration, ...})
  /// whenever the snapshot answering them was pruned with a budget of
  /// exactly k (a miss prunes with max(k, k_budget_floor) rounded up to a
  /// power of two): both run the same prune, the same regeneration and the
  /// same OptYen stream warm-started from the same reverse tree. Otherwise
  /// they have peek_ksp's distances, and its paths unless two path lengths
  /// tie; under ties the answer can even depend on the cache history (K=16
  /// cut from a K=64 snapshot may differ from a fresh engine's K=16).
  /// tests/test_serve.cpp checks both. Never throws for admission,
  /// deadline, or injected-fault reasons: every such outcome is a typed
  /// ServeResult::status.
  ServeResult query(vid_t s, vid_t t, int k, const QueryOptions& qopts = {});

  /// Degraded-only lookup: answers from already-materialized cached paths
  /// with zero graph work (the shed-path logic, callable directly). Returns
  /// kOk with ServeResult::degraded set — possibly fewer than k paths, but
  /// always an exact prefix of the answer at its stamped content epoch — or
  /// kOverloaded when nothing usable is cached. The sharded serving tier
  /// uses this to probe surviving replicas' caches when a query's home shard
  /// is down.
  ServeResult query_cached_only(vid_t s, vid_t t, int k);

  /// Manual cache invalidation (e.g. dropping suspect caches): bumps the
  /// generation so every cached artifact becomes stale, and unpins the
  /// coalescing map — stale in-flight owners are cancelled (via their
  /// per-entry abort token) and their waiters woken so both retry against
  /// the new generation instead of serving a pre-invalidation snapshot.
  void invalidate();

  // -- Live-mutation pipeline (DESIGN.md §15) --------------------------------

  /// Applies `batch` to the engine's mutable DynamicGraph (mutable-graph
  /// constructor required) and adopts it via note_batch(). Returns the
  /// applied record, epoch-stamped; a no-op record when the engine has no
  /// mutable graph.
  dyn::AppliedBatch apply_batch(const dyn::UpdateBatch& batch);

  /// Adopts an already-applied batch (fleet delivery path): swaps in the
  /// patched post-mutation CSR, sweeps the artifact cache — provably
  /// unaffected entries are restamped to the new epoch, affected trees
  /// become background cone-repair jobs, reweight-affected snapshots move
  /// to the bounded-staleness side table, structurally-affected snapshots
  /// are dropped — and wakes the repair thread. `batch.epoch` of 0 means
  /// "next local epoch"; nonzero adopts the caller's (fleet fence) epoch.
  /// `post`, when provided, is the post-mutation CSR to swap in — the fleet
  /// builds it once under its fence lock and fans it out, so replica engines
  /// never read the shared DynamicGraph concurrently with a later mutation.
  /// Null = derive locally from the current snapshot (standalone engines,
  /// where apply_batch serializes mutation and adoption under dyn_mu_).
  /// No-op on a static-graph engine, which stays at epoch 0.
  void note_batch(const dyn::AppliedBatch& batch,
                  std::shared_ptr<const graph::CsrGraph> post = nullptr);

  /// Mutation epochs: batches adopted vs. batches whose repairs completed.
  /// repaired < mutation means a repair is in flight (stale serving window).
  std::uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }
  std::uint64_t repaired_epoch() const {
    return repaired_epoch_.load(std::memory_order_acquire);
  }

  /// Blocks until every queued repair completed (tests / orderly shutdown).
  void drain_repairs();

  /// Fleet healing hook: a freshly constructed replacement engine snapshots
  /// the current graph, so its content is already at fence epoch `epoch` —
  /// this aligns its counters without queueing repairs.
  void reset_epoch(std::uint64_t epoch);

  /// Bounded-staleness side-table occupancy (test hook).
  std::size_t stale_entries();

  /// Spills every current-generation cached artifact (SSSP trees, pruned
  /// snapshots) into ServeOptions::snapshot_dir as checksummed v2 snapshot
  /// files, each published atomically (tmp + fsync + rename). Artifacts from
  /// older generations are skipped — they would be stale on restore anyway.
  /// Returns the number of files written; write failures are counted in
  /// recover.write_failures and do not abort the sweep. No-op (returns 0)
  /// without a snapshot_dir.
  int persist();

  /// Files restored into the cache by the constructor's warm restart.
  int restored_artifacts() const { return restored_artifacts_; }

  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  ArtifactCache& cache() { return cache_; }
  const ServeOptions& options() const { return opts_; }

  /// Coalescing-map entries currently claimed (test hook: must drain to zero
  /// once no query() is running, cancelled or not).
  size_t inflight_entries();
  /// Queries currently inside query() (admission-control occupancy).
  int admitted_now() const {
    return admitted_.load(std::memory_order_relaxed);
  }

 private:
  struct Inflight {
    check::Mutex mu;
    check::CondVar cv;
    bool done PEEK_GUARDED_BY(mu) = false;
    /// invalidate() happened while this entry was pinned: the owner's
    /// compute is doomed (its generation is stale), so waiters stop waiting
    /// and retry, and the owner retries instead of publishing.
    bool invalidated PEEK_GUARDED_BY(mu) = false;
    /// Written by the owner before the entry is published under
    /// inflight_mu_, immutable afterwards — hence not guarded by mu.
    int k_budget = 0;
    /// Owner's cancellation handle: a child of the owner's caller token (or
    /// standalone), so invalidate() can abort the stale compute without
    /// touching the caller's token. Set before publication, immutable after
    /// (cancel() is thread-safe on the handle).
    fault::CancelToken abort;
    /// Published result (null when the owner failed or was cancelled).
    std::shared_ptr<PrunedSnapshot> snap PEEK_GUARDED_BY(mu);
  };

  /// A snapshot displaced by a reweight-affected batch, admissible for
  /// bounded-stale serving while the batch log can widen it to the current
  /// epoch (adopt_batch drops it once it cannot).
  struct StaleEntry {
    std::shared_ptr<PrunedSnapshot> snap;
    std::uint64_t epoch = 0;  // the epoch the content is exact for
    /// The pair test's bound for batch epoch + 1, which can be finer than
    /// that batch's log record (a structural op that misses the pair).
    weight_t bound = 0;
  };

  /// The one read: everything one pass of query() or serve_degraded() uses,
  /// taken in one dyn_mu_ hold. adopt_batch swaps the graph, stores the
  /// epoch and sweeps the cache in one hold too, so all of it is exact for
  /// `epoch`.
  struct Read {
    std::uint64_t epoch = 0;
    std::uint64_t gen = 0;
    std::shared_ptr<const graph::CsrGraph> graph;  // the graph of `epoch`
    std::shared_ptr<PrunedSnapshot> snap;          // the cached (s, t) entry
    /// Read only when `snap` cannot serve K: the pair's stale-table entry
    /// (while a repair is in flight) and the trees a miss prunes with.
    StaleEntry stale;
    std::shared_ptr<const sssp::SsspResult> fwd, rev;
  };

  /// What the one label needs to know about an answer: the epoch its paths
  /// are exact for, the error bound already known through epoch `covered`
  /// (a stale entry's pair test; 0 otherwise), and the snapshot it came
  /// from, if that may still be the cached entry.
  struct Provenance {
    std::uint64_t epoch = 0;
    std::uint64_t covered = 0;
    weight_t bound = 0;
    const PrunedSnapshot* snap = nullptr;
  };

  /// Pending background repair work, coalesced across batches: a second
  /// batch landing before the repair runs min-composes each job's cone
  /// threshold (sound: cone thresholds against the same base tree compose
  /// by taking the minimum) and retargets the post graph/epoch.
  struct RepairTask {
    std::uint64_t epoch = 0;
    std::shared_ptr<const graph::CsrGraph> post;
    std::vector<dyn::RepairJob> jobs;
    /// Cache keys parallel to `jobs` (kind + root) for re-insertion.
    std::vector<std::pair<ArtifactKind, vid_t>> keys;
  };

  /// Shared body of the public constructors: `g` is the graph to serve
  /// (a non-owning alias of a static CSR, or a dynamic graph's snapshot,
  /// taken before warm restart reads it); `dg` is null for a static CSR.
  QueryEngine(std::shared_ptr<const graph::CsrGraph> g,
              const dyn::DynamicGraph* dg, const ServeOptions& opts);

  /// graph_, read under dyn_mu_ (persistence; queries use read()).
  std::shared_ptr<const graph::CsrGraph> active_graph();
  /// False, with out.status kInvalidArgument, unless 0 <= s, t < n, k > 0.
  bool check_args(vid_t s, vid_t t, int k, ServeResult& out) const;
  /// The one read for (s, t). `k` = 0 reads the cached snapshot only (the
  /// degraded lookup); otherwise, when no cached snapshot's budget covers
  /// `k`, also the stale entry and the trees.
  Read read(vid_t s, vid_t t, int k);
  /// The one label (DESIGN.md §15): stamps out.staleness for an answer with
  /// provenance `p`. Fresh when the engine is still at p.epoch, or when
  /// p.snap is still the cached (s, t) entry; else widened through the batch
  /// log (serve.stale_answers). False when the log has no bound: the caller
  /// retries, or drops a degraded answer.
  bool label(ServeResult& out, vid_t s, vid_t t, const Provenance& p);
  /// Full pipeline on a miss: prunes r.graph with the trees in `r`; fills
  /// the tree-hit flags of `out`. Returns null with out.status set when the
  /// pipeline was cancelled or failed — such partial artifacts are never
  /// cached.
  std::shared_ptr<PrunedSnapshot> compute_snapshot(
      const Read& r, vid_t s, vid_t t, int k_budget, ServeResult& out,
      const fault::CancelToken* cancel);
  /// Serves `k` paths out of `snap` (extending its stream if needed); false
  /// when the snapshot's budget is too small for `k` (caller recomputes).
  /// A tripped `cancel` returns true with the paths materialized so far and
  /// out.status set — the snapshot stays valid and un-exhausted.
  bool serve_from_snapshot(PrunedSnapshot& snap, int k, ServeResult& out,
                           const fault::CancelToken* cancel);
  /// Pre-extension stream check: rebuilds a restored snapshot's stream
  /// (warm-started from its persisted reverse tree when present) and
  /// fast-forwards it past the already-materialized paths so the next
  /// next() yields path |paths|+1. False when extension cannot proceed:
  /// snapshot exhausted, or `cancel` tripped mid-fast-forward (out.status
  /// set; a later query resumes where this one stopped).
  bool ensure_stream(PrunedSnapshot& snap, ServeResult& out,
                     const fault::CancelToken* cancel)
      PEEK_REQUIRES(snap.mu);
  /// Warm restart: scan + validate snapshot_dir, decode artifacts whose
  /// graph fingerprint matches, insert them into the cache. Quarantines
  /// files that pass checksums but fail semantic decode.
  void restore_from_dir();
  /// Shed-path degraded answer: cached already-produced paths only, no graph
  /// work, labelled like any other answer. False when nothing usable is
  /// cached, or the label has no bound for it (dropped, never retried).
  bool serve_degraded(vid_t s, vid_t t, int k, ServeResult& out);
  /// ServeOptions::certify hook: validates a non-degraded kOk answer
  /// against `g` and downgrades it to kInternal on a failed certificate
  /// (serve.certify.checks / serve.certify.failures).
  void certify_result(const graph::CsrGraph& g, vid_t s, vid_t t,
                      ServeResult& out);
  int budget_for(int k) const;

  /// Batch adoption body; stamps b.epoch when 0. See note_batch().
  void adopt_batch(dyn::AppliedBatch& b,
                   std::shared_ptr<const graph::CsrGraph> post)
      PEEK_REQUIRES(dyn_mu_);
  /// Background repair thread: pops coalesced RepairTasks, runs
  /// dyn::repair_trees, re-inserts repaired trees and advances
  /// repaired_epoch_ — unless the epoch moved meanwhile (results discarded)
  /// or the repair crashed (falls back to wholesale invalidation; a crash
  /// never leaves an unbounded-stale answer servable).
  void repair_loop();
  /// Epoch-guarded artifact publication: an artifact computed at `epoch0`
  /// may enter the cache only while the epoch is still epoch0 (checked and
  /// inserted under dyn_mu_, so no sweep interleaves). Returns false when
  /// the epoch moved — the caller's answer raced a batch.
  bool publish_tree(ArtifactKind kind, vid_t v,
                    const std::shared_ptr<const sssp::SsspResult>& tree,
                    std::uint64_t gen, std::uint64_t epoch0);
  /// Returns false only on an epoch race; a plain cache rejection (budget /
  /// oversize) sets out.uncached instead, matching put_snapshot's contract.
  bool publish_snapshot(vid_t s, vid_t t,
                        const std::shared_ptr<PrunedSnapshot>& snap,
                        std::uint64_t gen, std::uint64_t epoch0,
                        ServeResult& out);
  const dyn::DynamicGraph* dyn_graph_ = nullptr;  // null for a static CSR
  dyn::DynamicGraph* mutable_dyn_ = nullptr;  // set by the mutable ctor
  vid_t n_ = 0;  // vertex count: batches never change it
  check::Mutex dyn_mu_;
  /// The graph served at the current epoch: a non-owning alias of a static
  /// CSR (it never moves), or a dynamic graph's snapshot, swapped by
  /// adopt_batch.
  std::shared_ptr<const graph::CsrGraph> graph_ PEEK_GUARDED_BY(dyn_mu_);
  /// Adopted batches, for label().
  dyn::BatchLog batch_log_ PEEK_GUARDED_BY(dyn_mu_);
  /// Reweight-displaced snapshots, served bounded-stale by read().
  std::map<std::pair<vid_t, vid_t>, StaleEntry> stale_snaps_
      PEEK_GUARDED_BY(dyn_mu_);

  /// Epoch counters (0 forever on a static engine). mutation_epoch_ is
  /// stored under dyn_mu_, so a reader holding it sees the graph, cache and
  /// side table of the epoch it reads; a bare load is the label's freshness
  /// check.
  std::atomic<std::uint64_t> mutation_epoch_{0};
  std::atomic<std::uint64_t> repaired_epoch_{0};

  check::Mutex repair_mu_;
  check::CondVar repair_cv_;
  std::optional<RepairTask> repair_pending_ PEEK_GUARDED_BY(repair_mu_);
  bool repair_busy_ PEEK_GUARDED_BY(repair_mu_) = false;
  bool repair_stop_ PEEK_GUARDED_BY(repair_mu_) = false;
  std::thread repair_thread_;

  ServeOptions opts_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> admitted_{0};  // admission-control occupancy
  ArtifactCache cache_;

  /// Persistence state (set iff snapshot_dir is configured).
  std::optional<recover::RecoveryManager> recovery_;
  int restored_artifacts_ = 0;
  /// Tree-cache keys that came from disk, so hits on them can count
  /// serve.cache.restore_hits (snapshots carry a `restored` flag instead).
  check::Mutex restored_mu_;
  std::set<std::pair<int, vid_t>> restored_trees_ PEEK_GUARDED_BY(restored_mu_);

  check::Mutex inflight_mu_;
  std::map<std::pair<vid_t, vid_t>, std::shared_ptr<Inflight>> inflight_
      PEEK_GUARDED_BY(inflight_mu_);
};

}  // namespace peek::serve
