// Sharded serving fleet (DESIGN.md §12, §14): N shards × R replicas of
// serve::QueryEngine behind a consistent-hash ShardRouter, with hedged
// duplicate requests to cut tail latency and a self-healing control loop —
// per-replica EWMA health, circuit breakers, answer certification, and
// quarantine → warm-restart recovery — to survive replicas that are slow,
// crash-looping, or silently corrupt.
//
// Each replica is a thread-simulated process: its own QueryEngine (own
// ArtifactCache, admission slots, warm-restart state), its own bounded
// request queue, and its own worker threads. The graph itself is replicated
// (every replica serves the full CSR — it is the caches that the router
// partitions), so any replica's answer to (s, t, K) has single-engine
// core::peek_ksp's distances, and its paths unless two path lengths tie
// (serve::QueryEngine::query states when it is vertex-identical). Hedging,
// failover and healing can therefore change only who computes an answer —
// and, under ties, which of the equally long paths it holds.
//
// Query lifecycle (see the §12 state machine):
//   route    — ShardRouter::route(s, t) picks the home shard; a round-robin
//              scan of its replicas picks the first whose breaker admits.
//   hedge    — if FleetOptions::hedge > 0 and no completion arrives within
//              it, one duplicate attempt is enqueued on a different replica
//              (ring-successor shard when the home shard has no spare). The
//              first completion wins; every losing attempt is cancelled
//              through its per-attempt fault::CancelToken, which is linked()
//              under the caller's token/deadline.
//   retry    — a "replica down" completion (forced-open breaker, the
//              injected shard.replica.down probe, or a failed half-open
//              probe) retries on the shard's next admitting replica — hot-
//              shard replication — before failing over.
//   failover — a shard with no admitting replica reroutes to ring-successor
//              shards in deterministic order (FleetOptions::failover).
//   certify  — every non-degraded kOk answer is validated against the CSR
//              (check/certify.hpp). A failed certificate marks the serving
//              replica corrupt: quarantine, cache drop, warm restart from
//              recover::RecoveryManager snapshots, then breaker probes gate
//              re-admission — and the query retries through the ladder.
//   degrade  — when no replica anywhere admits the query, the fleet probes
//              surviving replicas' caches via QueryEngine::query_cached_only
//              (zero graph work) and returns a degraded prefix, fenced like
//              any other answer, else Status::kOverloaded. Never a wrong
//              answer: every non-degraded kOk result is the exact, certified
//              K-path set.
//
// Replica availability is a per-replica circuit breaker (shard/health.hpp),
// not a boolean: closed replicas take traffic, open ones divert it through
// the retry/failover/degraded ladder, half-open ones admit budgeted probe
// queries whose success closes the breaker. set_replica_down() remains as
// the operator force-open/force-close on that breaker.
//
// Live mutations (DESIGN.md §15): a fleet constructed over a
// dyn::DynamicGraph serves it through dynamic-graph replica engines (a static
// fleet runs the same ladder at fence epoch 0). apply_batch() mutates the
// shared graph once under the fence lock, stamps the batch with the next
// fleet-wide fence epoch, builds the post-mutation CSR once, and fans the
// (batch, CSR) pair into every replica's pending queue — each replica adopts
// it at its own pace (workers catch up before dispatching). Epoch fencing
// keeps that staggering honest: the query ladder reads the fence at each
// completion and never returns a non-stale answer, degraded or not, from an
// engine behind it — a lagging answer is either widened into an
// explicitly-bounded stale one (when every missed batch was reweight-only)
// or bounced and retried after force-delivering the lagging replica's queue
// (shard.epoch_bounces). Two replicas that applied the same
// batch at different times therefore never mix epochs within one ladder.
//
// Shutdown: the destructor stops the healer and every worker after draining
// its queue, so in-flight query() calls complete; callers must not destroy
// the fleet while calling query() (same contract as QueryEngine vs its
// graph).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "check/thread_safety.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/update_batch.hpp"
#include "serve/query_engine.hpp"
#include "shard/health.hpp"
#include "shard/router.hpp"

namespace peek::shard {

struct FleetOptions {
  /// Ring shape; router.shards is the shard count.
  RouterOptions router;
  /// Replicas per shard (>= 1). Replica 0 is the round-robin anchor; spares
  /// absorb hedges, retries and hot-shard overflow.
  int replicas = 1;
  /// Worker threads per replica (>= 1).
  int workers_per_replica = 1;
  /// Hedge trigger latency: fire one duplicate attempt if the primary has
  /// not completed within this budget. <= 0 disables hedging (< 0 is
  /// rejected at construction).
  std::chrono::milliseconds hedge{0};
  /// Deadline for queries that do not pass their own (0 = none; < 0 is
  /// rejected); linked with the caller token exactly as in
  /// serve::ServeOptions.
  std::chrono::milliseconds default_deadline{0};
  /// Per-replica queue bound (routing-tier admission; 0 = unbounded; < 0 is
  /// rejected). A full queue sheds the attempt with Status::kOverloaded.
  int max_queue = 0;
  /// Reroute to ring-successor shards when a shard has no admitting replica.
  /// Off = strict placement: such queries go straight to degraded/reject.
  bool failover = true;
  /// Per-replica health/breaker tuning (DESIGN.md §14).
  HealthOptions health;
  /// Certify every non-degraded kOk answer against the CSR; a failed
  /// certificate quarantines + warm-restarts the serving replica and the
  /// query retries on its peers.
  bool certify = true;
  /// Per-replica engine template. The engine's own default_deadline is left
  /// to the fleet (set this one instead); cache.byte_budget is per replica.
  /// A non-empty serve.snapshot_dir is split into per-replica
  /// `<dir>/s<shard>.r<replica>` subdirectories so replicas never clobber
  /// each other's snapshots and a healing replica warm-restarts from its
  /// own.
  serve::ServeOptions serve;
  /// Installed into fault::Injector::global() at construction (tests/CI).
  std::optional<fault::InjectorConfig> injector;
};

/// One fleet query: the replica answer plus routing provenance.
struct FleetResult {
  serve::ServeResult result;
  int shard = -1;    // shard that produced the answer (home unless failover)
  int replica = -1;  // replica index within that shard (-1: rejected)
  bool hedged = false;     // a duplicate attempt was fired
  bool hedge_won = false;  // ... and it beat the primary
  bool failover = false;   // served off the home shard
  double seconds = 0;      // end-to-end fleet wall time (queue wait included)
};

/// Point-in-time per-shard latency digest (stats()).
struct ShardLatency {
  double p50_s = 0;
  double p99_s = 0;
  std::uint64_t count = 0;  // queries attributed to this shard
};

/// Thread-safe sharded serving facade. The graph must outlive the fleet;
/// query() may be called concurrently from any number of threads.
class ShardFleet {
 public:
  /// Throws std::invalid_argument for replicas/workers_per_replica < 1 or
  /// negative hedge/default_deadline/max_queue (the router validates its own
  /// options the same way).
  explicit ShardFleet(const graph::CsrGraph& g, const FleetOptions& opts = {});
  /// Live-mutation fleet (see header comment): every replica engine serves
  /// `dg`, and mutations flow exclusively through apply_batch() — the caller
  /// must not touch `dg` behind the fleet's back. The graph must outlive the
  /// fleet.
  explicit ShardFleet(dyn::DynamicGraph& dg, const FleetOptions& opts = {});
  ~ShardFleet();

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// The K shortest simple paths from s to t, with core::peek_ksp's
  /// distances — and its paths unless two lengths tie — whenever
  /// result.status is kOk and not degraded (tests/test_shard.cpp
  /// FleetBitIdentity, HedgeStormBitIdentity; serve::QueryEngine::query
  /// gives the exact rule).
  FleetResult query(vid_t s, vid_t t, int k,
                    const serve::QueryOptions& qopts = {});

  const ShardRouter& router() const { return router_; }
  int shards() const { return router_.shards(); }
  int replicas() const { return opts_.replicas; }

  /// Ops/test hook: force one replica's breaker open (crashed, true) or
  /// closed (recovered, false). A forced-open replica answers nothing — its
  /// queue drains as "replica down" and its cache is unreachable, like a
  /// dead process — and never half-opens on its own.
  void set_replica_down(int shard, int replica, bool down);
  bool replica_down(int shard, int replica) const;

  /// Breaker/health introspection (tests, soak harness, ops dashboards).
  BreakerState breaker_state(int shard, int replica) const;
  double replica_health(int shard, int replica) const;

  /// Blocks until every queued quarantine heal (cache drop + engine warm
  /// restart) has completed. Test/soak hook.
  void drain_heals();

  // -- Live mutations (dynamic-graph fleets only) ----------------------------

  /// Applies `batch` to the shared DynamicGraph, advances the fence epoch,
  /// and fans the applied record (plus the post-mutation CSR, built once
  /// here) out to every replica's pending queue. Returns the applied record,
  /// fence-epoch-stamped; a no-op record on a static-graph fleet.
  dyn::AppliedBatch apply_batch(const dyn::UpdateBatch& batch);

  /// Fleet-wide fence: the epoch of the last batch applied via apply_batch.
  std::uint64_t fence_epoch() const {
    return fence_epoch_.load(std::memory_order_acquire);
  }

  /// Force-delivers every pending batch to every replica's engine now
  /// (tests / soak determinism; workers otherwise catch up at dispatch).
  void deliver_batches();

  /// Direct engine access (tests: cache warming, drain assertions). The
  /// reference is stable only while no heal swaps this replica's engine.
  serve::QueryEngine& engine(int shard, int replica);

  /// Per-shard latency digests over a sliding window of recent queries.
  std::vector<ShardLatency> stats() const;
  /// Publishes shard.p50_seconds / shard.p99_seconds (fleet-wide), the
  /// per-shard shard.s<i>.{p50,p99}_seconds gauge families, the per-replica
  /// shard.s<i>.r<j>.health gauges, and the fleet-wide
  /// shard.replica.health.min gauge.
  void publish_latency_metrics() const;

 private:
  struct QueryState;
  struct Attempt;
  struct Replica;
  struct Shard;

  /// Outcome of launching (and possibly hedging) on one shard.
  struct RunOutcome {
    serve::ServeResult result;
    int shard = -1;    // shard of the winning replica (hedges may cross)
    int replica = -1;
    bool hedged = false;
    bool hedge_won = false;
    bool unavailable = false;  // no admitting replica, or winner bounced
  };

  /// One admission pick: a replica index plus whether the breaker admitted
  /// it as a half-open probe (probe attempts ride probe_deadline tokens).
  struct Pick {
    int replica = -1;
    bool probe = false;
  };

  /// Round-robin breaker-admitted pick; replica < 0 when none admits
  /// (skip >= 0 excludes one index).
  Pick pick_replica(Shard& sh, int skip);
  /// Enqueue one attempt (index 0 = primary). Sheds to Status::kOverloaded
  /// synchronously when the replica queue is full.
  void launch(int shard, int replica, int index, bool probe, vid_t s, vid_t t,
              int k, const fault::CancelToken* base,
              const std::shared_ptr<QueryState>& st);
  RunOutcome run_on_shard(int shard, vid_t s, vid_t t, int k,
                          const fault::CancelToken* base);
  bool try_degraded(vid_t s, vid_t t, int k, int home, FleetResult& out);
  void worker_loop(Replica& rep);
  /// Certification failure handling: breaker quarantine + async heal.
  void quarantine_replica(int shard, int replica);
  void healer_loop();
  /// Cache drop + engine rebuild (warm restart) + quarantine release.
  void heal_replica(int shard, int replica);
  /// A fresh engine for one replica over the fleet's graph, with its own
  /// snapshot subdirectory.
  std::shared_ptr<serve::QueryEngine> make_engine(int shard,
                                                  int replica) const;
  void record_latency(int shard, double seconds);
  /// Drains one replica's pending batches into its engine, in epoch order
  /// even under concurrent drainers (per-replica apply lock). A static
  /// fleet's queues stay empty.
  void deliver_pending(Replica& rep);
  /// Epoch-fence reconciliation of a completed answer served at engine
  /// epoch `eff`, behind the fence: widens it into an explicitly-bounded
  /// stale answer through the batch log (shard.stale_upgrades); false when
  /// the log has no bound for (eff, fence] — the caller bounces the answer.
  bool fence_result(serve::ServeResult& r, std::uint64_t eff,
                    std::uint64_t fence);

  const graph::CsrGraph* graph_;               // static mode; null when live
  dyn::DynamicGraph* dyn_graph_ = nullptr;     // live mode; null when static
  vid_t n_ = 0;                                // vertex count (either mode)
  FleetOptions opts_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Fence state. apply_batch holds fence_mu_ across the graph mutation, the
  /// epoch bump, the batch log record AND the per-replica fan-out, so
  /// pending queues receive batches in fence-epoch order; fence_csr_ is the
  /// CSR at the fence (built once per batch, shared with every replica, and
  /// the certification graph for at-fence answers) — a non-owning alias of a
  /// static fleet's CSR, which never moves.
  mutable check::Mutex fence_mu_;
  std::shared_ptr<const graph::CsrGraph> fence_csr_ PEEK_GUARDED_BY(fence_mu_);
  dyn::BatchLog batch_log_ PEEK_GUARDED_BY(fence_mu_);
  std::atomic<std::uint64_t> fence_epoch_{0};

  // Shared ctor body of the two public constructors.
  ShardFleet(const graph::CsrGraph* g, dyn::DynamicGraph* dg,
             const FleetOptions& opts);

  /// Quarantine -> warm-restart pipeline, drained by one healer thread so
  /// query() never blocks on an engine rebuild.
  check::Mutex heal_mu_;
  check::CondVar heal_cv_;
  std::deque<std::pair<int, int>> heal_queue_ PEEK_GUARDED_BY(heal_mu_);
  bool heal_stopping_ PEEK_GUARDED_BY(heal_mu_) = false;
  bool healing_ PEEK_GUARDED_BY(heal_mu_) = false;
  std::thread healer_;
};

}  // namespace peek::shard
