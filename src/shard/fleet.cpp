#include "shard/fleet.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "check/certify.hpp"
#include "check/invariants.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"

namespace peek::shard {

namespace {

/// Recent-query latency window kept per shard (ring buffer).
constexpr size_t kLatencyWindow = 4096;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

size_t percentile_index(size_t n, size_t permille) {
  const size_t idx = (n * permille) / 1000;
  return idx >= n ? n - 1 : idx;
}

}  // namespace

/// Shared completion slot of one fleet query. The waiter and every attempt
/// hold a shared_ptr; attempts never point back at each other (tokens are
/// stored by value), so there is no ownership cycle.
struct ShardFleet::QueryState {
  check::Mutex mu;
  check::CondVar cv;
  int outstanding PEEK_GUARDED_BY(mu) = 0;
  bool winner_set PEEK_GUARDED_BY(mu) = false;
  serve::ServeResult winner PEEK_GUARDED_BY(mu);
  int winner_index PEEK_GUARDED_BY(mu) = -1;
  int winner_shard PEEK_GUARDED_BY(mu) = -1;
  int winner_replica PEEK_GUARDED_BY(mu) = -1;
  bool winner_retryable PEEK_GUARDED_BY(mu) = false;
  /// Per-attempt cancel handles, indexed by attempt index; the waiter
  /// cancels every loser through them once a winner lands.
  std::vector<fault::CancelToken> tokens PEEK_GUARDED_BY(mu);

  /// First-completion-wins publication. A failed attempt only wins when it
  /// is the last one outstanding — a slower healthy duplicate may still
  /// deliver the real answer. `retryable` marks dead-replica bounces and
  /// failed half-open probes, which the ladder retries on a peer.
  void complete(int index, int shard, int replica, bool retryable,
                serve::ServeResult r) {
    check::MutexLock lock(mu);
    --outstanding;
    const bool ok = r.status.code == fault::Status::kOk;
    if (!winner_set && (ok || outstanding == 0)) {
      winner_set = true;
      winner = std::move(r);
      winner_index = index;
      winner_shard = shard;
      winner_replica = replica;
      winner_retryable = retryable;
      cv.notify_all();
    } else if (winner_set && r.status.code == fault::Status::kCancelled) {
      // A losing attempt whose cancellation actually cut it short.
      PEEK_COUNT_INC("shard.hedges.cancelled");
    }
  }
};

/// One unit of replica work: a (s, t, k) attempt plus its cancel handle and
/// the query it reports into.
struct ShardFleet::Attempt {
  vid_t s = 0;
  vid_t t = 0;
  int k = 0;
  int index = 0;  // 0 = primary, >0 = hedge duplicates
  int shard = -1;
  int replica = -1;
  bool probe = false;      // half-open breaker probe (budgeted admission)
  bool retryable = false;  // dead-replica bounce or failed probe
  std::chrono::steady_clock::time_point enqueued{};
  fault::CancelToken token;
  std::shared_ptr<QueryState> state;
};

/// A thread-simulated replica process: engine + breaker + queue + workers.
/// The breaker is the availability source of truth (forced-open models a
/// crashed process); the engine is swappable under engine_mu so the healer
/// can warm-restart a quarantined replica while traffic drains elsewhere.
struct ShardFleet::Replica {
  explicit Replica(const HealthOptions& h) : breaker(h) {}

  ReplicaBreaker breaker;
  mutable check::Mutex engine_mu;
  std::shared_ptr<serve::QueryEngine> engine PEEK_GUARDED_BY(engine_mu);
  check::Mutex mu;
  check::CondVar cv;
  std::deque<std::shared_ptr<Attempt>> queue PEEK_GUARDED_BY(mu);
  bool stopping PEEK_GUARDED_BY(mu) = false;
  /// Live-mutation delivery queue: applied batches (with their fleet-built
  /// post CSR) this replica's engine has not adopted yet. Pushed by
  /// apply_batch under the fence lock (so order = fence-epoch order),
  /// drained by deliver_pending; cleared by a heal (the rebuilt engine
  /// snapshots the current graph, so the backlog is already baked in).
  std::deque<std::pair<dyn::AppliedBatch,
                       std::shared_ptr<const graph::CsrGraph>>>
      pending PEEK_GUARDED_BY(mu);
  /// Serializes delivery so concurrent drainers cannot reorder epochs.
  // ts-allow: pure ordering lock — held across pop+note_batch so epochs
  // reach the engine in queue order; it guards no member of its own.
  check::Mutex apply_mu;
  /// Filled once in the fleet constructor, joined once in the destructor —
  /// never touched by concurrent phases, hence unguarded.
  std::vector<std::thread> workers;

  /// Pin the current engine: holders keep it alive across a heal swap.
  std::shared_ptr<serve::QueryEngine> engine_snapshot() const {
    check::MutexLock lock(engine_mu);
    return engine;
  }
};

struct ShardFleet::Shard {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::atomic<unsigned> rr{0};  // round-robin pick cursor
  mutable check::Mutex lat_mu;
  /// Ring buffer of recent query latencies + total count.
  std::vector<double> lat PEEK_GUARDED_BY(lat_mu);
  std::uint64_t lat_count PEEK_GUARDED_BY(lat_mu) = 0;
};

ShardFleet::ShardFleet(const graph::CsrGraph& g, const FleetOptions& opts)
    : ShardFleet(&g, nullptr, opts) {}

ShardFleet::ShardFleet(dyn::DynamicGraph& dg, const FleetOptions& opts)
    : ShardFleet(nullptr, &dg, opts) {}

ShardFleet::ShardFleet(const graph::CsrGraph* g, dyn::DynamicGraph* dg,
                       const FleetOptions& opts)
    : graph_(g),
      dyn_graph_(dg),
      n_(dg != nullptr ? dg->num_vertices() : g->num_vertices()),
      opts_(opts),
      router_(n_, opts.router) {
  // kInvalidArgument at construction instead of silently clamping: a fleet
  // shaped differently than its config claims would undermine every placement
  // and capacity assumption the caller derived from that config.
  if (opts_.replicas < 1)
    throw std::invalid_argument("FleetOptions::replicas must be >= 1");
  if (opts_.workers_per_replica < 1)
    throw std::invalid_argument(
        "FleetOptions::workers_per_replica must be >= 1");
  if (opts_.hedge.count() < 0)
    throw std::invalid_argument("FleetOptions::hedge must be >= 0");
  if (opts_.default_deadline.count() < 0)
    throw std::invalid_argument("FleetOptions::default_deadline must be >= 0");
  if (opts_.max_queue < 0)
    throw std::invalid_argument("FleetOptions::max_queue must be >= 0");
  if (opts_.injector) fault::Injector::global().configure(*opts_.injector);
  // The fleet installs the injector once; per-replica engines must not each
  // re-install it (configure() resets the fired counters) — and neither may
  // a healing rebuild mid-soak.
  opts_.serve.injector.reset();
  {
    // The fence CSR: a static CSR (a non-owning alias; the fence stays at 0
    // and the CSR never moves), or the dynamic graph's snapshot, which
    // apply_batch advances. Uncontended (no thread exists yet); taken so the
    // annotations hold.
    check::MutexLock lock(fence_mu_);
    fence_csr_ =
        dg != nullptr
            ? std::make_shared<const graph::CsrGraph>(dg->to_csr())
            : std::shared_ptr<const graph::CsrGraph>(
                  g, [](const graph::CsrGraph*) {});
  }

  shards_.reserve(static_cast<size_t>(router_.shards()));
  for (int sh = 0; sh < router_.shards(); ++sh) {
    auto shard = std::make_unique<Shard>();
    shard->replicas.reserve(static_cast<size_t>(opts_.replicas));
    for (int r = 0; r < opts_.replicas; ++r) {
      auto rep = std::make_unique<Replica>(opts_.health);
      {
        // Uncontended (no worker exists yet); taken so the annotation on
        // `engine` holds unconditionally.
        check::MutexLock lock(rep->engine_mu);
        rep->engine = make_engine(sh, r);
      }
      shard->replicas.push_back(std::move(rep));
    }
    shards_.push_back(std::move(shard));
  }
  // Workers and the healer start only after every replica exists: a worker's
  // failover path may touch engines on other shards, and a heal swaps them.
  healer_ = std::thread([this] { healer_loop(); });
  for (auto& shard : shards_) {
    for (auto& rep : shard->replicas) {
      for (int w = 0; w < opts_.workers_per_replica; ++w) {
        rep->workers.emplace_back(
            [this, r = rep.get()] { worker_loop(*r); });
      }
    }
  }
}

ShardFleet::~ShardFleet() {
  {
    check::MutexLock lock(heal_mu_);
    heal_stopping_ = true;
  }
  heal_cv_.notify_all();
  if (healer_.joinable()) healer_.join();
  for (auto& shard : shards_) {
    for (auto& rep : shard->replicas) {
      {
        check::MutexLock lock(rep->mu);
        rep->stopping = true;
      }
      rep->cv.notify_all();
    }
  }
  for (auto& shard : shards_) {
    for (auto& rep : shard->replicas) {
      for (auto& w : rep->workers) w.join();
    }
  }
}

std::shared_ptr<serve::QueryEngine> ShardFleet::make_engine(int shard,
                                                            int replica) const {
  serve::ServeOptions eo = opts_.serve;
  if (!eo.snapshot_dir.empty()) {
    // Per-replica snapshot directory: replicas never clobber each other's
    // artifacts, and a healing rebuild warm-restarts from its own.
    eo.snapshot_dir += "/s" + std::to_string(shard) + ".r" +
                       std::to_string(replica);
  }
  if (dyn_graph_ != nullptr) {
    return std::make_shared<serve::QueryEngine>(
        static_cast<const dyn::DynamicGraph&>(*dyn_graph_), eo);
  }
  return std::make_shared<serve::QueryEngine>(*graph_, eo);
}

// ---------------------------------------------------------------------------
// Live mutations: fleet-wide fence (DESIGN.md §15)
// ---------------------------------------------------------------------------

dyn::AppliedBatch ShardFleet::apply_batch(const dyn::UpdateBatch& batch) {
  dyn::AppliedBatch b;
  if (dyn_graph_ == nullptr) return b;  // misuse on a static fleet: no-op
  check::MutexLock lock(fence_mu_);
  b = dyn::apply(*dyn_graph_, batch);
  b.epoch = fence_epoch_.load(std::memory_order_relaxed) + 1;
  // The post-mutation CSR is built exactly once, here, under the fence lock
  // — replicas adopting it later must never read the DynamicGraph itself,
  // which the next apply_batch may be mutating by then.
  auto post = std::make_shared<const graph::CsrGraph>(
      dyn::patched_csr(*dyn_graph_, *fence_csr_, b));
  fence_csr_ = post;
  batch_log_.record(b);
  fence_epoch_.store(b.epoch, std::memory_order_release);
  PEEK_COUNT_INC("shard.batches");
  // Fan-out inside the fence lock: concurrent apply_batch calls would
  // otherwise interleave their pushes and a replica could adopt epochs out
  // of order. Each replica catches up at its own pace (deliver_pending runs
  // before every dispatch); the query ladder's fencing covers the gap.
  for (auto& sh : shards_) {
    for (auto& rep : sh->replicas) {
      check::MutexLock rlock(rep->mu);
      rep->pending.emplace_back(b, post);
    }
  }
  return b;
}

void ShardFleet::deliver_pending(Replica& rep) {
  // apply_mu serializes concurrent drainers: pops happen in queue (= epoch)
  // order and each batch reaches the engine before the next one is popped.
  check::MutexLock alock(rep.apply_mu);
  for (;;) {
    std::optional<std::pair<dyn::AppliedBatch,
                            std::shared_ptr<const graph::CsrGraph>>>
        item;
    {
      check::MutexLock lock(rep.mu);
      if (rep.pending.empty()) break;
      item = std::move(rep.pending.front());
      rep.pending.pop_front();
    }
    // Pin the engine per batch: a heal swapping mid-drain leaves stale
    // redeliveries, which the engine ignores (epochs <= its own are no-ops).
    rep.engine_snapshot()->note_batch(item->first, std::move(item->second));
  }
}

void ShardFleet::deliver_batches() {
  for (auto& sh : shards_) {
    for (auto& rep : sh->replicas) deliver_pending(*rep);
  }
}

bool ShardFleet::fence_result(serve::ServeResult& r, std::uint64_t eff,
                              std::uint64_t fence) {
  std::optional<weight_t> widen;
  {
    check::MutexLock lock(fence_mu_);
    widen = batch_log_.bound(eff, fence);
  }
  if (!widen) return false;
  // Reweight-only gap: extend the answer's staleness window to the fence.
  // A fresh answer (epochs_behind 0, bound 0) becomes a stale one; an
  // already-stale answer widens. `epoch` stays the content epoch.
  r.staleness.stale = true;
  r.staleness.epochs_behind += fence - eff;
  r.staleness.weight_bound += *widen;
  PEEK_COUNT_INC("shard.stale_upgrades");
  return true;
}

void ShardFleet::worker_loop(Replica& rep) {
  for (;;) {
    std::shared_ptr<Attempt> at;
    {
      check::UniqueLock lock(rep.mu);
      while (!rep.stopping && rep.queue.empty()) rep.cv.wait(lock);
      if (rep.queue.empty()) break;  // stopping, and fully drained
      at = std::move(rep.queue.front());
      rep.queue.pop_front();
    }
    serve::ServeResult r;
    const double queue_age = seconds_since(at->enqueued);
    bool bounced = false;
    bool dispatched = false;
    if (rep.breaker.forced_open() || PEEK_FAULT_FIRE("shard.replica.down")) {
      // Dead-process bounce: no engine work, no cache access.
      at->retryable = true;
      bounced = true;
      r.status = {fault::Status::kOverloaded, "replica down"};
    } else if (at->token.triggered()) {
      // Cancelled while still queued (lost hedge, tripped deadline).
      r.status = {at->token.why(), "cancelled before dispatch"};
    } else {
      dispatched = true;
      // Live mutations: adopt this replica's batch backlog before serving,
      // so staggered delivery never makes an answer lag the fence by more
      // than the batches that land mid-query.
      deliver_pending(rep);
      PEEK_FAULT_STALL("shard.replica.stall");
      serve::QueryOptions qo;
      qo.cancel = &at->token;
      // Pin the engine across the call: a concurrent heal may swap it.
      auto engine = rep.engine_snapshot();
      r = engine->query(at->s, at->t, at->k, qo);
      if (r.status.code == fault::Status::kOk && !r.degraded &&
          !r.paths.empty() && PEEK_FAULT_FIRE("shard.replica.corrupt")) {
        // Simulated replica corruption: the served distance no longer sums
        // from its edges, which the §14 certificate catches downstream.
        r.paths.back().dist += weight_t{1};
      }
    }
    // Every real completion (served or bounced) feeds the EWMA. Attempts
    // cancelled before dispatch, or ending kCancelled mid-compute (a lost
    // hedge, a caller cancel), say nothing about this replica's health; a
    // deadline tripped mid-compute still counts as a timeout.
    if (bounced ||
        (dispatched && r.status.code != fault::Status::kCancelled)) {
      HealthSignal sig;
      sig.ok = r.status.code == fault::Status::kOk;
      sig.timeout = r.status.code == fault::Status::kDeadlineExceeded;
      sig.error = bounced || r.status.code == fault::Status::kInternal ||
                  r.status.code == fault::Status::kDataLoss ||
                  r.status.code == fault::Status::kResourceExhausted;
      sig.queue_age_s = queue_age;
      rep.breaker.record(sig);
    }
    if (at->probe) {
      using PO = ReplicaBreaker::ProbeOutcome;
      PO po = PO::kFailure;
      if (r.status.code == fault::Status::kOk) {
        po = PO::kSuccess;
      } else if (r.status.code == fault::Status::kCancelled) {
        po = PO::kAbandoned;  // lost hedge race, not the replica's fault
      } else {
        at->retryable = true;  // failed probe: the ladder moves on
      }
      rep.breaker.probe_done(po);
    }
    at->state->complete(at->index, at->shard, at->replica, at->retryable,
                        std::move(r));
  }
}

ShardFleet::Pick ShardFleet::pick_replica(Shard& sh, int skip) {
  const unsigned count = static_cast<unsigned>(opts_.replicas);
  const unsigned start = sh.rr.fetch_add(1, std::memory_order_relaxed);
  for (unsigned i = 0; i < count; ++i) {
    const int r = static_cast<int>((start + i) % count);
    if (r == skip) continue;
    switch (sh.replicas[static_cast<size_t>(r)]->breaker.admit()) {
      case ReplicaBreaker::Admission::kAdmit:
        return Pick{r, false};
      case ReplicaBreaker::Admission::kProbe:
        return Pick{r, true};
      case ReplicaBreaker::Admission::kReject:
        break;
    }
  }
  return Pick{};
}

void ShardFleet::launch(int shard, int replica, int index, bool probe,
                        vid_t s, vid_t t, int k,
                        const fault::CancelToken* base,
                        const std::shared_ptr<QueryState>& st) {
  auto at = std::make_shared<Attempt>();
  at->s = s;
  at->t = t;
  at->k = k;
  at->index = index;
  at->shard = shard;
  at->replica = replica;
  at->probe = probe;
  at->enqueued = std::chrono::steady_clock::now();
  // Per-attempt handle under the caller's token/deadline: cancelling it
  // abandons just this attempt; the parent tripping abandons them all. A
  // probe additionally rides the breaker's probe_deadline so a wedged
  // replica fails its probe instead of wedging the prober.
  const auto pd = opts_.health.probe_deadline;
  if (probe && pd.count() > 0) {
    at->token = base != nullptr ? fault::CancelToken::linked(*base, pd)
                                : fault::CancelToken::after(pd);
  } else {
    at->token = base != nullptr ? fault::CancelToken::linked(*base)
                                : fault::CancelToken::cancellable();
  }
  at->state = st;
  {
    check::MutexLock lock(st->mu);
    ++st->outstanding;
    if (static_cast<size_t>(index) >= st->tokens.size())
      st->tokens.resize(static_cast<size_t>(index) + 1);
    st->tokens[static_cast<size_t>(index)] = at->token;
  }
  Replica& rep = *shards_[static_cast<size_t>(shard)]
                      ->replicas[static_cast<size_t>(replica)];
  bool shed = false;
  {
    check::MutexLock lock(rep.mu);
    if (opts_.max_queue > 0 &&
        rep.queue.size() >= static_cast<size_t>(opts_.max_queue)) {
      shed = true;  // routing-tier admission: bounce without queueing
    } else {
      rep.queue.push_back(std::move(at));
      rep.cv.notify_one();
    }
  }
  if (shed) {
    PEEK_COUNT_INC("shard.shed");
    // A probe that cannot even enqueue is a failed probe.
    if (probe) rep.breaker.probe_done(ReplicaBreaker::ProbeOutcome::kFailure);
    serve::ServeResult r;
    r.status = {fault::Status::kOverloaded, "replica queue full"};
    st->complete(index, shard, replica, /*retryable=*/false, std::move(r));
  }
}

ShardFleet::RunOutcome ShardFleet::run_on_shard(
    int shard, vid_t s, vid_t t, int k, const fault::CancelToken* base) {
  RunOutcome out;
  Shard& sh = *shards_[static_cast<size_t>(shard)];
  int skip = -1;
  bool hedged_any = false;
  for (int attempt = 0; attempt < opts_.replicas; ++attempt) {
    const Pick p0 = pick_replica(sh, skip);
    if (p0.replica < 0) {
      out.hedged = hedged_any;
      out.unavailable = true;
      return out;
    }
    if (attempt > 0) PEEK_COUNT_INC("shard.replica_retries");
    auto st = std::make_shared<QueryState>();
    launch(shard, p0.replica, 0, p0.probe, s, t, k, base, st);
    bool hedged = false;
    {
      check::UniqueLock lock(st->mu);
      if (opts_.hedge.count() > 0 && !st->winner_set) {
        const auto hedge_by = std::chrono::steady_clock::now() + opts_.hedge;
        while (!st->winner_set &&
               st->cv.wait_until(lock, hedge_by) != std::cv_status::timeout) {
        }
      }
      if (opts_.hedge.count() > 0 && !st->winner_set) {
        // The primary overran the hedge budget: duplicate on a spare
        // replica here, else (under failover) on the ring successor.
        int hshard = shard;
        Pick hp = pick_replica(sh, p0.replica);
        if (hp.replica < 0 && opts_.failover) {
          for (int step = 1; step < router_.shards() && hp.replica < 0;
               ++step) {
            hshard = router_.successor(shard, step);
            hp = pick_replica(*shards_[static_cast<size_t>(hshard)], -1);
          }
        }
        if (hp.replica >= 0) {
          lock.unlock();
          launch(hshard, hp.replica, 1, hp.probe, s, t, k, base, st);
          PEEK_COUNT_INC("shard.hedges.fired");
          hedged = true;
          hedged_any = true;
          lock.lock();
        }
      }
      while (!st->winner_set) st->cv.wait(lock);
      out.result = std::move(st->winner);
      out.shard = st->winner_shard;
      out.replica = st->winner_replica;
      out.hedged = hedged_any;
      out.hedge_won = hedged && st->winner_index > 0;
      out.unavailable = st->winner_retryable;
    }
    {
      // First completion won; cancel every losing attempt. Their workers
      // observe the tripped token and bail (shard.hedges.cancelled).
      check::MutexLock lock(st->mu);
      for (size_t i = 0; i < st->tokens.size(); ++i) {
        if (static_cast<int>(i) != st->winner_index) st->tokens[i].cancel();
      }
    }
    if (out.hedge_won) {
      PEEK_COUNT_INC("shard.hedges.won");
    } else if (hedged) {
      PEEK_COUNT_INC("shard.hedges.wasted");
    }
    if (!out.unavailable) return out;
    // That replica just bounced — try its peers (only meaningful when the
    // bounce came from this shard; a bounced cross-shard hedge says nothing
    // about the home replicas).
    if (out.shard == shard) skip = out.replica;
  }
  out.unavailable = true;
  return out;
}

bool ShardFleet::try_degraded(vid_t s, vid_t t, int k, int home,
                              FleetResult& out) {
  // Read-only cache peek across surviving replicas, ring order from home.
  // query_cached_only does zero graph work, so bypassing the queues here is
  // safe even while those replicas serve their own traffic. Crashed
  // (forced-open) and corruption-quarantined replicas are skipped — the
  // former's cache is unreachable, the latter's is suspect.
  for (int step = 0; step < router_.shards(); ++step) {
    const int sh = router_.successor(home, step);
    Shard& shard = *shards_[static_cast<size_t>(sh)];
    for (int r = 0; r < opts_.replicas; ++r) {
      Replica& rep = *shard.replicas[static_cast<size_t>(r)];
      if (rep.breaker.forced_open() || rep.breaker.quarantined()) continue;
      serve::ServeResult res =
          rep.engine_snapshot()->query_cached_only(s, t, k);
      if (res.status.code != fault::Status::kOk) continue;
      // Fenced like any other answer: cached paths behind the fence are
      // widened across a reweight-only gap and skipped across a structural
      // one.
      const std::uint64_t eff =
          res.staleness.epoch + res.staleness.epochs_behind;
      const std::uint64_t fence = fence_epoch();
      if (eff < fence && !fence_result(res, eff, fence)) continue;
      out.result = std::move(res);
      out.shard = sh;
      out.replica = r;
      out.failover = sh != home;
      return true;
    }
  }
  return false;
}

FleetResult ShardFleet::query(vid_t s, vid_t t, int k,
                              const serve::QueryOptions& qopts) {
  const auto t0 = std::chrono::steady_clock::now();
  FleetResult out;
  PEEK_COUNT_INC("shard.queries");
  PEEK_TIMER_SCOPE("shard.query");

  if (k <= 0 || s < 0 || s >= n_ || t < 0 || t >= n_) {
    out.result.status = {fault::Status::kInvalidArgument,
                         "query requires 0 <= s,t < n and k > 0"};
    out.seconds = seconds_since(t0);
    return out;
  }

  const int home = router_.route(s, t);
  out.shard = home;

  // Caller token + per-query deadline, merged exactly like QueryEngine does
  // — replicas then only see per-attempt children of this one token.
  fault::CancelToken deadline_token;
  const fault::CancelToken* base =
      qopts.cancel != nullptr && qopts.cancel->valid() ? qopts.cancel
                                                       : nullptr;
  const auto budget =
      qopts.deadline.count() > 0 ? qopts.deadline : opts_.default_deadline;
  if (budget.count() > 0) {
    deadline_token = base != nullptr
                         ? fault::CancelToken::linked(*base, budget)
                         : fault::CancelToken::after(budget);
    base = &deadline_token;
  }

  // One certification retry per fleet replica: quarantining cannot free more
  // replicas than exist, so the loop is bounded even if every answer fails.
  const int max_cert_rounds = router_.shards() * opts_.replicas;
  int cert_rounds = 0;
  int fence_rounds = 0;
  int shard = home;
  int step = 0;
  for (;;) {
    RunOutcome ro = run_on_shard(shard, s, t, k, base);
    out.hedged = out.hedged || ro.hedged;
    out.hedge_won = out.hedge_won || ro.hedge_won;
    if (!ro.unavailable) {
      const int won_shard = ro.shard >= 0 ? ro.shard : shard;
      if (ro.result.status.code == fault::Status::kOk) {
        // Epoch fence, degraded answers included: the answer's engine served
        // it at epoch `staleness.epoch + epochs_behind`. Behind the fence, it
        // must not be returned as-is — widen it into an explicitly-bounded
        // stale answer (reweight-only gap), else force-deliver the lagging
        // replica's backlog and retry the ladder. Either way no ladder ever
        // mixes epochs: every non-stale answer it returns is at (or past)
        // the fence read here. A static fleet stays at fence 0.
        const std::uint64_t eff =
            ro.result.staleness.epoch + ro.result.staleness.epochs_behind;
        const std::uint64_t fence =
            fence_epoch_.load(std::memory_order_acquire);
        if (eff < fence && !fence_result(ro.result, eff, fence)) {
          PEEK_COUNT_INC("shard.epoch_bounces");
          if (ro.replica >= 0) {
            deliver_pending(*shards_[static_cast<size_t>(won_shard)]
                                 ->replicas[static_cast<size_t>(ro.replica)]);
          }
          if (++fence_rounds < max_cert_rounds &&
              !(base != nullptr && base->triggered())) {
            shard = home;
            step = 0;
            continue;
          }
          out.result = serve::ServeResult{};
          out.result.status = {fault::Status::kOverloaded,
                               "no replica reached the fence epoch"};
          out.shard = won_shard;
          out.replica = ro.replica;
          break;
        }
      }
      if (opts_.certify && ro.result.status.code == fault::Status::kOk &&
          !ro.result.degraded && !ro.result.staleness.stale) {
        // Certification graph: the fence CSR, valid only while the answer's
        // epoch still IS the fence (a batch landing after the fence check
        // above skips certification for this answer; the engine-side guards
        // already validated it).
        std::shared_ptr<const graph::CsrGraph> cg;
        {
          check::MutexLock lock(fence_mu_);
          if (ro.result.staleness.epoch ==
              fence_epoch_.load(std::memory_order_relaxed)) {
            cg = fence_csr_;
          }
        }
        if (cg != nullptr) {
          PEEK_COUNT_INC("serve.certify.checks");
          check::CertifyOptions co;
          co.upper_bound = ro.result.upper_bound;
          fault::Status cert =
              check::certify_paths(*cg, s, t, ro.result.paths, co);
          if (!cert.ok()) {
            // A certificate failure is replica corruption, not query
            // failure: quarantine + heal the replica, retry the ladder on
            // its peers.
            PEEK_COUNT_INC("serve.certify.failures");
            if (ro.replica >= 0) quarantine_replica(won_shard, ro.replica);
            if (++cert_rounds < max_cert_rounds &&
                !(base != nullptr && base->triggered())) {
              shard = home;
              step = 0;
              continue;
            }
            out.result = serve::ServeResult{};
            out.result.certificate_failed = true;
            out.result.status = {fault::Status::kInternal,
                                 "no replica produced a certified answer: " +
                                     cert.message};
            out.shard = won_shard;
            out.replica = ro.replica;
            break;
          }
        }
      }
      out.result = std::move(ro.result);
      out.shard = won_shard;
      out.replica = ro.replica;
      out.failover = won_shard != home;
      break;
    }
    if (opts_.failover && step + 1 < router_.shards() &&
        !(base != nullptr && base->triggered())) {
      ++step;
      shard = router_.successor(home, step);
      PEEK_COUNT_INC("shard.failovers");
      continue;
    }
    if (try_degraded(s, t, k, home, out)) {
      PEEK_COUNT_INC("shard.degraded_fallbacks");
      break;
    }
    out.result.status = {fault::Status::kOverloaded,
                         "shard down: no live replica"};
    out.shard = shard;
    out.replica = -1;
    PEEK_COUNT_INC("shard.shard_down_rejects");
    break;
  }

  if (out.result.status.code == fault::Status::kOk && !out.result.degraded) {
    // Route quality: did consistent hashing land this query on warm state?
    if (out.result.snapshot_hit || out.result.fwd_tree_hit ||
        out.result.rev_tree_hit || out.result.coalesced) {
      PEEK_COUNT_INC("shard.route.hits");
    } else {
      PEEK_COUNT_INC("shard.route.misses");
    }
  }
  out.seconds = seconds_since(t0);
  if (out.shard >= 0) record_latency(out.shard, out.seconds);
  return out;
}

void ShardFleet::quarantine_replica(int shard, int replica) {
  Replica& rep = *shards_[static_cast<size_t>(shard)]
                      ->replicas[static_cast<size_t>(replica)];
  rep.breaker.quarantine();
  PEEK_COUNT_INC("shard.replica.quarantines");
  {
    check::MutexLock lock(heal_mu_);
    heal_queue_.emplace_back(shard, replica);
  }
  heal_cv_.notify_one();
}

void ShardFleet::healer_loop() {
  for (;;) {
    std::pair<int, int> job;
    {
      check::UniqueLock lock(heal_mu_);
      while (!heal_stopping_ && heal_queue_.empty()) heal_cv_.wait(lock);
      if (heal_queue_.empty()) break;  // stopping, and fully drained
      job = heal_queue_.front();
      heal_queue_.pop_front();
      healing_ = true;
    }
    heal_replica(job.first, job.second);
    {
      check::MutexLock lock(heal_mu_);
      healing_ = false;
    }
    heal_cv_.notify_all();  // drain_heals() waiters
  }
}

void ShardFleet::heal_replica(int shard, int replica) {
  Replica& rep = *shards_[static_cast<size_t>(shard)]
                      ->replicas[static_cast<size_t>(replica)];
  // Drop the suspect caches first: queries still running on the old engine
  // see a bumped generation immediately, before the swap even lands.
  auto old = rep.engine_snapshot();
  old->invalidate();
  old->cache().clear();
  // Warm restart: a fresh engine restores this replica's persisted artifacts
  // through recover::RecoveryManager (checksum-validated; corrupt files are
  // quarantined on disk, not loaded). No injector config here — rebuilding
  // mid-soak must not reset the global injector's fired counters.
  try {
    // Fence-consistent rebuild: construction, epoch alignment, backlog clear
    // and swap all happen under the fence lock, so no batch can land between
    // the fresh engine's graph snapshot and the moment it takes traffic. The
    // snapshot reflects every batch <= the fence (the graph only mutates
    // under fence_mu_), reset_epoch claims exactly that, and the cleared
    // pending queue held only batches the snapshot already bakes in (any
    // concurrent drain's stale redelivery to the fresh engine is an epoch <=
    // fence no-op). A static fleet's fence stays at 0.
    check::MutexLock fence_lock(fence_mu_);
    auto fresh = make_engine(shard, replica);
    fresh->reset_epoch(fence_epoch_.load(std::memory_order_relaxed));
    {
      check::MutexLock lock(rep.mu);
      rep.pending.clear();
    }
    check::MutexLock lock(rep.engine_mu);
    rep.engine = std::move(fresh);
  } catch (const std::exception&) {
    // Rebuild failed (e.g. injected allocation failure): keep the old
    // engine — its caches are already dropped, which is restart-equivalent
    // minus the warm state.
  }
  PEEK_COUNT_INC("shard.replica.warm_restarts");
  // Re-admission is gated by the breaker: release the sticky quarantine so
  // the next pick may half-open and probe the rebuilt replica.
  rep.breaker.release_quarantine();
}

void ShardFleet::set_replica_down(int shard, int replica, bool down) {
  PEEK_DCHECK(shard >= 0 && shard < router_.shards());
  PEEK_DCHECK(replica >= 0 && replica < opts_.replicas);
  ReplicaBreaker& b = shards_[static_cast<size_t>(shard)]
                          ->replicas[static_cast<size_t>(replica)]
                          ->breaker;
  if (down) {
    b.force_open();
  } else {
    b.force_close();
  }
}

bool ShardFleet::replica_down(int shard, int replica) const {
  PEEK_DCHECK(shard >= 0 && shard < router_.shards());
  PEEK_DCHECK(replica >= 0 && replica < opts_.replicas);
  return shards_[static_cast<size_t>(shard)]
      ->replicas[static_cast<size_t>(replica)]
      ->breaker.forced_open();
}

BreakerState ShardFleet::breaker_state(int shard, int replica) const {
  PEEK_DCHECK(shard >= 0 && shard < router_.shards());
  PEEK_DCHECK(replica >= 0 && replica < opts_.replicas);
  return shards_[static_cast<size_t>(shard)]
      ->replicas[static_cast<size_t>(replica)]
      ->breaker.state();
}

double ShardFleet::replica_health(int shard, int replica) const {
  PEEK_DCHECK(shard >= 0 && shard < router_.shards());
  PEEK_DCHECK(replica >= 0 && replica < opts_.replicas);
  return shards_[static_cast<size_t>(shard)]
      ->replicas[static_cast<size_t>(replica)]
      ->breaker.health();
}

void ShardFleet::drain_heals() {
  check::UniqueLock lock(heal_mu_);
  while (!heal_queue_.empty() || healing_) heal_cv_.wait(lock);
}

serve::QueryEngine& ShardFleet::engine(int shard, int replica) {
  PEEK_DCHECK(shard >= 0 && shard < router_.shards());
  PEEK_DCHECK(replica >= 0 && replica < opts_.replicas);
  return *shards_[static_cast<size_t>(shard)]
              ->replicas[static_cast<size_t>(replica)]
              ->engine_snapshot();
}

void ShardFleet::record_latency(int shard, double seconds) {
  Shard& sh = *shards_[static_cast<size_t>(shard)];
  check::MutexLock lock(sh.lat_mu);
  if (sh.lat.size() < kLatencyWindow) {
    sh.lat.push_back(seconds);
  } else {
    sh.lat[static_cast<size_t>(sh.lat_count % kLatencyWindow)] = seconds;
  }
  ++sh.lat_count;
}

std::vector<ShardLatency> ShardFleet::stats() const {
  std::vector<ShardLatency> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) {
    ShardLatency sl;
    std::vector<double> window;
    {
      check::MutexLock lock(sh->lat_mu);
      window = sh->lat;
      sl.count = sh->lat_count;
    }
    if (!window.empty()) {
      std::sort(window.begin(), window.end());
      sl.p50_s = window[percentile_index(window.size(), 500)];
      sl.p99_s = window[percentile_index(window.size(), 990)];
    }
    out.push_back(sl);
  }
  return out;
}

void ShardFleet::publish_latency_metrics() const {
  if (!obs::kEnabled) return;  // honor the PEEK_OBS=OFF kill switch
  const auto per = stats();
  auto& reg = obs::MetricsRegistry::global();
  std::vector<double> all;
  for (size_t i = 0; i < shards_.size(); ++i) {
    {
      check::MutexLock lock(shards_[i]->lat_mu);
      all.insert(all.end(), shards_[i]->lat.begin(), shards_[i]->lat.end());
    }
    // Per-shard gauge family: names are built at runtime (shard count is a
    // config value), so they are documented in README prose rather than the
    // lint-enforced literal-name metric tables.
    const std::string prefix = "shard.s" + std::to_string(i);
    reg.gauge(prefix + ".p50_seconds").set(per[i].p50_s);
    reg.gauge(prefix + ".p99_seconds").set(per[i].p99_s);
  }
  if (!all.empty()) {
    std::sort(all.begin(), all.end());
    PEEK_GAUGE_SET("shard.p50_seconds",
                   all[percentile_index(all.size(), 500)]);
    PEEK_GAUGE_SET("shard.p99_seconds",
                   all[percentile_index(all.size(), 990)]);
  }
  // Per-replica health gauges (runtime names, README prose) plus the
  // fleet-wide minimum as a literal, alertable gauge.
  double min_health = 1.0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (int r = 0; r < opts_.replicas; ++r) {
      const double h =
          shards_[i]->replicas[static_cast<size_t>(r)]->breaker.health();
      const std::string name = "shard.s" + std::to_string(i) + ".r" +
                               std::to_string(r) + ".health";
      reg.gauge(name).set(h);
      min_health = std::min(min_health, h);
    }
  }
  PEEK_GAUGE_SET("shard.replica.health.min", min_health);
}

}  // namespace peek::shard
