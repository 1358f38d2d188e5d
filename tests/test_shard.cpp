// Sharded-serving tests (DESIGN.md §12): router determinism and consistent-
// hash stability, fleet bit-identity vs single-engine core::peek_ksp,
// hedge-cancellation correctness under a multi-threaded race storm, and
// shard-crash behaviour — degraded or kOverloaded, never a wrong answer.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "core/peek.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "shard/fleet.hpp"
#include "shard/router.hpp"
#include "test_util.hpp"

namespace peek::shard {
namespace {

using namespace std::chrono_literals;

std::vector<sssp::Path> fresh_peek(const graph::CsrGraph& g, vid_t s, vid_t t,
                                   int k) {
  core::PeekOptions po;
  po.k = k;
  return core::peek_ksp(g, s, t, po).ksp.paths;
}

void expect_identical(const std::vector<sssp::Path>& got,
                      const std::vector<sssp::Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verts, want[i].verts) << "path " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "path " << i;
  }
}

/// `got` must be an exact prefix of `want` (degraded answers may be short).
void expect_prefix(const std::vector<sssp::Path>& got,
                   const std::vector<sssp::Path>& want) {
  ASSERT_LE(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verts, want[i].verts) << "path " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "path " << i;
  }
}

graph::CsrGraph test_graph(vid_t n = 400) {
  return graph::small_world(n, 6, 0.1, {}, /*seed=*/12);
}

/// Deterministic query pool spread over the vertex space.
std::vector<std::pair<vid_t, vid_t>> pair_pool(vid_t n, int count) {
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (int i = 0; pool.size() < static_cast<size_t>(count); ++i) {
    const vid_t s = static_cast<vid_t>((i * 37 + 11) % n);
    const vid_t t = static_cast<vid_t>((i * 101 + 73) % n);
    if (s != t) pool.emplace_back(s, t);
  }
  return pool;
}

std::int64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Blocks until every replica finished its queued work (losing hedge
/// attempts may still be draining when query() returns).
void wait_drained(ShardFleet& fleet) {
  auto drained = [&] {
    for (int sh = 0; sh < fleet.shards(); ++sh) {
      for (int r = 0; r < fleet.replicas(); ++r) {
        auto& e = fleet.engine(sh, r);
        if (e.inflight_entries() != 0 || e.admitted_now() != 0) return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 500 && !drained(); ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(drained());
}

// -------------------------------------------------------------------- router

TEST(ShardRouter, RouterDeterminism) {
  const vid_t n = 100000;
  RouterOptions ro;
  ro.shards = 4;
  const ShardRouter a(n, ro);
  const ShardRouter b(n, ro);  // a second "process" with the same config
  std::set<int> used;
  for (const auto& [s, t] : pair_pool(n, 2000)) {
    const int sh = a.route(s, t);
    ASSERT_GE(sh, 0);
    ASSERT_LT(sh, 4);
    EXPECT_EQ(sh, b.route(s, t));  // same placement in every run
    EXPECT_EQ(sh, a.route(s, t));  // and stable within a run
    used.insert(sh);
  }
  EXPECT_EQ(used.size(), 4u);  // vnode ring exercises every shard
}

TEST(ShardRouter, BlockLevelCoRouting) {
  const vid_t n = 100000;
  RouterOptions ro;
  ro.shards = 4;
  const ShardRouter r(n, ro);
  // Same (source block, target block) => same key => same shard.
  for (const auto& [s, t] : pair_pool(n, 500)) {
    vid_t s2 = s + 1, t2 = t + 1;
    if (s2 >= n || t2 >= n) continue;
    if (r.locality_key(s, t) == r.locality_key(s2, t2)) {
      EXPECT_EQ(r.route(s, t), r.route(s2, t2));
    }
  }
}

TEST(ShardRouter, ConsistentHashingLimitsReshuffle) {
  const vid_t n = 100000;
  RouterOptions four;
  four.shards = 4;
  RouterOptions five = four;
  five.shards = 5;
  const ShardRouter r4(n, four);
  const ShardRouter r5(n, five);
  const auto pool = pair_pool(n, 4000);
  size_t moved = 0;
  for (const auto& [s, t] : pool) {
    if (r4.route(s, t) != r5.route(s, t)) ++moved;
  }
  // Adding one shard to four should remap roughly 1/5 of the keys; a modulo
  // placement would remap ~4/5. Allow generous slack over the expectation.
  EXPECT_LT(moved, pool.size() / 2)
      << "consistent hashing reshuffled " << moved << "/" << pool.size();
  EXPECT_GT(moved, 0u);  // the new shard does take ownership of something
}

TEST(ShardRouter, SuccessorWalksAllShardsOnce) {
  const ShardRouter r(1000, {.shards = 5});
  for (int sh = 0; sh < 5; ++sh) {
    EXPECT_EQ(r.successor(sh, 0), sh);
    std::set<int> seen;
    for (int step = 0; step < 5; ++step) seen.insert(r.successor(sh, step));
    EXPECT_EQ(seen.size(), 5u);  // a full permutation, no repeats
  }
}

// -------------------------------------------------------- cached-only serving

TEST(QueryCachedOnly, ColdMissThenWarmPrefix) {
  const auto g = test_graph();
  serve::QueryEngine engine(g);
  const vid_t s = 3, t = 250;
  const int k = 6;
  // Cold: nothing cached, degraded-only lookup must refuse, not compute.
  auto cold = engine.query_cached_only(s, t, k);
  EXPECT_EQ(cold.status.code, fault::Status::kOverloaded);
  EXPECT_TRUE(cold.paths.empty());
  // Warm the cache through a normal query, then the degraded answer is an
  // exact prefix of the truth.
  auto full = engine.query(s, t, k);
  ASSERT_EQ(full.status.code, fault::Status::kOk);
  auto warm = engine.query_cached_only(s, t, k);
  EXPECT_EQ(warm.status.code, fault::Status::kOk);
  EXPECT_TRUE(warm.degraded);
  expect_prefix(warm.paths, fresh_peek(g, s, t, k));
}

// --------------------------------------------------------------------- fleet

TEST(ShardFleet, FleetBitIdentity) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 2;
  ShardFleet fleet(g, fo);
  const int k = 6;
  for (const auto& [s, t] : pair_pool(g.num_vertices(), 24)) {
    const auto want = fresh_peek(g, s, t, k);
    // Twice: cold (computes, fills the shard's cache) and warm (cache hit).
    for (int round = 0; round < 2; ++round) {
      auto r = fleet.query(s, t, k);
      ASSERT_EQ(r.result.status.code, fault::Status::kOk)
          << r.result.status.message;
      EXPECT_FALSE(r.result.degraded);
      EXPECT_EQ(r.shard, fleet.router().route(s, t));
      expect_identical(r.result.paths, want);
    }
  }
  wait_drained(fleet);
}

TEST(ShardFleet, InvalidArgumentsRejected) {
  const auto g = test_graph(100);
  ShardFleet fleet(g, {});
  EXPECT_EQ(fleet.query(0, 5, 0).result.status.code,
            fault::Status::kInvalidArgument);
  EXPECT_EQ(fleet.query(-1, 5, 3).result.status.code,
            fault::Status::kInvalidArgument);
  EXPECT_EQ(fleet.query(0, 100, 3).result.status.code,
            fault::Status::kInvalidArgument);
}

// The ISSUE acceptance storm: hedged duplicates racing under injected
// replica stalls, every completed answer bit-identical, losers cancelled,
// nothing leaked.
TEST(ShardFleet, HedgeStormBitIdentity) {
  const auto g = test_graph();
  const int k = 6;
  const auto pool = pair_pool(g.num_vertices(), 12);
  std::vector<std::vector<sssp::Path>> want;
  want.reserve(pool.size());
  for (const auto& [s, t] : pool) want.push_back(fresh_peek(g, s, t, k));

  FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 2;
  fo.hedge = 1ms;
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = 42;
  inj.rate_permille = 200;
  inj.stall = 5ms;
  inj.site_filter = "shard.replica.stall";
  fo.injector = inj;

  const auto fired_before = counter_value("shard.hedges.fired");
  {
    ShardFleet fleet(g, fo);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int ti = 0; ti < kThreads; ++ti) {
      threads.emplace_back([&, ti] {
        for (int q = 0; q < kPerThread; ++q) {
          const size_t i =
              static_cast<size_t>(ti * 7 + q * 3) % pool.size();
          auto r = fleet.query(pool[i].first, pool[i].second, k);
          // Under pure stall injection every query must still succeed —
          // stalls slow replicas down, they never break them.
          if (r.result.status.code != fault::Status::kOk ||
              r.result.degraded) {
            ++failures;
            continue;
          }
          if (r.result.paths.size() != want[i].size()) {
            ++failures;
            continue;
          }
          for (size_t p = 0; p < want[i].size(); ++p) {
            if (r.result.paths[p].verts != want[i][p].verts ||
                r.result.paths[p].dist != want[i][p].dist)
              ++failures;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);
    wait_drained(fleet);
    fleet.publish_latency_metrics();
  }
  // The stalls must actually have provoked hedging for this to test races.
  // (Counter readable only when the obs layer is compiled in; the race and
  // bit-identity coverage above holds either way.)
  if (obs::kEnabled) {
    EXPECT_GT(counter_value("shard.hedges.fired"), fired_before);
  }
  fault::Injector::global().disable();
}

TEST(ShardFleet, SingleShardCrashFailsOverBitIdentical) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 2;
  fo.failover = true;
  ShardFleet fleet(g, fo);
  const auto pool = pair_pool(g.num_vertices(), 40);
  const int k = 5;
  // Crash every replica of the first pool pair's home shard.
  const int dead = fleet.router().route(pool[0].first, pool[0].second);
  for (int r = 0; r < fleet.replicas(); ++r)
    fleet.set_replica_down(dead, r, true);
  for (const auto& [s, t] : pool) {
    auto r = fleet.query(s, t, k);
    ASSERT_EQ(r.result.status.code, fault::Status::kOk)
        << r.result.status.message;
    EXPECT_FALSE(r.result.degraded);
    expect_identical(r.result.paths, fresh_peek(g, s, t, k));
    if (fleet.router().route(s, t) == dead) {
      EXPECT_TRUE(r.failover);
      EXPECT_NE(r.shard, dead);  // served by a ring successor
    }
  }
  wait_drained(fleet);
}

TEST(ShardFleet, SingleShardCrashDegradedNeverWrong) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 1;
  fo.failover = false;  // strict placement: down shard cannot be rerouted
  ShardFleet fleet(g, fo);
  const int k = 5;
  // A pair homed on the shard we are about to crash.
  const auto pool = pair_pool(g.num_vertices(), 8);
  const vid_t s = pool[0].first, t = pool[0].second;
  const int home = fleet.router().route(s, t);
  fleet.set_replica_down(home, 0, true);

  // Cold crash: no surviving cache holds (s, t) => shed, not wrong.
  auto cold = fleet.query(s, t, k);
  EXPECT_EQ(cold.result.status.code, fault::Status::kOverloaded);
  EXPECT_TRUE(cold.result.paths.empty());

  // Warm a survivor's cache directly (as if it had served this pair before
  // the crash), and the same query now degrades to an exact prefix.
  const int survivor = fleet.router().successor(home, 1);
  ASSERT_NE(survivor, home);
  auto warmed = fleet.engine(survivor, 0).query(s, t, k);
  ASSERT_EQ(warmed.status.code, fault::Status::kOk);
  auto deg = fleet.query(s, t, k);
  ASSERT_EQ(deg.result.status.code, fault::Status::kOk)
      << deg.result.status.message;
  EXPECT_TRUE(deg.result.degraded);
  EXPECT_EQ(deg.shard, survivor);
  expect_prefix(deg.result.paths, fresh_peek(g, s, t, k));

  // Recovery: mark the replica up again and full service resumes.
  fleet.set_replica_down(home, 0, false);
  auto back = fleet.query(s, t, k);
  ASSERT_EQ(back.result.status.code, fault::Status::kOk);
  EXPECT_FALSE(back.result.degraded);
  expect_identical(back.result.paths, fresh_peek(g, s, t, k));
  wait_drained(fleet);
}

TEST(ShardFleet, QueueAdmissionShedsButNeverLies) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 1;
  fo.max_queue = 1;  // aggressive routing-tier admission
  fo.failover = false;
  ShardFleet fleet(g, fo);
  const auto pool = pair_pool(g.num_vertices(), 8);
  const int k = 4;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < 8; ++ti) {
    threads.emplace_back([&, ti] {
      for (int q = 0; q < 6; ++q) {
        const auto& [s, t] = pool[static_cast<size_t>(ti + q) % pool.size()];
        auto r = fleet.query(s, t, k);
        if (r.result.status.code == fault::Status::kOk &&
            !r.result.degraded) {
          const auto want = fresh_peek(g, s, t, k);
          if (r.result.paths.size() != want.size()) ++wrong;
        } else if (r.result.status.code != fault::Status::kOk &&
                   r.result.status.code != fault::Status::kOverloaded) {
          ++wrong;  // shedding must be typed kOverloaded, nothing else
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  wait_drained(fleet);
}

// ----------------------------------------------------- health and breakers

TEST(ReplicaBreaker, TripCooldownProbeCloseCycle) {
  HealthOptions ho;
  ho.min_samples = 4;
  ho.trip_threshold = 0.5;
  ho.cooldown = 30ms;
  ho.probe_budget = 1;
  ReplicaBreaker b(ho);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kAdmit);

  // Feed errors until the EWMA trips: closed -> open.
  HealthSignal bad;
  bad.error = true;
  for (int i = 0; i < 8; ++i) b.record(bad);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_LT(b.health(), ho.trip_threshold);
  // During the cooldown every admission is rejected.
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kReject);

  // After the cooldown the next admission half-opens and is the probe;
  // the budget (1) rejects a second concurrent probe.
  std::this_thread::sleep_for(ho.cooldown + 10ms);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kProbe);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kReject);

  // A failed probe re-opens; a successful one closes with health reset.
  b.probe_done(ReplicaBreaker::ProbeOutcome::kFailure);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(ho.cooldown + 10ms);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kProbe);
  b.probe_done(ReplicaBreaker::ProbeOutcome::kSuccess);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.health(), 1.0);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kAdmit);
}

TEST(ReplicaBreaker, ForcedOpenBlocksAutoRecovery) {
  HealthOptions ho;
  ho.cooldown = 1ms;
  ReplicaBreaker b(ho);
  b.force_open();
  EXPECT_TRUE(b.forced_open());
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(5ms);
  // Cooldown elapsed, but a forced-open breaker never half-opens by itself.
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kReject);
  b.force_close();
  EXPECT_FALSE(b.forced_open());
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kAdmit);
}

TEST(ReplicaBreaker, AbandonedProbeReturnsSlotWithoutTransition) {
  HealthOptions ho;
  ho.min_samples = 2;
  ho.cooldown = 1ms;
  ho.probe_budget = 1;
  ReplicaBreaker b(ho);
  HealthSignal bad;
  bad.error = true;
  for (int i = 0; i < 8; ++i) b.record(bad);
  std::this_thread::sleep_for(5ms);
  ASSERT_EQ(b.admit(), ReplicaBreaker::Admission::kProbe);
  // A probe cancelled by a lost hedge race says nothing about the replica:
  // the slot comes back, the breaker stays half-open, the next pick probes.
  b.probe_done(ReplicaBreaker::ProbeOutcome::kAbandoned);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.admit(), ReplicaBreaker::Admission::kProbe);
}

TEST(ShardFleet, InvalidOptionsThrow) {
  const auto g = test_graph(100);
  {
    FleetOptions fo;
    fo.replicas = 0;
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  {
    FleetOptions fo;
    fo.workers_per_replica = 0;
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  {
    FleetOptions fo;
    fo.hedge = -1ms;
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  {
    FleetOptions fo;
    fo.default_deadline = -5ms;
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  {
    FleetOptions fo;
    fo.max_queue = -1;
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  {
    FleetOptions fo;
    fo.router.shards = 0;  // the router validates its own options
    EXPECT_THROW(ShardFleet(g, fo), std::invalid_argument);
  }
  EXPECT_THROW(ShardRouter(100, {.shards = 4, .vnodes = 0}),
               std::invalid_argument);
  EXPECT_THROW(ShardRouter(100, {.shards = 4, .vnodes = 64, .blocks = 0}),
               std::invalid_argument);
}

// The tentpole acceptance cycle: an injected corruption is caught by the
// answer certificate, the victim replica is quarantined, drops its caches,
// warm-restarts from its persisted snapshots, and probes its way back to
// closed — while the query that hit the corruption still returns the exact
// answer via a peer.
TEST(ShardFleet, CertFailureQuarantinesHealsAndReadmits) {
  const auto g = test_graph();
  const auto snap_root = std::filesystem::temp_directory_path() /
                         "peek_test_quarantine";
  std::filesystem::remove_all(snap_root);
  const int k = 5;
  const auto pool = pair_pool(g.num_vertices(), 6);

  FleetOptions fo;
  fo.router.shards = 1;  // all traffic on one shard: deterministic victim
  fo.replicas = 2;
  fo.serve.snapshot_dir = snap_root.string();
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = 9;
  inj.rate_permille = 1000;  // first corrupt probe fires...
  inj.max_fires = 1;         // ...and only the first
  inj.site_filter = "shard.replica.corrupt";
  fo.injector = inj;

  const auto quarantines_before = counter_value("shard.replica.quarantines");
  const auto restarts_before = counter_value("shard.replica.warm_restarts");
  const auto certfail_before = counter_value("serve.certify.failures");
  {
    ShardFleet fleet(g, fo);
    // Warm both replicas engine-direct (bypasses the fleet's corrupt probe)
    // and persist, so the healed replica has snapshots to warm-restart from.
    for (const auto& [s, t] : pool) {
      for (int r = 0; r < fleet.replicas(); ++r) fleet.engine(0, r).query(s, t, k);
    }
    for (int r = 0; r < fleet.replicas(); ++r) fleet.engine(0, r).persist();

    // This query's answer is corrupted in the worker; certification must
    // catch it, quarantine the replica, and still return the exact answer
    // from the peer.
    auto res = fleet.query(pool[0].first, pool[0].second, k);
    ASSERT_EQ(res.result.status.code, fault::Status::kOk)
        << res.result.status.message;
    EXPECT_FALSE(res.result.degraded);
    expect_identical(res.result.paths,
                     fresh_peek(g, pool[0].first, pool[0].second, k));
    if (obs::kEnabled) {
      EXPECT_EQ(counter_value("serve.certify.failures") - certfail_before, 1);
      EXPECT_EQ(counter_value("shard.replica.quarantines") -
                    quarantines_before, 1);
    }

    // Exactly one replica is out (quarantined or already healing); service
    // continues bit-identical throughout.
    fleet.drain_heals();
    if (obs::kEnabled) {
      EXPECT_GE(counter_value("shard.replica.warm_restarts") -
                    restarts_before, 1);
    }
    // The healed engine restored its persisted artifacts (true warm restart,
    // not a cold rebuild).
    int restored = 0;
    for (int r = 0; r < fleet.replicas(); ++r)
      restored += fleet.engine(0, r).restored_artifacts();
    EXPECT_GT(restored, 0);

    // Re-admission without operator intervention: keep querying until both
    // breakers are closed again (half-open probes ride regular traffic).
    bool all_closed = false;
    for (int i = 0; i < 500 && !all_closed; ++i) {
      for (const auto& [s, t] : pool) {
        auto r = fleet.query(s, t, k);
        ASSERT_EQ(r.result.status.code, fault::Status::kOk);
        if (!r.result.degraded)
          expect_identical(r.result.paths, fresh_peek(g, s, t, k));
      }
      all_closed = fleet.breaker_state(0, 0) == BreakerState::kClosed &&
                   fleet.breaker_state(0, 1) == BreakerState::kClosed;
      if (!all_closed) std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(all_closed);
    wait_drained(fleet);
  }
  fault::Injector::global().disable();
  std::error_code ec;
  std::filesystem::remove_all(snap_root, ec);
}

// Compound failure: hedging enabled, a replica hard-down, and a 1 ms
// deadline all in the same query. Whatever wins the race must be typed —
// kOk (bit-identical), kDeadlineExceeded (exact partial prefix), or
// kOverloaded — never a wrong answer, never a crash.
TEST(ShardFleet, CompoundHedgeDownReplicaTightDeadline) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 2;
  fo.hedge = 1ms;
  ShardFleet fleet(g, fo);
  const int k = 5;
  const auto pool = pair_pool(g.num_vertices(), 24);
  // Down one replica on every shard so half the picks bounce into retries.
  for (int sh = 0; sh < fleet.shards(); ++sh)
    fleet.set_replica_down(sh, 0, true);
  for (const auto& [s, t] : pool) {
    serve::QueryOptions qo;
    qo.deadline = 1ms;
    auto r = fleet.query(s, t, k, qo);
    const auto code = r.result.status.code;
    EXPECT_TRUE(code == fault::Status::kOk ||
                code == fault::Status::kDeadlineExceeded ||
                code == fault::Status::kOverloaded)
        << fault::to_string(code) << ": " << r.result.status.message;
    if (code == fault::Status::kOk && !r.result.degraded) {
      expect_identical(r.result.paths, fresh_peek(g, s, t, k));
    } else if (code == fault::Status::kDeadlineExceeded) {
      expect_prefix(r.result.paths, fresh_peek(g, s, t, k));
    }
  }
  wait_drained(fleet);
}

// A cancelled attempt says nothing about its replica: a caller cancelling
// mid-compute, query after query, must not trip the breaker.
TEST(ShardFleet, CancelledAttemptsDoNotTripTheBreaker) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 1;
  fo.replicas = 1;
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.rate_permille = 1000;
  inj.stall = 100ms;  // every dispatched attempt outlives its caller's cancel
  inj.site_filter = "shard.replica.stall";
  fo.injector = inj;
  {
    ShardFleet fleet(g, fo);
    for (const auto& [s, t] : pair_pool(g.num_vertices(), 12)) {
      auto cancel = fault::CancelToken::cancellable();
      std::thread canceller([&cancel] {
        std::this_thread::sleep_for(20ms);
        cancel.cancel();
      });
      serve::QueryOptions qo;
      qo.cancel = &cancel;
      auto r = fleet.query(s, t, 5, qo);
      canceller.join();
      EXPECT_EQ(r.result.status.code, fault::Status::kCancelled)
          << r.result.status.message;
    }
    EXPECT_EQ(fleet.breaker_state(0, 0), BreakerState::kClosed);
    wait_drained(fleet);
  }
  fault::Injector::global().disable();
}

TEST(ShardFleet, LatencyStatsCoverServedShards) {
  const auto g = test_graph();
  FleetOptions fo;
  fo.router.shards = 4;
  ShardFleet fleet(g, fo);
  for (const auto& [s, t] : pair_pool(g.num_vertices(), 32))
    fleet.query(s, t, 4);
  const auto st = fleet.stats();
  ASSERT_EQ(st.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& sl : st) {
    total += sl.count;
    if (sl.count > 0) {
      EXPECT_GE(sl.p99_s, sl.p50_s);
      EXPECT_GT(sl.p99_s, 0.0);
    }
  }
  EXPECT_EQ(total, 32u);
  fleet.publish_latency_metrics();
  if (obs::kEnabled) {
    EXPECT_GT(obs::MetricsRegistry::global()
                  .gauge("shard.p99_seconds")
                  .value(),
              0.0);
  }
}

}  // namespace
}  // namespace peek::shard
