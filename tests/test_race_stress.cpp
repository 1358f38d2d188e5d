// Race-stress suite: hammers every piece of shared-mutable state in the
// library from many threads at once. The assertions double as correctness
// checks, but the real consumer is the PEEK_SANITIZE=thread build (see
// .github/workflows/ci.yml): under that flavor the parallel wrappers run on
// fork/join std::threads, which ThreadSanitizer models exactly, so any data
// race in these code paths — the Δ-stepping relaxation atomics, the
// task-parallel deviation engine, the sharded metrics registry, the lazy CSR
// transpose, the artifact cache and the query engine's coalescing — is
// reported with zero false positives.
//
// Sized for a TSan slowdown of ~10x on a small CI runner: graphs of a few
// hundred vertices, tens of queries per thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "fault/cancel.hpp"
#include "core/batch.hpp"
#include "core/peek.hpp"
#include "graph/csr.hpp"
#include "ksp/optyen.hpp"
#include "ksp/yen.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/sort.hpp"
#include "serve/query_engine.hpp"
#include "shard/fleet.hpp"
#include "shard/health.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

// Every stress point below runs at least this many OS threads (the ISSUE's
// acceptance bar is >= 8).
constexpr int kThreads = 8;

/// Runs `fn(thread_index)` on kThreads std::threads and joins them.
template <typename Fn>
void run_threads(Fn&& fn, int threads = kThreads) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) pool.emplace_back([&fn, w] { fn(w); });
  for (auto& th : pool) th.join();
}

// ------------------------------------------------------------ parallel_for

TEST(RaceStressParallelFor, ConcurrentRegionsOverSharedAtomics) {
  par::ThreadScope scope(kThreads);
  constexpr int kIters = 2000;
  std::vector<std::atomic<std::int64_t>> cells(16);
  for (auto& c : cells) c.store(0, std::memory_order_relaxed);

  // Each driver thread opens its own parallel region over the shared cells:
  // regions race against regions, exactly the serving-layer shape.
  run_threads([&](int) {
    par::parallel_for(0, kIters, [&](int i) {
      cells[static_cast<size_t>(i) % cells.size()].fetch_add(
          1, std::memory_order_relaxed);
    });
    par::parallel_for_dynamic(0, kIters, [&](int i) {
      cells[static_cast<size_t>(i) % cells.size()].fetch_add(
          1, std::memory_order_relaxed);
    });
  });

  std::int64_t total = 0;
  for (auto& c : cells) total += c.load(std::memory_order_relaxed);
  EXPECT_EQ(total, static_cast<std::int64_t>(kThreads) * 2 * kIters);

  const std::int64_t odd =
      par::parallel_count(0, kIters, [](int i) { return i % 2 == 1; });
  EXPECT_EQ(odd, kIters / 2);
}

TEST(RaceStressParallelFor, ThreadIdStaysInsideWorkerRange) {
  par::ThreadScope scope(kThreads);
  const int nt = par::max_threads();
  std::vector<std::atomic<int>> hits(static_cast<size_t>(nt));
  for (auto& h : hits) h.store(0, std::memory_order_relaxed);
  par::parallel_for_dynamic(0, 4096, [&](int) {
    const int id = par::thread_id();
    ASSERT_GE(id, 0);
    ASSERT_LT(id, nt);
    hits[static_cast<size_t>(id)].fetch_add(1, std::memory_order_relaxed);
  });
  std::int64_t total = 0;
  for (auto& h : hits) total += h.load(std::memory_order_relaxed);
  EXPECT_EQ(total, 4096);
}

TEST(RaceStressParallelFor, ConcurrentSortsAndScans) {
  par::ThreadScope scope(kThreads);
  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) + 1);
    std::vector<double> keys(5000);
    for (auto& k : keys)
      k = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto perm = par::sort_permutation(keys);
    for (size_t i = 1; i < perm.size(); ++i) {
      ASSERT_LE(keys[static_cast<size_t>(perm[i - 1])],
                keys[static_cast<size_t>(perm[i])]);
    }
    std::vector<std::int64_t> in(3000, 1);
    const auto out = par::inclusive_prefix_sum(in);
    ASSERT_EQ(out.back(), static_cast<std::int64_t>(in.size()));
  });
}

// ------------------------------------------------------------ graph / CSR

TEST(RaceStressCsr, ConcurrentLazyTransposeWarmup) {
  // The transpose is built lazily behind call_once; racing first calls used
  // to be a double-checked-lock data race.
  for (int round = 0; round < 4; ++round) {
    const auto g = test::random_graph(400, 3000, 100 + round);
    ASSERT_TRUE(check::validate_csr(g));
    std::vector<const graph::CsrGraph*> seen(kThreads, nullptr);
    run_threads([&](int w) {
      seen[static_cast<size_t>(w)] = &g.reverse();
    });
    for (int w = 1; w < kThreads; ++w) EXPECT_EQ(seen[0], seen[w]);
    std::string why;
    EXPECT_TRUE(check::validate_csr(*seen[0], &why)) << why;
    EXPECT_EQ(seen[0]->num_edges(), g.num_edges());
  }
}

// ------------------------------------------------------------ Δ-stepping

TEST(RaceStressDeltaStepping, ConcurrentParallelRunsMatchDijkstra) {
  par::ThreadScope scope(kThreads);
  const auto g = test::random_graph(500, 4000, 7);
  g.warm_reverse();
  const sssp::GraphView view(g);

  // Reference distances and parents (the smallest tight in-neighbour) for
  // the sources each thread will use.
  std::vector<sssp::SsspResult> want(kThreads);
  std::vector<std::vector<vid_t>> want_parent(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    const auto src = static_cast<vid_t>(w * 17 % g.num_vertices());
    want[static_cast<size_t>(w)] = sssp::dijkstra(view, src);
    want_parent[static_cast<size_t>(w)] =
        test::smallest_tight_parents(view, want[static_cast<size_t>(w)], src);
  }

  run_threads([&](int w) {
    const auto src = static_cast<vid_t>(w * 17 % g.num_vertices());
    for (int rep = 0; rep < 3; ++rep) {
      const auto got = sssp::delta_stepping(view, src);
      const auto& ref = want[static_cast<size_t>(w)];
      const auto& ref_parent = want_parent[static_cast<size_t>(w)];
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(got.dist[v], ref.dist[v]) << "v=" << v;
        ASSERT_EQ(got.parent[v], ref_parent[v]) << "v=" << v;
      }
    }
  });
}

// ------------------------------------------------------------ KSP engines

TEST(RaceStressKsp, ConcurrentTaskParallelOptYen) {
  par::ThreadScope scope(kThreads);
  const auto g = test::random_graph(300, 2400, 21);
  g.warm_reverse();
  const auto bi = sssp::BiView::of(g);
  const vid_t s = 3, t = 250;

  ksp::KspOptions serial_opts;
  serial_opts.k = 6;
  const auto want = ksp::yen_ksp(g, s, t, serial_opts);

  run_threads([&](int) {
    ksp::KspOptions opts;
    opts.k = 6;
    opts.parallel = true;  // task-parallel deviations (§6.1)
    const auto got = ksp::optyen_ksp(bi, s, t, opts);
    ASSERT_EQ(got.paths.size(), want.paths.size());
    for (size_t i = 0; i < got.paths.size(); ++i)
      ASSERT_NEAR(got.paths[i].dist, want.paths[i].dist, 1e-9) << i;
  });
}

TEST(RaceStressKsp, ParallelBatchSharedTranspose) {
  par::ThreadScope scope(kThreads);
  const auto g = test::random_graph(300, 2400, 33);
  std::vector<core::BatchQuery> queries;
  for (vid_t s = 0; s < 12; ++s)
    queries.push_back({s, static_cast<vid_t>(280 + (s % 8))});
  core::BatchOptions opts;
  opts.parallel_queries = true;
  opts.per_query.k = 4;
  const auto parallel_out = core::peek_ksp_batch(g, queries, opts);
  opts.parallel_queries = false;
  const auto serial_out = core::peek_ksp_batch(g, queries, opts);
  ASSERT_EQ(parallel_out.results.size(), serial_out.results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& a = parallel_out.results[i].ksp.paths;
    const auto& b = serial_out.results[i].ksp.paths;
    ASSERT_EQ(a.size(), b.size()) << i;
    for (size_t j = 0; j < a.size(); ++j)
      ASSERT_NEAR(a[j].dist, b[j].dist, 1e-9) << i << "/" << j;
  }
}

// ------------------------------------------------------------ obs/metrics

TEST(RaceStressMetrics, ShardedCountersSumExactly) {
  constexpr int kPerThread = 20000;
  auto& reg = obs::MetricsRegistry::global();
  auto& counter = reg.counter("race_stress.counter");
  counter.reset();
  run_threads([&](int) {
    for (int i = 0; i < kPerThread; ++i) counter.inc();
  });
  EXPECT_EQ(counter.value(),
            static_cast<std::int64_t>(kThreads) * kPerThread);
  counter.reset();
}

TEST(RaceStressMetrics, HooksRegistrationSnapshotAndResetChurn) {
  auto& reg = obs::MetricsRegistry::global();
  std::atomic<bool> stop{false};
  // One thread snapshots and resets while the rest register + update through
  // the same macros the pipeline uses (function-local static registration).
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snap = reg.snapshot();
      (void)snap;
    }
  });
  run_threads([&](int w) {
    for (int i = 0; i < 3000; ++i) {
      PEEK_COUNT_INC("race_stress.hook_counter");
      PEEK_COUNT_ADD("race_stress.hook_added", 2);
      PEEK_GAUGE_SET("race_stress.gauge", w);
      PEEK_TIMER_SCOPE("race_stress.span");
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();
#if PEEK_OBS_ENABLED
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("race_stress.hook_counter"));
  EXPECT_EQ(snap.counters.at("race_stress.hook_counter"),
            static_cast<std::int64_t>(kThreads) * 3000);
  EXPECT_EQ(snap.timers.at("race_stress.span").count,
            static_cast<std::uint64_t>(kThreads) * 3000);
#endif
  reg.reset();
}

// ------------------------------------------------------------ artifact cache

TEST(RaceStressArtifactCache, PutGetEvictionChurn) {
  serve::ArtifactCache::Options opts;
  opts.byte_budget = 64 << 10;  // tiny: constant eviction under churn
  opts.shards = 4;
  serve::ArtifactCache cache(opts);

  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) * 7 + 1);
    std::uniform_int_distribution<vid_t> key(0, 63);
    for (int i = 0; i < 400; ++i) {
      const vid_t v = key(rng);
      const auto kind = (v % 2 == 0) ? serve::ArtifactKind::kForwardTree
                                     : serve::ArtifactKind::kReverseTree;
      if (i % 3 == 0) {
        auto tree = std::make_shared<sssp::SsspResult>();
        tree->dist.assign(64 + static_cast<size_t>(v), 1.0);
        tree->parent.assign(64 + static_cast<size_t>(v), kNoVertex);
        cache.put_tree(kind, v, tree, /*generation=*/0);
      } else if (auto hit = cache.get_tree(kind, v, 0)) {
        // Entries are immutable once cached; a hit must be structurally
        // sound even while other threads evict around it.
        ASSERT_EQ(hit->dist.size(), hit->parent.size());
      }
      if (i % 64 == 0) (void)cache.stats();
    }
  });

  const auto stats = cache.stats();
  EXPECT_LE(stats.bytes_used, opts.byte_budget);
}

// ------------------------------------------------------------ query engine

/// Serial ground truth for a pool of queries.
std::map<std::pair<vid_t, vid_t>, std::vector<sssp::Path>> reference_answers(
    const graph::CsrGraph& g, const std::vector<std::pair<vid_t, vid_t>>& pool,
    int k) {
  std::map<std::pair<vid_t, vid_t>, std::vector<sssp::Path>> ref;
  for (const auto& [s, t] : pool) {
    core::PeekOptions po;
    po.k = k;
    ref[{s, t}] = core::peek_ksp(g, s, t, po).ksp.paths;
  }
  return ref;
}

void expect_prefix_of(const std::vector<sssp::Path>& got,
                      const std::vector<sssp::Path>& want, int k) {
  const size_t expect_n =
      std::min(static_cast<size_t>(k), want.size());
  ASSERT_EQ(got.size(), expect_n);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].verts, want[i].verts) << "path " << i;
    ASSERT_EQ(got[i].dist, want[i].dist) << "path " << i;
  }
}

TEST(RaceStressQueryEngine, ConcurrentMixedPoolBitIdentical) {
  const auto g = test::random_graph(400, 3600, 55);
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (vid_t i = 0; i < 10; ++i)
    pool.emplace_back(i, static_cast<vid_t>(350 + i % 6));
  constexpr int kMaxK = 8;
  const auto ref = reference_answers(g, pool, kMaxK);

  serve::ServeOptions so;
  so.cache.byte_budget = 1 << 20;  // small enough to evict under churn
  so.cache.shards = 4;
  so.k_budget_floor = kMaxK;
  serve::QueryEngine engine(g, so);

  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) * 131 + 7);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    std::uniform_int_distribution<int> pick_k(1, kMaxK);
    for (int i = 0; i < 30; ++i) {
      const auto [s, t] = pool[pick(rng)];
      const int k = pick_k(rng);
      const auto out = engine.query(s, t, k);
      expect_prefix_of(out.paths, ref.at({s, t}), k);
    }
  });

  const auto stats = engine.cache().stats();
  EXPECT_LE(stats.bytes_used, so.cache.byte_budget);
}

TEST(RaceStressQueryEngine, CoalescingSingleHotPairUnderInvalidation) {
  const auto g = test::random_graph(350, 3000, 77);
  const vid_t s = 2, t = 333;
  constexpr int kMaxK = 6;
  core::PeekOptions po;
  po.k = kMaxK;
  const auto want = core::peek_ksp(g, s, t, po).ksp.paths;

  serve::ServeOptions so;
  so.k_budget_floor = kMaxK;
  serve::QueryEngine engine(g, so);

  // All threads hammer the same (s, t) — maximal coalescing pressure — while
  // one of them periodically invalidates, forcing fresh computations whose
  // waiters must still get correct answers.
  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) + 3);
    std::uniform_int_distribution<int> pick_k(1, kMaxK);
    for (int i = 0; i < 25; ++i) {
      if (w == 0 && i % 8 == 4) engine.invalidate();
      const int k = pick_k(rng);
      const auto out = engine.query(s, t, k);
      expect_prefix_of(out.paths, want, k);
    }
  });
}

TEST(RaceStressQueryEngine, EvictionChurnWithSnapshotValidation) {
  const auto g = test::random_graph(300, 2400, 99);
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (vid_t i = 0; i < 24; ++i)  // more pairs than the tiny cache can hold
    pool.emplace_back(i, static_cast<vid_t>(250 + i % 12));
  constexpr int kMaxK = 4;
  const auto ref = reference_answers(g, pool, kMaxK);

  serve::ServeOptions so;
  so.cache.byte_budget = 96 << 10;  // forces continuous snapshot eviction
  so.cache.shards = 2;
  so.k_budget_floor = kMaxK;
  serve::QueryEngine engine(g, so);

  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) * 17 + 5);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    for (int i = 0; i < 25; ++i) {
      const auto [s, t] = pool[pick(rng)];
      const auto out = engine.query(s, t, kMaxK);
      expect_prefix_of(out.paths, ref.at({s, t}), kMaxK);
      // The debug-only CSR validator doubles as a published-state probe:
      // any snapshot currently in cache must hold a structurally valid
      // compacted graph even mid-churn.
      if (auto snap = engine.cache().get_snapshot(s, t, engine.generation());
          snap && snap->graph) {
        std::string why;
        ASSERT_TRUE(check::validate_csr(*snap->graph, &why)) << why;
      }
    }
  });
}

TEST(RaceStressQueryEngine, MidFlightCancellationLeavesNoDebris) {
  // Cancelled, deadline-capped, and normal queries interleave on the same
  // engine. The contract under TSan: no race, no leaked in-flight entry, and
  // every answer — partial or complete — is an exact prefix of the fresh
  // core::peek_ksp result for its pair.
  const auto g = test::random_graph(400, 3600, 123);
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (vid_t i = 0; i < 8; ++i)
    pool.emplace_back(i, static_cast<vid_t>(350 + i % 6));
  constexpr int kMaxK = 6;
  const auto ref = reference_answers(g, pool, kMaxK);

  const auto expect_exact_prefix = [](const std::vector<sssp::Path>& got,
                                      const std::vector<sssp::Path>& want) {
    ASSERT_LE(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].verts, want[i].verts) << "path " << i;
      ASSERT_EQ(got[i].dist, want[i].dist) << "path " << i;
    }
  };

  serve::ServeOptions so;
  so.k_budget_floor = kMaxK;
  serve::QueryEngine engine(g, so);

  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) * 91 + 17);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    for (int i = 0; i < 18; ++i) {
      const auto [s, t] = pool[pick(rng)];
      const auto& want = ref.at({s, t});
      switch (i % 3) {
        case 0: {  // un-cancelled: must stay bit-identical under the storm
          const auto out = engine.query(s, t, kMaxK);
          ASSERT_TRUE(out.status.ok());
          expect_prefix_of(out.paths, want, kMaxK);
          break;
        }
        case 1: {  // token cancelled from a second thread mid-flight
          auto tok = fault::CancelToken::cancellable();
          std::thread killer([&tok] {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            tok.cancel();
          });
          serve::QueryOptions qo;
          qo.cancel = &tok;
          const auto out = engine.query(s, t, kMaxK, qo);
          killer.join();
          if (out.status.ok()) {
            expect_prefix_of(out.paths, want, kMaxK);
          } else {
            ASSERT_EQ(out.status.code, fault::Status::kCancelled);
            expect_exact_prefix(out.paths, want);
          }
          break;
        }
        default: {  // microscopic deadline: typed trip, exact partial answer
          serve::QueryOptions qo;
          qo.deadline = std::chrono::milliseconds(1);
          const auto out = engine.query(s, t, kMaxK, qo);
          if (out.status.ok()) {
            expect_prefix_of(out.paths, want, kMaxK);
          } else {
            ASSERT_EQ(out.status.code, fault::Status::kDeadlineExceeded);
            expect_exact_prefix(out.paths, want);
          }
          break;
        }
      }
    }
  });

  // No debris: the coalescing map drained and every admission slot returned.
  EXPECT_EQ(engine.inflight_entries(), 0u);
  EXPECT_EQ(engine.admitted_now(), 0);
  // The cache survived the cancellation storm: every pair still answers
  // exactly on a quiet engine.
  for (const auto& [key, want] : ref) {
    const auto out = engine.query(key.first, key.second, kMaxK);
    ASSERT_TRUE(out.status.ok());
    expect_prefix_of(out.paths, want, kMaxK);
  }
}

TEST(RaceStressQueryEngine, ParallelPipelineUnderConcurrentCallers) {
  // opts.peek.parallel = true: the engine's misses run the parallel pipeline
  // (Δ-stepping + task-parallel deviations) while the callers themselves are
  // std::threads — both levels of concurrency at once.
  par::ThreadScope scope(kThreads);
  const auto g = test::random_graph(250, 2000, 11);
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (vid_t i = 0; i < 6; ++i)
    pool.emplace_back(i, static_cast<vid_t>(200 + i));
  constexpr int kMaxK = 4;
  const auto ref = reference_answers(g, pool, kMaxK);

  serve::ServeOptions so;
  so.peek.parallel = true;
  so.k_budget_floor = kMaxK;
  serve::QueryEngine engine(g, so);

  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) + 41);
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    for (int i = 0; i < 8; ++i) {
      const auto [s, t] = pool[pick(rng)];
      const auto out = engine.query(s, t, kMaxK);
      expect_prefix_of(out.paths, ref.at({s, t}), kMaxK);
    }
  });
}

// ------------------------------------------------------------ breakers

TEST(RaceStressBreaker, AdmitRecordProbeFromManyThreads) {
  // Hammer one ReplicaBreaker's whole surface from kThreads threads: the
  // admission path, health recording with mixed signals, probe completions,
  // and operator force-open/close — TSan models every transition edge.
  shard::HealthOptions ho;
  ho.min_samples = 4;
  // Zero cooldown: a tripped breaker is immediately probe-eligible, so the
  // microsecond-scale storm exercises open -> half-open -> close edges.
  ho.cooldown = std::chrono::milliseconds(0);
  ho.probe_budget = 2;
  shard::ReplicaBreaker breaker(ho);
  std::atomic<long> probes{0};
  run_threads([&](int w) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(w) + 97);
    std::uniform_int_distribution<int> coin(0, 99);
    for (int i = 0; i < 400; ++i) {
      const auto adm = breaker.admit();
      if (adm == shard::ReplicaBreaker::Admission::kProbe) {
        ++probes;
        breaker.probe_done(coin(rng) < 50
                               ? shard::ReplicaBreaker::ProbeOutcome::kSuccess
                               : shard::ReplicaBreaker::ProbeOutcome::kFailure);
      }
      shard::HealthSignal sig;
      sig.ok = coin(rng) < 55;  // hover near the trip threshold
      sig.error = !sig.ok;
      breaker.record(sig);
      if (coin(rng) == 0) breaker.force_open();
      if (coin(rng) == 1) breaker.force_close();
      // Invariants that must hold at every interleaving.
      const double h = breaker.health();
      ASSERT_GE(h, 0.0);
      ASSERT_LE(h, 1.0);
    }
  });
  // The storm must actually have exercised the half-open path.
  EXPECT_GT(probes.load(), 0);
  breaker.force_close();
  EXPECT_EQ(breaker.state(), shard::BreakerState::kClosed);
}

TEST(RaceStressBreaker, FleetStormWithChaosTogglesStaysTyped) {
  // The §14 state machine under real traffic: concurrent fleet queries with
  // injected bounces and stalls, while a chaos thread force-opens and
  // force-closes replicas. Every result must be typed and every non-degraded
  // kOk answer exact; breakers trip, half-open and close concurrently.
  const auto g = test::random_graph(300, 2400, 23);
  std::vector<std::pair<vid_t, vid_t>> pool;
  for (vid_t i = 0; i < 6; ++i)
    pool.emplace_back(i, static_cast<vid_t>(250 + i));
  constexpr int kMaxK = 4;
  const auto ref = reference_answers(g, pool, kMaxK);

  shard::FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 2;
  fo.workers_per_replica = 2;
  fo.hedge = std::chrono::milliseconds(1);
  fo.health.cooldown = std::chrono::milliseconds(5);
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = 17;
  inj.rate_permille = 150;
  inj.stall = std::chrono::milliseconds(1);
  inj.site_filter = "shard.replica.down,shard.replica.stall";
  fo.injector = inj;
  {
    shard::ShardFleet fleet(g, fo);
    std::atomic<bool> stop{false};
    std::thread chaos([&] {
      std::mt19937_64 rng(5);
      std::uniform_int_distribution<int> sh(0, fleet.shards() - 1);
      std::uniform_int_distribution<int> rep(0, fleet.replicas() - 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const int a = sh(rng), b = rep(rng);
        fleet.set_replica_down(a, b, true);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        fleet.set_replica_down(a, b, false);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    run_threads([&](int w) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(w) + 3);
      std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
      for (int i = 0; i < 20; ++i) {
        const auto [s, t] = pool[pick(rng)];
        const auto r = fleet.query(s, t, kMaxK);
        const auto code = r.result.status.code;
        ASSERT_TRUE(code == fault::Status::kOk ||
                    code == fault::Status::kOverloaded ||
                    code == fault::Status::kDeadlineExceeded)
            << fault::to_string(code);
        if (code == fault::Status::kOk && !r.result.degraded) {
          const auto& want = ref.at({s, t});
          ASSERT_EQ(r.result.paths.size(), want.size());
          for (size_t p = 0; p < want.size(); ++p) {
            ASSERT_EQ(r.result.paths[p].verts, want[p].verts);
            ASSERT_EQ(r.result.paths[p].dist, want[p].dist);
          }
        }
      }
    });
    stop.store(true);
    chaos.join();
    // Chaos off: the fleet converges back to full health on its own.
    fault::Injector::global().disable();
    for (int sh = 0; sh < fleet.shards(); ++sh)
      for (int rp = 0; rp < fleet.replicas(); ++rp)
        fleet.set_replica_down(sh, rp, false);
    bool all_closed = false;
    for (int i = 0; i < 500 && !all_closed; ++i) {
      for (const auto& [s, t] : pool) fleet.query(s, t, kMaxK);
      all_closed = true;
      for (int sh = 0; sh < fleet.shards(); ++sh)
        for (int rp = 0; rp < fleet.replicas(); ++rp)
          all_closed = all_closed && fleet.breaker_state(sh, rp) ==
                                         shard::BreakerState::kClosed;
      if (!all_closed) std::this_thread::sleep_for(
          std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(all_closed);
  }
  fault::Injector::global().disable();
}

}  // namespace
}  // namespace peek
