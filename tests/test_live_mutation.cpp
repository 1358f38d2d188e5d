// Live-mutation pipeline (DESIGN.md §15): cone thresholds, repair-seeded
// recovery, pair impact classification, bounded-staleness serving, crash
// fallback, and fleet-wide epoch fencing.
//
// The load-bearing properties proved here:
//   - cone_threshold is sound: every vertex outside the cone keeps its exact
//     pre-mutation distance, and repair_trees produces a tree bit-identical
//     to a from-scratch Dijkstra on the post-mutation graph.
//   - pair_impact is sound: unaffected pairs answer bit-identically across
//     the mutation; reweight-affected pairs move each order statistic by at
//     most weight_bound.
//   - Every stale answer the engine serves carries a bound the true
//     post-mutation answer respects, and a repair crash falls back to full
//     recompute — never an unbounded-stale answer.
//   - A batch (and its repair) landing between a query's read and its
//     answer leaves the answer exact for the epoch it read.
//
// The injector and the metrics registry are process-global, so injector
// tests read metrics as before/after deltas and disable injection on
// teardown (same discipline as tests/test_fault.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/peek.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/dynamic_sssp.hpp"
#include "dyn/repair.hpp"
#include "dyn/update_batch.hpp"
#include "fault/injector.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"
#include "shard/fleet.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

std::int64_t metric(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

std::vector<sssp::Path> true_ksp(const graph::CsrGraph& g, vid_t s, vid_t t,
                                 int k) {
  core::PeekOptions po;
  po.k = k;
  return core::peek_ksp(g, s, t, po).ksp.paths;
}

void expect_paths_identical(const std::vector<sssp::Path>& a,
                            const std::vector<sssp::Path>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dist, b[i].dist) << "rank " << i;
    EXPECT_EQ(a[i].verts, b[i].verts) << "rank " << i;
  }
}

// 0 -> 1 -> 2 -> 3, unit weights. Forward dist from 0: [0, 1, 2, 3].
graph::CsrGraph chain4() {
  return graph::from_edges(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
}

// -- Cone geometry on hand-built graphs -------------------------------------

TEST(ConeThreshold, ForwardReweightAnchorsAtTail) {
  auto csr = chain4();
  dyn::DynamicGraph g(csr);
  auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);

  auto b = dyn::apply(g, dyn::UpdateBatch{}.reweight(2, 3, 5.0));
  ASSERT_TRUE(b.any_applied());
  EXPECT_FALSE(b.structural());

  // First-batch-edge bound: dist[2] + min(1, 5) = 3. Only vertex 3 is in the
  // cone; 0..2 keep their exact pre-mutation distances.
  weight_t th = dyn::cone_threshold(b, fwd, /*reverse=*/false);
  EXPECT_DOUBLE_EQ(th, 3.0);
  auto mask = dyn::cone_mask(fwd, th);
  EXPECT_EQ(mask[0], 0);
  EXPECT_EQ(mask[1], 0);
  EXPECT_EQ(mask[2], 0);
  EXPECT_NE(mask[3], 0);
}

TEST(ConeThreshold, ReverseTreeAnchorsAtHead) {
  auto csr = chain4();
  dyn::DynamicGraph g(csr);
  csr.warm_reverse();
  // Reverse tree to root 3: dist[x] = x -> 3 = [3, 2, 1, 0].
  auto rev = sssp::dijkstra(sssp::GraphView(csr.reverse()), 3);
  ASSERT_EQ(rev.dist[0], 3.0);

  auto b = dyn::apply(g, dyn::UpdateBatch{}.reweight(2, 3, 5.0));
  // Reverse orientation anchors at v = 3: dist[3] + min(1, 5) = 1, so every
  // vertex that reaches the root through (2,3) — all of 0, 1, 2 — is inside.
  weight_t th = dyn::cone_threshold(b, rev, /*reverse=*/true);
  EXPECT_DOUBLE_EQ(th, 1.0);
  auto mask = dyn::cone_mask(rev, th);
  EXPECT_NE(mask[0], 0);
  EXPECT_NE(mask[1], 0);
  EXPECT_NE(mask[2], 0);
  EXPECT_EQ(mask[3], 0);
}

TEST(ConeThreshold, UnreachableAnchorContributesNothing) {
  // 0 -> 1 -> 2 plus isolated vertices 3, 4: an op anchored at an
  // unreachable tail cannot be the first batch edge of any path from 0.
  auto csr = graph::from_edges(5, {{0, 1, 1.0}, {1, 2, 1.0}});
  dyn::DynamicGraph g(csr);
  auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);
  ASSERT_EQ(fwd.dist[3], kInfDist);

  auto b = dyn::apply(g, dyn::UpdateBatch{}.insert(3, 4, 1.0));
  EXPECT_EQ(dyn::cone_threshold(b, fwd, false), kInfDist);

  // Mixed batch: the reachable op alone sets the bound.
  auto b2 = dyn::apply(g, dyn::UpdateBatch{}
                              .reweight(0, 1, 2.0)
                              .insert(3, 0, 7.0));
  EXPECT_DOUBLE_EQ(dyn::cone_threshold(b2, fwd, false), 1.0);
}

TEST(ConeThreshold, InsertShortcutAndNoopDelete) {
  auto csr = chain4();
  dyn::DynamicGraph g(csr);
  auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);

  // Deleting a non-existent edge applies nothing: no cone at all.
  auto noop = dyn::apply(g, dyn::UpdateBatch{}.erase(0, 3));
  EXPECT_FALSE(noop.any_applied());
  EXPECT_EQ(dyn::cone_threshold(noop, fwd, false), kInfDist);

  // Inserting a shortcut 0 -> 3 of weight 0.5 poisons everything past
  // dist[0] + 0.5.
  auto b = dyn::apply(g, dyn::UpdateBatch{}.insert(0, 3, 0.5));
  EXPECT_TRUE(b.structural());
  weight_t th = dyn::cone_threshold(b, fwd, false);
  EXPECT_DOUBLE_EQ(th, 0.5);
  auto mask = dyn::cone_mask(fwd, th);
  EXPECT_EQ(mask[0], 0);
  EXPECT_NE(mask[1], 0);
  EXPECT_NE(mask[2], 0);
  EXPECT_NE(mask[3], 0);
}

TEST(ConeMask, UnreachableVerticesAlwaysInside) {
  auto csr = graph::from_edges(5, {{0, 1, 1.0}, {1, 2, 1.0}});
  auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);
  // A batch can connect a previously-unreachable vertex, so no finite
  // threshold may ever exclude one.
  auto mask = dyn::cone_mask(fwd, /*threshold=*/1000.0);
  EXPECT_NE(mask[3], 0);
  EXPECT_NE(mask[4], 0);
  EXPECT_EQ(mask[0], 0);
}

TEST(ConeMask, IsTheRegionRepairReopens) {
  // Repair seeding keeps exactly the vertices outside the mask settled, so
  // the cone checked above is the one repair re-runs.
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    const vid_t n = 80;
    auto csr = test::random_graph(n, 320, seed);
    dyn::DynamicGraph g(csr);
    auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);
    auto b = dyn::apply(g, dyn::UpdateBatch{}.reweight(
                               0, csr.edge_target(csr.edge_begin(0)), 0.5));
    const weight_t th = dyn::cone_threshold(b, fwd, /*reverse=*/false);
    auto post = g.to_csr();
    post.warm_reverse();
    const sssp::GraphView view(post), rview(post.reverse());
    sssp::DijkstraWorkspace ws;
    dyn::seed_cone_repair(view, rview, 0, fwd, th, ws);
    const auto mask = dyn::cone_mask(fwd, th);
    for (vid_t v = 0; v < n; ++v) {
      EXPECT_EQ(ws.settled(v), mask[v] == 0) << "seed " << seed << " v " << v;
    }
  }
}

// -- Randomized mutation sequences vs. rebuilt-from-scratch truth ------------

TEST(RandomizedMutations, DynamicDijkstraMatchesRebuiltCsr) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    const vid_t n = 120;
    auto csr = test::random_graph(n, 700, seed);
    dyn::DynamicGraph g(csr);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> w(0.05, 1.0);

    for (int round = 0; round < 5; ++round) {
      dyn::UpdateBatch ub;
      for (int i = 0; i < 25; ++i) {
        vid_t u = static_cast<vid_t>(rng() % n);
        vid_t v = static_cast<vid_t>(rng() % n);
        if (u == v) continue;
        switch (rng() % 3) {
          case 0: ub.insert(u, v, w(rng)); break;
          case 1: ub.erase(u, v); break;   // often a no-op — intentional
          default: ub.reweight(u, v, w(rng)); break;
        }
      }
      dyn::apply(g, ub);

      // The incremental structure and a from-scratch CSR rebuild must agree
      // bit-for-bit on every distance (unreachable included).
      auto rebuilt = g.to_csr();
      for (vid_t src : {vid_t{0}, vid_t{17}, vid_t{63}}) {
        auto dynd = dyn::dynamic_dijkstra(g, src);
        auto flat = sssp::dijkstra(sssp::GraphView(rebuilt), src);
        ASSERT_EQ(dynd.dist.size(), flat.dist.size());
        for (vid_t x = 0; x < n; ++x)
          EXPECT_EQ(dynd.dist[x], flat.dist[x])
              << "seed " << seed << " round " << round << " src " << src
              << " vertex " << x;
      }
    }
  }
}

TEST(RandomizedMutations, DisconnectingTargetGoesInfiniteBothWays) {
  auto csr = chain4();
  dyn::DynamicGraph g(csr);
  dyn::apply(g, dyn::UpdateBatch{}.erase(1, 2));
  auto dynd = dyn::dynamic_dijkstra(g, 0);
  auto flat = sssp::dijkstra(sssp::GraphView(g.to_csr()), 0);
  EXPECT_EQ(dynd.dist[2], kInfDist);
  EXPECT_EQ(dynd.dist[3], kInfDist);
  EXPECT_EQ(flat.dist[2], kInfDist);
  EXPECT_EQ(flat.dist[3], kInfDist);
}

TEST(RandomizedMutations, RepairMatchesFreshDijkstra) {
  for (std::uint64_t seed : {7u, 77u, 777u}) {
    const vid_t n = 140;
    auto csr = test::random_graph(n, 900, seed);
    dyn::DynamicGraph g(csr);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> w(0.05, 1.0);

    const vid_t root = static_cast<vid_t>(seed % n);
    auto base_f = std::make_shared<sssp::SsspResult>(
        sssp::dijkstra(sssp::GraphView(csr), root));
    csr.warm_reverse();
    auto base_r = std::make_shared<sssp::SsspResult>(
        sssp::dijkstra(sssp::GraphView(csr.reverse()), root));

    // A mixed batch: reweight real edges (picked from the CSR) plus a
    // structural insert and delete.
    dyn::UpdateBatch ub;
    for (int i = 0; i < 6; ++i) {
      eid_t e = static_cast<eid_t>(rng() % static_cast<std::uint64_t>(
                                              csr.num_edges()));
      vid_t u = 0;
      while (csr.edge_end(u) <= e) ++u;
      ub.reweight(u, csr.edge_target(e), w(rng));
    }
    ub.insert(static_cast<vid_t>(rng() % n), static_cast<vid_t>(rng() % n),
              w(rng));
    ub.erase(0, csr.edge_target(csr.edge_begin(0)));
    auto b = dyn::apply(g, ub);
    ASSERT_TRUE(b.any_applied());

    auto post = g.to_csr();
    post.warm_reverse();

    std::vector<dyn::RepairJob> jobs;
    weight_t thf = dyn::cone_threshold(b, *base_f, false);
    weight_t thr = dyn::cone_threshold(b, *base_r, true);
    if (thf != kInfDist) jobs.push_back({root, false, thf, base_f});
    if (thr != kInfDist) jobs.push_back({root, true, thr, base_r});

    auto rr = dyn::repair_trees(post, jobs);
    ASSERT_EQ(rr.status.code, fault::Status::kOk);
    ASSERT_EQ(rr.trees.size(), jobs.size());

    for (size_t j = 0; j < jobs.size(); ++j) {
      auto fresh = sssp::dijkstra(
          sssp::GraphView(jobs[j].reverse ? post.reverse() : post), root);
      ASSERT_NE(rr.trees[j], nullptr);
      for (vid_t x = 0; x < n; ++x)
        EXPECT_EQ(rr.trees[j]->dist[x], fresh.dist[x])
            << "seed " << seed << (jobs[j].reverse ? " rev" : " fwd")
            << " vertex " << x;
    }
    // An infinite threshold claims the whole tree survived — hold it to that.
    if (thf == kInfDist) {
      auto fresh = sssp::dijkstra(sssp::GraphView(post), root);
      for (vid_t x = 0; x < n; ++x) EXPECT_EQ(base_f->dist[x], fresh.dist[x]);
    }
  }
}

TEST(PairImpact, ReweightClassificationIsSound) {
  for (std::uint64_t seed : {31u, 41u, 59u}) {
    const vid_t n = 100;
    const int k = 6;
    auto csr = test::random_graph(n, 600, seed);
    dyn::DynamicGraph g(csr);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> w(0.05, 1.0);
    csr.warm_reverse();

    struct Pair {
      vid_t s, t;
      sssp::SsspResult fwd, rev;
      std::vector<sssp::Path> pre;
      weight_t upper = kInfDist;
    };
    std::vector<Pair> pairs;
    for (auto [s, t] : {std::pair<vid_t, vid_t>{0, 50},
                        {3, 70},
                        {10, 90}}) {
      Pair p;
      p.s = s;
      p.t = t;
      p.fwd = sssp::dijkstra(sssp::GraphView(csr), s);
      p.rev = sssp::dijkstra(sssp::GraphView(csr.reverse()), t);
      core::PeekOptions po;
      po.k = k;
      auto r = core::peek_ksp(csr, s, t, po);
      p.pre = r.ksp.paths;
      p.upper = r.upper_bound;
      if (!p.pre.empty()) pairs.push_back(std::move(p));
    }
    ASSERT_FALSE(pairs.empty());

    // Reweight-only batch over real edges.
    dyn::UpdateBatch ub;
    for (int i = 0; i < 8; ++i) {
      eid_t e = static_cast<eid_t>(rng() % static_cast<std::uint64_t>(
                                              csr.num_edges()));
      vid_t u = 0;
      while (csr.edge_end(u) <= e) ++u;
      ub.reweight(u, csr.edge_target(e), w(rng));
    }
    auto b = dyn::apply(g, ub);
    ASSERT_FALSE(b.structural());
    auto post = g.to_csr();

    for (const auto& p : pairs) {
      auto pi = dyn::pair_impact(b, &p.fwd, &p.rev, p.upper);
      auto now = true_ksp(post, p.s, p.t, k);
      if (!pi.affected) {
        expect_paths_identical(p.pre, now);
      } else {
        ASSERT_FALSE(pi.structural);  // reweight-only batch
        // Same path space, so the answer count is unchanged and every order
        // statistic moved by at most the cumulative reweight mass.
        ASSERT_EQ(p.pre.size(), now.size());
        for (size_t i = 0; i < now.size(); ++i)
          EXPECT_LE(std::abs(p.pre[i].dist - now[i].dist),
                    pi.weight_bound + 1e-9)
              << "seed " << seed << " pair (" << p.s << "," << p.t
              << ") rank " << i;
      }
    }
  }
}

TEST(PairImpact, StructuralOpsForbidStaleness) {
  auto csr = chain4();
  dyn::DynamicGraph g(csr);
  auto fwd = sssp::dijkstra(sssp::GraphView(csr), 0);
  csr.warm_reverse();
  auto rev = sssp::dijkstra(sssp::GraphView(csr.reverse()), 3);

  auto b = dyn::apply(g, dyn::UpdateBatch{}.insert(0, 3, 0.5));
  auto pi = dyn::pair_impact(b, &fwd, &rev, /*upper_bound=*/10.0);
  EXPECT_TRUE(pi.affected);
  EXPECT_TRUE(pi.structural);

  // Null trees must degrade to the conservative classification, never to a
  // silent "unaffected".
  auto pic = dyn::pair_impact(b, nullptr, nullptr, 10.0);
  EXPECT_TRUE(pic.affected);
  EXPECT_TRUE(pic.structural);
}

// -- The batch log ------------------------------------------------------------

TEST(BatchLog, BoundsOnlyReweightOnlyRangesItStillHolds) {
  // One applied op on edge (0, 1), stamped with `epoch`.
  auto batch = [](std::uint64_t epoch, dyn::OpKind kind, weight_t old_w,
                  weight_t new_w) {
    dyn::AppliedBatch b;
    b.epoch = epoch;
    b.ops.push_back({{kind, 0, 1, new_w}, old_w, true});
    return b;
  };
  dyn::BatchLog log;
  log.record(batch(1, dyn::OpKind::kReweight, 1.0, 3.0));   // |Δw| 2
  log.record(batch(2, dyn::OpKind::kReweight, 1.0, 1.5));   // |Δw| 0.5
  log.record(batch(3, dyn::OpKind::kInsert, kInfDist, 0.5));  // structural
  log.record(batch(4, dyn::OpKind::kReweight, 2.0, 1.0));   // |Δw| 1

  // Reweight-only ranges sum their batches.
  EXPECT_EQ(log.bound(0, 2), std::optional<weight_t>(2.5));
  EXPECT_EQ(log.bound(1, 2), std::optional<weight_t>(0.5));
  EXPECT_EQ(log.bound(3, 4), std::optional<weight_t>(1.0));
  // An empty range costs nothing.
  EXPECT_EQ(log.bound(2, 2), std::optional<weight_t>(0.0));
  EXPECT_EQ(log.bound(0, 0), std::optional<weight_t>(0.0));
  // A structural batch in range has no weight bound.
  EXPECT_FALSE(log.bound(2, 3).has_value());
  EXPECT_FALSE(log.bound(0, 4).has_value());
  // Nor does a range the log never held, or a backwards one.
  EXPECT_FALSE(log.bound(4, 5).has_value());
  EXPECT_FALSE(log.bound(2, 1).has_value());

  // Once kCapacity later batches are recorded, epoch 4 has left the log.
  const auto last = static_cast<std::uint64_t>(4 + dyn::BatchLog::kCapacity);
  for (std::uint64_t e = 5; e <= last; ++e)
    log.record(batch(e, dyn::OpKind::kReweight, 1.0, 2.0));
  EXPECT_FALSE(log.bound(3, 4).has_value());
  EXPECT_FALSE(log.bound(3, last).has_value());
  EXPECT_EQ(log.bound(4, last),
            std::optional<weight_t>(
                static_cast<weight_t>(dyn::BatchLog::kCapacity)));
}

// -- Engine: surgical invalidation and bounded-staleness serving -------------

// Two disjoint diamonds: 0..3 and 4..7, two paths each.
graph::CsrGraph two_diamonds() {
  return graph::from_edges(8, {{0, 1, 1.0},
                               {1, 3, 1.0},
                               {0, 2, 2.0},
                               {2, 3, 2.0},
                               {4, 5, 1.0},
                               {5, 7, 1.0},
                               {4, 6, 2.0},
                               {6, 7, 2.0}});
}

class LiveEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disable(); }
};

TEST_F(LiveEngineTest, UnaffectedPairsStayCachedAcrossBatches) {
  auto csr = two_diamonds();
  dyn::DynamicGraph dg(csr);
  serve::ServeOptions so;
  serve::QueryEngine eng(dg, so);

  auto r03 = eng.query(0, 3, 2);
  auto r47 = eng.query(4, 7, 2);
  ASSERT_EQ(r03.status.code, fault::Status::kOk);
  ASSERT_EQ(r47.status.code, fault::Status::kOk);

  auto b = eng.apply_batch(dyn::UpdateBatch{}.reweight(5, 7, 10.0));
  EXPECT_EQ(b.epoch, 1u);
  EXPECT_EQ(eng.mutation_epoch(), 1u);
  eng.drain_repairs();
  EXPECT_EQ(eng.repaired_epoch(), 1u);
  EXPECT_EQ(eng.stale_entries(), 0u);

  // The untouched component's snapshot survived the sweep: it answers from
  // cache, fresh, restamped to the new epoch.
  auto r03b = eng.query(0, 3, 2);
  ASSERT_EQ(r03b.status.code, fault::Status::kOk);
  EXPECT_TRUE(r03b.snapshot_hit);
  EXPECT_FALSE(r03b.staleness.stale);
  expect_paths_identical(r03b.paths, r03.paths);
  EXPECT_EQ(eng.cache()
                .epoch_of(serve::ArtifactKind::kSnapshot, 0, 3)
                .value_or(99),
            1u);

  // The mutated component answers fresh against the post-mutation graph.
  auto post = dg.to_csr();
  auto r47b = eng.query(4, 7, 2);
  ASSERT_EQ(r47b.status.code, fault::Status::kOk);
  EXPECT_FALSE(r47b.staleness.stale);
  expect_paths_identical(r47b.paths, true_ksp(post, 4, 7, 2));
}

TEST_F(LiveEngineTest, StaleAnswerCarriesSoundBound) {
  auto csr = two_diamonds();
  dyn::DynamicGraph dg(csr);
  serve::ServeOptions so;
  // Stall the repair kernel so the stale-serving window is wide enough to
  // query into deterministically.
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.rate_permille = 1000;
  cfg.stall = std::chrono::milliseconds(400);
  cfg.site_filter = "dyn.repair.stall";
  so.injector = cfg;
  serve::QueryEngine eng(dg, so);

  auto pre = eng.query(4, 7, 2);
  ASSERT_EQ(pre.status.code, fault::Status::kOk);

  const std::int64_t stale_before = metric("serve.stale_answers");
  auto b = eng.apply_batch(dyn::UpdateBatch{}.reweight(5, 7, 10.0));
  ASSERT_EQ(b.epoch, 1u);

  // Repair is parked in the stall; the affected pair serves bounded-stale.
  auto r = eng.query(4, 7, 2);
  ASSERT_EQ(r.status.code, fault::Status::kOk);
  ASSERT_TRUE(r.staleness.stale);
  EXPECT_EQ(r.staleness.epoch, 0u);
  EXPECT_EQ(r.staleness.epochs_behind, 1u);
  EXPECT_DOUBLE_EQ(r.staleness.weight_bound, 9.0);  // |10 - 1|
  if (obs::kEnabled) {
    EXPECT_GT(metric("serve.stale_answers"), stale_before);
  }

  // The served paths are the exact epoch-0 answer, and the bound covers the
  // true post-mutation answer rank by rank.
  expect_paths_identical(r.paths, pre.paths);
  auto post = dg.to_csr();
  auto now = true_ksp(post, 4, 7, 2);
  ASSERT_EQ(r.paths.size(), now.size());
  for (size_t i = 0; i < now.size(); ++i)
    EXPECT_LE(std::abs(r.paths[i].dist - now[i].dist),
              r.staleness.weight_bound + 1e-9);

  // Once the repair lands, the same query is fresh and exact.
  fault::Injector::global().disable();
  eng.drain_repairs();
  EXPECT_EQ(eng.stale_entries(), 0u);
  auto r2 = eng.query(4, 7, 2);
  ASSERT_EQ(r2.status.code, fault::Status::kOk);
  EXPECT_FALSE(r2.staleness.stale);
  expect_paths_identical(r2.paths, now);
}

// Runs query (s, t, k) with a one-shot 300 ms stall right after its read,
// and lands reweight(5, 7, 10) on the two diamonds — then, when `drain`, the
// batch's repairs — while the query sits in that stall.
serve::ServeResult query_across_a_batch(serve::QueryEngine& eng, vid_t s,
                                        vid_t t, int k, bool drain) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.rate_permille = 1000;
  cfg.stall = std::chrono::milliseconds(300);
  cfg.site_filter = "serve.query.stall";
  cfg.max_fires = 1;
  fault::Injector::global().configure(cfg);

  serve::ServeResult r;
  std::thread q([&] { r = eng.query(s, t, k); });
  // The site fires after the query's read, just before it sleeps.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::Injector::global().fired("serve.query.stall") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fault::Injector::global().fired("serve.query.stall"), 1);
  eng.apply_batch(dyn::UpdateBatch{}.reweight(5, 7, 10.0));
  if (drain) eng.drain_repairs();
  q.join();
  EXPECT_EQ(eng.mutation_epoch(), 1u);
  return r;
}

// What such a query must return: epoch 0's exact answer, labelled stale
// against epoch 1 with the batch's bound |10 - 1|.
void expect_epoch0_answer(const serve::ServeResult& r,
                          const graph::CsrGraph& g0, vid_t s, vid_t t, int k) {
  ASSERT_EQ(r.status.code, fault::Status::kOk) << r.status.message;
  EXPECT_TRUE(r.staleness.stale);
  EXPECT_EQ(r.staleness.epoch, 0u);
  EXPECT_EQ(r.staleness.epochs_behind, 1u);
  EXPECT_DOUBLE_EQ(r.staleness.weight_bound, 9.0);
  expect_paths_identical(r.paths, true_ksp(g0, s, t, k));
}

// A cold query computes on the graph it read, not the graph of the batch
// that landed after its read.
TEST_F(LiveEngineTest, BatchMidColdQueryServesTheEpochItRead) {
  auto csr = two_diamonds();
  dyn::DynamicGraph dg(csr);
  serve::QueryEngine eng(dg);
  expect_epoch0_answer(query_across_a_batch(eng, 4, 7, 2, /*drain=*/false),
                       csr, 4, 7, 2);
}

// A miss prunes with the forward tree it read, even when a repair
// re-publishes that tree for the next epoch while the query stalls.
TEST_F(LiveEngineTest, RepairMidQueryLeavesTheTreesItRead) {
  auto csr = two_diamonds();
  dyn::DynamicGraph dg(csr);
  serve::ServeOptions so;
  so.k_budget_floor = 1;
  serve::QueryEngine eng(dg, so);
  // Warm-up: caches 4's forward tree, but no (4, 7) snapshot.
  ASSERT_EQ(eng.query(4, 6, 1).status.code, fault::Status::kOk);

  auto r = query_across_a_batch(eng, 4, 7, 1, /*drain=*/true);
  EXPECT_TRUE(r.fwd_tree_hit);
  // The repaired epoch-1 tree was in the cache before the query resumed.
  EXPECT_EQ(eng.cache()
                .epoch_of(serve::ArtifactKind::kForwardTree, 4, kNoVertex)
                .value_or(99),
            1u);
  expect_epoch0_answer(r, csr, 4, 7, 1);
}

// A query that missed, and whose twin computed and published the same
// (s, t) snapshot while it stalled, answers from that snapshot: the owner
// publishes before it releases its in-flight entry, so finding no entry
// sends the stalled query back to the cache instead of into a second
// compute.
TEST_F(LiveEngineTest, MissStalledPastTwinsPublishHitsItsSnapshot) {
  auto csr = two_diamonds();
  serve::QueryEngine eng(csr);
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.rate_permille = 1000;
  cfg.stall = std::chrono::milliseconds(300);
  cfg.site_filter = "serve.query.stall";
  cfg.max_fires = 1;
  fault::Injector::global().configure(cfg);
  const std::int64_t misses_before = metric("serve.snapshot_misses");

  serve::ServeResult b;
  std::thread q([&] { b = eng.query(4, 7, 2); });
  // The site fires after b's read (a miss), just before it sleeps.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fault::Injector::global().fired("serve.query.stall") == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(fault::Injector::global().fired("serve.query.stall"), 1);
  const serve::ServeResult a = eng.query(4, 7, 2);  // computes and publishes
  q.join();

  ASSERT_EQ(a.status.code, fault::Status::kOk) << a.status.message;
  ASSERT_EQ(b.status.code, fault::Status::kOk) << b.status.message;
  EXPECT_FALSE(a.snapshot_hit);
  EXPECT_TRUE(b.snapshot_hit);
  expect_paths_identical(b.paths, a.paths);
  expect_paths_identical(b.paths, true_ksp(csr, 4, 7, 2));
  if (obs::kEnabled) {
    EXPECT_EQ(metric("serve.snapshot_misses") - misses_before, 1);
  }
}

// A miss caches the prune's forward tree for later queries and for cone
// repair. It carries the prune's distances, and as parents only those the
// scan walked: nothing reads the rest, and cone repair only copies
// survivors' parents into the repaired tree. So the cached distances must
// be Dijkstra's, and the answer after a repaired reweight must be exact, for
// serial and parallel engines alike.
TEST_F(LiveEngineTest, MissCachesAForwardTreeThatRepairsExactly) {
  const auto csr = test::random_graph(80, 480, 281);
  const vid_t s = 0, t = 40;
  const int k = 4;
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel engine" : "serial engine");
    dyn::DynamicGraph dg(csr);
    serve::ServeOptions so;
    so.peek.parallel = parallel;
    serve::QueryEngine eng(dg, so);

    const auto first = eng.query(s, t, k);
    ASSERT_EQ(first.status.code, fault::Status::kOk) << first.status.message;
    EXPECT_FALSE(first.fwd_tree_hit);
    ASSERT_FALSE(first.paths.empty());
    expect_paths_identical(first.paths, true_ksp(csr, s, t, k));
    const auto tree = eng.cache().get_tree(serve::ArtifactKind::kForwardTree,
                                           s, eng.generation());
    ASSERT_NE(tree, nullptr);
    ASSERT_EQ(tree->dist, sssp::dijkstra(sssp::GraphView(csr), s).dist);

    // Reweight the first edge of the shortest path: s's tree is in the cone.
    const auto& p = first.paths.front().verts;
    const auto b =
        eng.apply_batch(dyn::UpdateBatch{}.reweight(p[0], p[1], 5.0));
    ASSERT_TRUE(b.any_applied());
    eng.drain_repairs();
    const auto post = dg.to_csr();
    const auto second = eng.query(s, t, k);
    ASSERT_EQ(second.status.code, fault::Status::kOk) << second.status.message;
    EXPECT_FALSE(second.staleness.stale);
    expect_paths_identical(second.paths, true_ksp(post, s, t, k));
  }
}

TEST_F(LiveEngineTest, RepairCrashFallsBackToFullRecompute) {
  auto csr = two_diamonds();
  dyn::DynamicGraph dg(csr);
  serve::ServeOptions so;
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.rate_permille = 1000;
  cfg.site_filter = "dyn.repair.crash";
  cfg.max_fires = 1;
  so.injector = cfg;
  serve::QueryEngine eng(dg, so);

  ASSERT_EQ(eng.query(4, 7, 2).status.code, fault::Status::kOk);

  const std::int64_t fallbacks_before = metric("dyn.repair.fallbacks");
  eng.apply_batch(dyn::UpdateBatch{}.reweight(5, 7, 10.0));
  eng.drain_repairs();

  // The crash abandoned the repair, but the engine recovered wholesale: the
  // epoch ledger is caught up and nothing is left servable-stale.
  if (obs::kEnabled) {
    EXPECT_GT(metric("dyn.repair.fallbacks"), fallbacks_before);
  }
  EXPECT_EQ(eng.repaired_epoch(), eng.mutation_epoch());
  EXPECT_EQ(eng.stale_entries(), 0u);

  auto post = dg.to_csr();
  auto r = eng.query(4, 7, 2);
  ASSERT_EQ(r.status.code, fault::Status::kOk);
  EXPECT_FALSE(r.staleness.stale);
  expect_paths_identical(r.paths, true_ksp(post, 4, 7, 2));
}

TEST_F(LiveEngineTest, InvalidateCancelsOwnerAndWakesWaiters) {
  auto ex = test::paper_example_graph();
  serve::QueryEngine eng(ex.g);
  auto truth = true_ksp(ex.g, ex.s, ex.t, 4);
  ASSERT_FALSE(truth.empty());

  // Park the owner's compute in prune-scan stalls long enough for a waiter
  // to coalesce and for invalidate() to land mid-flight.
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.rate_permille = 1000;
  cfg.stall = std::chrono::milliseconds(250);
  cfg.site_filter = "prune.scan.stall";
  cfg.max_fires = 2;
  fault::Injector::global().configure(cfg);

  const std::int64_t invals_before = metric("serve.inflight_invalidations");
  serve::ServeResult ra, rb;
  std::thread owner([&] { ra = eng.query(ex.s, ex.t, 4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::thread waiter([&] { rb = eng.query(ex.s, ex.t, 4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  eng.invalidate();
  owner.join();
  waiter.join();

  // Both the aborted owner and the woken waiter retried to a correct answer
  // — neither hung, neither served a pre-invalidation snapshot as-is.
  ASSERT_EQ(ra.status.code, fault::Status::kOk);
  ASSERT_EQ(rb.status.code, fault::Status::kOk);
  expect_paths_identical(ra.paths, truth);
  expect_paths_identical(rb.paths, truth);
  if (obs::kEnabled) {
    EXPECT_GT(metric("serve.inflight_invalidations"), invals_before);
  }
  EXPECT_EQ(eng.inflight_entries(), 0u);
}

// -- Fleet: epoch fencing ----------------------------------------------------

TEST(LiveFleet, FenceAdvancesAndAnswersRespectIt) {
  const vid_t n = 60;
  auto csr = test::random_graph(n, 360, 7);
  dyn::DynamicGraph dg(csr);
  shard::FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 2;
  shard::ShardFleet fleet(dg, fo);
  EXPECT_EQ(fleet.fence_epoch(), 0u);

  const std::vector<std::pair<vid_t, vid_t>> pairs = {
      {0, 41}, {3, 17}, {12, 55}, {30, 9}};
  for (auto [s, t] : pairs)
    ASSERT_EQ(fleet.query(s, t, 4).result.status.code, fault::Status::kOk);

  // Batch 1: reweight a real edge through the fleet-wide fence.
  vid_t u = 0;
  while (csr.degree(u) == 0) ++u;
  const vid_t v = csr.edge_target(csr.edge_begin(u));
  auto b1 = fleet.apply_batch(
      dyn::UpdateBatch{}.reweight(u, v, csr.edge_weight(csr.edge_begin(u)) + 3.0));
  EXPECT_EQ(b1.epoch, 1u);
  EXPECT_EQ(fleet.fence_epoch(), 1u);

  fleet.deliver_batches();
  for (int sh = 0; sh < 2; ++sh)
    for (int r = 0; r < 2; ++r)
      EXPECT_EQ(fleet.engine(sh, r).mutation_epoch(), 1u);

  auto post1 = dg.to_csr();  // safe: no concurrent apply_batch
  for (auto [s, t] : pairs) {
    auto q = fleet.query(s, t, 4);
    ASSERT_EQ(q.result.status.code, fault::Status::kOk);
    const auto& st = q.result.staleness;
    auto now = true_ksp(post1, s, t, 4);
    if (!st.stale) {
      // Non-stale answers passed the fence: exact for the post-batch graph.
      EXPECT_EQ(st.epoch + st.epochs_behind, 1u);
      expect_paths_identical(q.result.paths, now);
    } else {
      // Stale answers carry the fence-composed bound.
      EXPECT_EQ(st.epoch + st.epochs_behind, 1u);
      for (size_t i = 0; i < std::min(q.result.paths.size(), now.size()); ++i)
        EXPECT_LE(std::abs(q.result.paths[i].dist - now[i].dist),
                  st.weight_bound + 1e-9);
    }
  }

  // Batch 2: structural (delete the same edge). Structurally-affected pairs
  // must come back fresh — never stale across a structural fence.
  auto b2 = fleet.apply_batch(dyn::UpdateBatch{}.erase(u, v));
  EXPECT_TRUE(b2.structural());
  EXPECT_EQ(fleet.fence_epoch(), 2u);
  fleet.deliver_batches();
  for (int sh = 0; sh < 2; ++sh)
    for (int r = 0; r < 2; ++r) {
      fleet.engine(sh, r).drain_repairs();
      EXPECT_EQ(fleet.engine(sh, r).mutation_epoch(), 2u);
    }

  auto post2 = dg.to_csr();
  for (auto [s, t] : pairs) {
    auto q = fleet.query(s, t, 4);
    ASSERT_EQ(q.result.status.code, fault::Status::kOk);
    ASSERT_FALSE(q.result.staleness.stale);
    EXPECT_EQ(q.result.staleness.epoch + q.result.staleness.epochs_behind, 2u);
    expect_paths_identical(q.result.paths, true_ksp(post2, s, t, 4));
  }
}

// With its home shard down and failover off, a pair is answered only from a
// survivor's cache. Such degraded answers carry their content epoch and are
// fenced like any other answer.
TEST(LiveFleet, DegradedAnswersCarryTheirEpochAndRespectTheFence) {
  auto csr = test::random_graph(60, 360, 7);
  dyn::DynamicGraph dg(csr);
  shard::FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 1;
  fo.failover = false;
  shard::ShardFleet fleet(dg, fo);
  const vid_t s = 0, t = 41;
  const int home = fleet.router().route(s, t);
  const int survivor = fleet.router().successor(home, 1);
  ASSERT_NE(survivor, home);

  // Epoch 1 (a reweight) reaches every replica; the survivor then caches
  // the pair, and the home replica goes down.
  vid_t u = 0;
  while (csr.degree(u) == 0) ++u;
  const vid_t v = csr.edge_target(csr.edge_begin(u));
  fleet.apply_batch(dyn::UpdateBatch{}.reweight(
      u, v, csr.edge_weight(csr.edge_begin(u)) + 3.0));
  fleet.deliver_batches();
  ASSERT_EQ(fleet.engine(survivor, 0).query(s, t, 4).status.code,
            fault::Status::kOk);
  fleet.set_replica_down(home, 0, true);

  auto deg = fleet.query(s, t, 4);
  ASSERT_EQ(deg.result.status.code, fault::Status::kOk)
      << deg.result.status.message;
  EXPECT_TRUE(deg.result.degraded);
  EXPECT_EQ(deg.shard, survivor);
  EXPECT_FALSE(deg.result.staleness.stale);
  EXPECT_EQ(deg.result.staleness.epoch, 1u);
  const auto truth = true_ksp(dg.to_csr(), s, t, 4);
  ASSERT_LE(deg.result.paths.size(), truth.size());
  for (size_t i = 0; i < deg.result.paths.size(); ++i) {
    EXPECT_EQ(deg.result.paths[i].verts, truth[i].verts) << "rank " << i;
    EXPECT_EQ(deg.result.paths[i].dist, truth[i].dist) << "rank " << i;
  }

  // Epoch 2 is structural and the survivor has not adopted it: its cached
  // paths lag the fence by a gap no weight bound covers.
  auto b2 = fleet.apply_batch(dyn::UpdateBatch{}.erase(u, v));
  ASSERT_TRUE(b2.structural());
  auto fenced = fleet.query(s, t, 4);
  EXPECT_NE(fenced.result.status.code, fault::Status::kOk);
}

}  // namespace
}  // namespace peek
