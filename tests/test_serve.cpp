// Serving-layer tests: ArtifactCache mechanics (LRU, byte budget, sharding,
// generation invalidation) and the cache-correctness property — every serve
// path (cold miss, snapshot hit, stream extension, tree reuse, coalesced
// duplicate, dynamic-graph batch, uncached fallback) must return answers
// bit-identical to a fresh core::peek_ksp on the same query.
#include <atomic>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "compact/regeneration.hpp"
#include "core/peek.hpp"
#include "ksp/stream.hpp"
#include "serve/query_engine.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek::serve {
namespace {

/// Fresh, uncached PeeK on the same query — the ground truth the serving
/// layer must be indistinguishable from.
std::vector<sssp::Path> fresh_peek(const graph::CsrGraph& g, vid_t s, vid_t t,
                                   int k) {
  core::PeekOptions po;
  po.k = k;
  return core::peek_ksp(g, s, t, po).ksp.paths;
}

/// Bit-identical: same count, same vertex sequences, same (exact) distances.
void expect_identical(const std::vector<sssp::Path>& got,
                      const std::vector<sssp::Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verts, want[i].verts) << "path " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "path " << i;
  }
}

// ---------------------------------------------------------------- cache unit

TEST(ArtifactCache, TreeRoundTripAndKindSeparation) {
  ArtifactCache cache;
  auto tree = std::make_shared<sssp::SsspResult>();
  tree->dist = {0, 1, 2};
  tree->parent = {kNoVertex, 0, 1};
  cache.put_tree(ArtifactKind::kForwardTree, 7, tree, /*generation=*/0);
  auto hit = cache.get_tree(ArtifactKind::kForwardTree, 7, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->dist, tree->dist);
  // Same vertex, other kind / other key: misses.
  EXPECT_EQ(cache.get_tree(ArtifactKind::kReverseTree, 7, 0), nullptr);
  EXPECT_EQ(cache.get_tree(ArtifactKind::kForwardTree, 8, 0), nullptr);
}

TEST(ArtifactCache, GenerationMismatchDropsEntry) {
  ArtifactCache cache;
  auto tree = std::make_shared<sssp::SsspResult>();
  tree->dist.assign(10, 0);
  tree->parent.assign(10, kNoVertex);
  cache.put_tree(ArtifactKind::kForwardTree, 1, tree, 0);
  EXPECT_EQ(cache.get_tree(ArtifactKind::kForwardTree, 1, /*generation=*/1),
            nullptr);
  // The stale entry was erased, not just skipped.
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ArtifactCache, ByteBudgetEvictsLeastRecentlyUsed) {
  ArtifactCache::Options o;
  o.shards = 1;  // single LRU list so the eviction order is observable
  auto sized_tree = [] {
    auto t = std::make_shared<sssp::SsspResult>();
    t->dist.assign(1000, 0);
    t->parent.assign(1000, kNoVertex);
    return t;
  };
  const std::size_t per = tree_bytes(*sized_tree());
  o.byte_budget = 3 * per + per / 2;  // room for three
  ArtifactCache cache(o);
  for (vid_t v = 0; v < 4; ++v) {
    cache.put_tree(ArtifactKind::kForwardTree, v, sized_tree(), 0);
    // Touch vertex 0 so it stays hot.
    cache.get_tree(ArtifactKind::kForwardTree, 0, 0);
  }
  EXPECT_NE(cache.get_tree(ArtifactKind::kForwardTree, 0, 0), nullptr);
  EXPECT_NE(cache.get_tree(ArtifactKind::kForwardTree, 3, 0), nullptr);
  // Vertex 1 was the coldest when 3 arrived.
  EXPECT_EQ(cache.get_tree(ArtifactKind::kForwardTree, 1, 0), nullptr);
  EXPECT_LE(cache.stats().bytes_used, o.byte_budget);
}

TEST(ArtifactCache, OversizeArtifactIsRejectedNotCached) {
  ArtifactCache::Options o;
  o.byte_budget = 1024;  // smaller than any real tree
  o.shards = 1;
  ArtifactCache cache(o);
  auto big = std::make_shared<sssp::SsspResult>();
  big->dist.assign(10000, 0);
  big->parent.assign(10000, kNoVertex);
  EXPECT_FALSE(cache.put_tree(ArtifactKind::kForwardTree, 0, big, 0));
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ------------------------------------------------------- serving correctness

TEST(QueryEngine, ColdThenHitMatchesFreshPeek) {
  auto g = test::random_graph(300, 2400, 4242);
  QueryEngine engine(g);
  const auto want = fresh_peek(g, 3, 77, 8);
  auto cold = engine.query(3, 77, 8);
  EXPECT_FALSE(cold.snapshot_hit);
  expect_identical(cold.paths, want);
  auto hot = engine.query(3, 77, 8);
  EXPECT_TRUE(hot.snapshot_hit);
  EXPECT_FALSE(hot.extended);  // pure lookup
  expect_identical(hot.paths, want);
}

TEST(QueryEngine, SmallerKFromLargerRunIsPureLookup) {
  auto g = test::random_graph(300, 2400, 99);
  QueryEngine engine(g);
  engine.query(1, 200, 32);  // warms the snapshot with 32 paths
  auto r = engine.query(1, 200, 8);
  EXPECT_TRUE(r.snapshot_hit);
  EXPECT_FALSE(r.extended);
  expect_identical(r.paths, fresh_peek(g, 1, 200, 8));
}

TEST(QueryEngine, StreamExtensionMatchesFreshPeek) {
  auto g = test::random_graph(300, 2400, 7);
  ServeOptions so;
  so.k_budget_floor = 32;
  QueryEngine engine(g, so);
  engine.query(5, 150, 4);
  auto r = engine.query(5, 150, 16);  // 4 cached, 12 pulled from the stream
  EXPECT_TRUE(r.snapshot_hit);
  EXPECT_TRUE(r.extended);
  expect_identical(r.paths, fresh_peek(g, 5, 150, 16));
}

TEST(QueryEngine, KBeyondBudgetRecomputesCorrectly) {
  auto g = test::random_graph(400, 4000, 11);
  ServeOptions so;
  so.k_budget_floor = 4;  // force k > budget on the second query
  QueryEngine engine(g, so);
  engine.query(2, 300, 4);
  auto r = engine.query(2, 300, 24);  // 24 > budget(4): re-prune, replace
  expect_identical(r.paths, fresh_peek(g, 2, 300, 24));
  // The replacement snapshot serves the wider K from cache now.
  auto again = engine.query(2, 300, 24);
  EXPECT_TRUE(again.snapshot_hit);
  expect_identical(again.paths, r.paths);
}

TEST(QueryEngine, SharedSourceAndTargetReuseTrees) {
  auto g = test::random_graph(400, 4000, 5);
  QueryEngine engine(g);
  engine.query(9, 100, 8);
  auto same_source = engine.query(9, 250, 8);
  EXPECT_TRUE(same_source.fwd_tree_hit);
  expect_identical(same_source.paths, fresh_peek(g, 9, 250, 8));
  auto same_target = engine.query(42, 100, 8);
  EXPECT_TRUE(same_target.rev_tree_hit);
  expect_identical(same_target.paths, fresh_peek(g, 42, 100, 8));
}

TEST(QueryEngine, RandomizedBitIdentityAcrossAllServePaths) {
  // The acceptance property: random graph, random query mix with repeats,
  // shuffled K — every answer equals a fresh peek() on the same (s, t, K).
  std::mt19937_64 rng(20260805);
  for (int round = 0; round < 5; ++round) {
    auto g = test::random_graph(200 + round * 60, 1800 + round * 500,
                                1000 + round);
    ServeOptions so;
    so.k_budget_floor = 8 + 8 * (round % 3);
    QueryEngine engine(g, so);
    std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
    std::uniform_int_distribution<int> pick_k(1, 24);
    std::vector<std::pair<vid_t, vid_t>> pool;
    for (int q = 0; q < 30; ++q) {
      std::pair<vid_t, vid_t> key;
      if (!pool.empty() && q % 2 == 1) {  // 50% key reuse
        key = pool[rng() % pool.size()];
      } else {
        key = {pick(rng), pick(rng)};
        pool.push_back(key);
      }
      const int k = pick_k(rng);
      auto r = engine.query(key.first, key.second, k);
      auto want = fresh_peek(g, key.first, key.second, k);
      expect_identical(r.paths, want);
      test::check_ksp_invariants(g, key.first, key.second, r.paths);
    }
  }
}

TEST(QueryEngine, MatchesPeekVertexForVertexUnderTies) {
  // With the prune budget equal to K and regeneration compaction, an engine
  // miss and core::peek_ksp run the same pipeline with the same warm-started
  // OptYen stream, so even on unit weights — where many paths tie — they
  // pick the same paths, not just the same distances.
  core::PeekOptions po;
  po.compaction = core::PeekOptions::Compaction::kRegeneration;
  ServeOptions so;
  so.k_budget_floor = 1;
  for (const auto& [name, g] : test::tie_heavy_graphs()) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 8)) {
      for (int k : {8, 16}) {
        SCOPED_TRACE(name + " " + std::to_string(s) + "->" +
                     std::to_string(t) + " K=" + std::to_string(k));
        QueryEngine engine(g, so);
        po.k = k;
        expect_identical(engine.query(s, t, k).paths,
                         core::peek_ksp(g, s, t, po).ksp.paths);
      }
    }
  }
}

#if PEEK_OBS_ENABLED
TEST(QueryEngine, MissPublishesItsStreamsKspCounters) {
  // A miss with K >= 2 runs deviations in the snapshot's stream; those
  // count in ksp.deviation_sssp_calls and ksp.candidates_generated exactly
  // as the stream's own stats say. The reference stream is rebuilt from the
  // same public calls the engine makes.
  auto g = test::random_graph(300, 2400, 4243);
  const vid_t s = 3, t = 77;
  const int k = 6;
  core::PruneOptions po;
  po.k = 8;  // the engine's budget: K rounded up to a power of two
  const core::PruneResult pruned = core::k_upper_bound_prune(g, s, t, po);
  auto regen = compact::regenerate(sssp::GraphView(g),
                                   pruned.vertex_keep.data(), pruned.edge_keep,
                                   {.parallel = false});
  ksp::KspStream stream(
      sssp::BiView::of(regen.graph), regen.map.to_new(s), regen.map.to_new(t),
      core::compacted_reverse_tree(pruned.to_target, regen.map));
  for (int i = 0; i < k; ++i) ASSERT_TRUE(stream.next().has_value());
  const ksp::KspStats want = stream.stats();
  ASSERT_GT(want.sssp_calls, 0);
  ASSERT_GT(want.candidates_generated, 0);

  auto counter = [](const char* name) {
    return obs::MetricsRegistry::global().counter(name).value();
  };
  const auto sssps0 = counter("ksp.deviation_sssp_calls");
  const auto cands0 = counter("ksp.candidates_generated");
  ServeOptions so;
  so.k_budget_floor = 1;
  QueryEngine engine(g, so);
  auto r = engine.query(s, t, k);
  ASSERT_EQ(r.paths.size(), static_cast<size_t>(k));
  EXPECT_FALSE(r.snapshot_hit);
  EXPECT_EQ(counter("ksp.deviation_sssp_calls") - sssps0, want.sssp_calls);
  EXPECT_EQ(counter("ksp.candidates_generated") - cands0,
            want.candidates_generated);
}
#endif

TEST(QueryEngine, ConcurrentDuplicateQueriesCoalesce) {
  auto g = test::random_graph(500, 5000, 31337);
  QueryEngine engine(g);
  const auto want = fresh_peek(g, 1, 400, 12);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<ServeResult> results(kThreads);
  std::atomic<int> ready{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<size_t>(i)] = engine.query(1, 400, 12);
    });
  }
  for (auto& th : threads) th.join();
  int coalesced_or_hit = 0;
  for (const auto& r : results) {
    expect_identical(r.paths, want);
    if (r.coalesced || r.snapshot_hit) coalesced_or_hit++;
  }
  // At most one thread can have done the full computation.
  EXPECT_GE(coalesced_or_hit, kThreads - 1);
}

TEST(QueryEngine, ConcurrentMixedQueriesAreCorrect) {
  auto g = test::random_graph(400, 3600, 555);
  QueryEngine engine(g);
  const std::vector<std::tuple<vid_t, vid_t, int>> queries = {
      {0, 100, 8}, {0, 200, 8}, {7, 100, 16}, {0, 100, 24}, {7, 200, 4}};
  std::vector<std::vector<sssp::Path>> want;
  want.reserve(queries.size());
  for (const auto& [s, t, k] : queries) want.push_back(fresh_peek(g, s, t, k));
  std::vector<std::thread> threads;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      threads.emplace_back([&, qi] {
        const auto& [s, t, k] = queries[qi];
        auto r = engine.query(s, t, k);
        expect_identical(r.paths, want[qi]);
      });
    }
  }
  for (auto& th : threads) th.join();
}

TEST(QueryEngine, UnreachableTargetIsCachedNegative) {
  // 0 -> 1 -> 2, vertex 3 isolated.
  auto g = graph::from_edges(4, {{0, 1, 1.0}, {1, 2, 1.0}});
  QueryEngine engine(g);
  auto r1 = engine.query(0, 3, 8);
  EXPECT_TRUE(r1.paths.empty());
  auto r2 = engine.query(0, 3, 8);
  EXPECT_TRUE(r2.paths.empty());
  EXPECT_TRUE(r2.snapshot_hit);  // the negative answer was cached
}

TEST(QueryEngine, ExhaustedPathSpaceServesAllPaths) {
  // Exactly two s->t paths; asking for more must return exactly those two.
  auto g = graph::from_edges(
      4, {{0, 1, 1.0}, {0, 2, 2.0}, {1, 3, 1.0}, {2, 3, 1.0}});
  QueryEngine engine(g);
  auto r = engine.query(0, 3, 10);
  ASSERT_EQ(r.paths.size(), 2u);
  auto again = engine.query(0, 3, 50);  // beyond budget but exhausted
  EXPECT_TRUE(again.snapshot_hit);
  ASSERT_EQ(again.paths.size(), 2u);
  expect_identical(again.paths, fresh_peek(g, 0, 3, 10));
}

TEST(QueryEngine, ZeroBudgetFallsBackToUncachedPeek) {
  auto g = test::random_graph(200, 1600, 2);
  ServeOptions so;
  so.cache.byte_budget = 0;  // memory-pressure degradation mode
  QueryEngine engine(g, so);
  auto r1 = engine.query(0, 50, 8);
  EXPECT_TRUE(r1.uncached);
  EXPECT_FALSE(r1.snapshot_hit);
  expect_identical(r1.paths, fresh_peek(g, 0, 50, 8));
  auto r2 = engine.query(0, 50, 8);  // still correct, still uncached
  EXPECT_TRUE(r2.uncached);
  expect_identical(r2.paths, r1.paths);
}

TEST(QueryEngine, DynamicGraphEditInvalidatesCache) {
  auto g = test::random_graph(150, 1200, 17);
  dyn::DynamicGraph dg(g);
  QueryEngine engine(std::as_const(dg));  // read-only: edits come as batches
  auto before = engine.query(0, 90, 6);
  expect_identical(before.paths, fresh_peek(g, 0, 90, 6));

  // Mutate: delete the first edge of the current best path (if any), else
  // insert a shortcut — either way a structural batch, applied outside the
  // engine and handed to it with no post-mutation CSR.
  dyn::UpdateBatch batch;
  if (!before.paths.empty() && before.paths[0].verts.size() >= 2) {
    batch.erase(before.paths[0].verts[0], before.paths[0].verts[1]);
  } else {
    batch.insert(0, 90, 0.001);
  }
  engine.note_batch(dyn::apply(dg, batch));
  auto after = engine.query(0, 90, 6);
  EXPECT_EQ(engine.mutation_epoch(), 1u);
  EXPECT_FALSE(after.snapshot_hit);  // stale snapshot was not served
  expect_identical(after.paths, fresh_peek(dg.to_csr(), 0, 90, 6));

  // And the new answer is itself cached at the new epoch.
  engine.drain_repairs();
  auto warm = engine.query(0, 90, 6);
  EXPECT_TRUE(warm.snapshot_hit);
  expect_identical(warm.paths, after.paths);
}

TEST(QueryEngine, StaticEngineNoteBatchIsANoOp) {
  auto g = test::random_graph(150, 1200, 17);
  QueryEngine engine(g);
  auto first = engine.query(0, 90, 6);
  ASSERT_EQ(first.status.code, fault::Status::kOk);
  EXPECT_EQ(first.staleness.epoch, 0u);

  // A static CSR never changes, so a batch handed to its engine is ignored:
  // the engine stays at epoch 0 and keeps its cache.
  dyn::DynamicGraph dg(g);
  engine.note_batch(dyn::apply(dg, dyn::UpdateBatch{}.insert(0, 90, 0.001)));
  EXPECT_EQ(engine.mutation_epoch(), 0u);
  auto again = engine.query(0, 90, 6);
  ASSERT_EQ(again.status.code, fault::Status::kOk);
  EXPECT_TRUE(again.snapshot_hit);
  EXPECT_FALSE(again.staleness.stale);
  EXPECT_EQ(again.staleness.epoch, 0u);
  expect_identical(again.paths, fresh_peek(g, 0, 90, 6));
}

TEST(QueryEngine, ManualInvalidateForcesRecompute) {
  auto g = test::random_graph(150, 1200, 23);
  QueryEngine engine(g);
  engine.query(2, 60, 8);
  engine.invalidate();
  auto r = engine.query(2, 60, 8);
  EXPECT_FALSE(r.snapshot_hit);
  expect_identical(r.paths, fresh_peek(g, 2, 60, 8));
}

TEST(QueryEngine, InvalidQueriesReturnEmpty) {
  auto g = test::random_graph(50, 300, 3);
  QueryEngine engine(g);
  EXPECT_TRUE(engine.query(-1, 10, 8).paths.empty());
  EXPECT_TRUE(engine.query(0, 500, 8).paths.empty());
  EXPECT_TRUE(engine.query(0, 10, 0).paths.empty());
}

// -------------------------------------------------------- cached-only probe

TEST(QueryEngine, CachedOnlyEmptyCacheIsOverloadedNotAnAnswer) {
  auto g = test::random_graph(120, 900, 31);
  QueryEngine engine(g);
  // Nothing has been computed: the zero-graph-work probe must refuse, not
  // fall through to a real computation.
  auto r = engine.query_cached_only(0, 60, 6);
  EXPECT_EQ(r.status.code, fault::Status::kOverloaded);
  EXPECT_TRUE(r.paths.empty());
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.snapshot_hit);
}

TEST(QueryEngine, CachedOnlyServesWarmSnapshot) {
  auto g = test::random_graph(120, 900, 31);
  QueryEngine engine(g);
  auto warm = engine.query(0, 60, 6);
  ASSERT_EQ(warm.status.code, fault::Status::kOk);

  auto r = engine.query_cached_only(0, 60, 6);
  EXPECT_EQ(r.status.code, fault::Status::kOk);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.snapshot_hit);
  expect_identical(r.paths, warm.paths);

  // A smaller k is a prefix of the cached paths, never a recompute.
  auto r3 = engine.query_cached_only(0, 60, 3);
  EXPECT_EQ(r3.status.code, fault::Status::kOk);
  ASSERT_LE(r3.paths.size(), size_t{3});
  for (size_t i = 0; i < r3.paths.size(); ++i) {
    EXPECT_EQ(r3.paths[i].verts, warm.paths[i].verts);
  }
}

TEST(QueryEngine, CachedOnlyRefusesStaleGeneration) {
  auto g = test::random_graph(120, 900, 37);
  QueryEngine engine(g);
  auto warm = engine.query(2, 70, 5);
  ASSERT_EQ(warm.status.code, fault::Status::kOk);
  EXPECT_EQ(engine.query_cached_only(2, 70, 5).status.code,
            fault::Status::kOk);

  // invalidate() bumps the generation; the old snapshot must not be served
  // even though it is still resident in the cache.
  engine.invalidate();
  auto stale = engine.query_cached_only(2, 70, 5);
  EXPECT_EQ(stale.status.code, fault::Status::kOverloaded);
  EXPECT_TRUE(stale.paths.empty());
  EXPECT_FALSE(stale.degraded);
}

TEST(QueryEngine, CachedOnlyRejectsInvalidArguments) {
  auto g = test::random_graph(60, 400, 5);
  QueryEngine engine(g);
  EXPECT_EQ(engine.query_cached_only(-1, 10, 4).status.code,
            fault::Status::kInvalidArgument);
  EXPECT_EQ(engine.query_cached_only(0, 600, 4).status.code,
            fault::Status::kInvalidArgument);
  EXPECT_EQ(engine.query_cached_only(0, 10, 0).status.code,
            fault::Status::kInvalidArgument);
}

TEST(QueryEngine, CachedOnlyHonorsDegradedServingOptOut) {
  auto g = test::random_graph(120, 900, 41);
  ServeOptions opts;
  opts.degraded_serving = false;
  QueryEngine engine(g, opts);
  engine.query(0, 60, 6);
  // Disabled degraded serving means the probe refuses even on a warm cache.
  EXPECT_EQ(engine.query_cached_only(0, 60, 6).status.code,
            fault::Status::kOverloaded);
}

}  // namespace
}  // namespace peek::serve
