// Fault model end-to-end: CancelToken/CancelPoll semantics, cancellation
// threaded through the kernels, deterministic fault injection, and the
// serving layer's admission control / degraded modes (DESIGN.md §9).
//
// Every test here proves one side of the same contract: an injected fault,
// a tripped deadline, or an overload NEVER crashes, hangs, or silently
// returns a wrong answer — it surfaces as a typed fault::Status.
//
// The injector and the metrics registry are process-global, so each test
// configures the injector itself, reads metrics as before/after deltas, and
// the fixture disables injection on teardown.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/peek.hpp"
#include "dist/dist_peek.hpp"
#include "fault/cancel.hpp"
#include "fault/injector.hpp"
#include "fault/status.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

using namespace std::chrono_literals;

std::int64_t metric(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::global().disable(); }
};

// ---------------------------------------------------------------- tokens --

TEST(CancelTokenTest, NullTokenNeverTriggers) {
  fault::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.triggered());
  EXPECT_EQ(t.why(), fault::Status::kOk);
  fault::CancelPoll poll(&t);
  EXPECT_FALSE(poll.should_stop());
  fault::CancelPoll null_poll(nullptr);
  EXPECT_FALSE(null_poll.should_stop());
}

TEST(CancelTokenTest, ManualCancelIsSticky) {
  auto t = fault::CancelToken::cancellable();
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.triggered());
  EXPECT_FALSE(t.deadline().has_value());
  t.cancel();
  EXPECT_TRUE(t.cancelled_fast());
  EXPECT_TRUE(t.triggered());
  EXPECT_EQ(t.why(), fault::Status::kCancelled);
  t.cancel();  // idempotent
  EXPECT_EQ(t.why(), fault::Status::kCancelled);
}

TEST(CancelTokenTest, DeadlineExpiryIsTypedAndSticky) {
  auto t = fault::CancelToken::after(1ms);
  ASSERT_TRUE(t.deadline().has_value());
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(t.triggered());
  EXPECT_EQ(t.why(), fault::Status::kDeadlineExceeded);
  // The expiry observation is sticky: the flags-only fast path sees it now.
  EXPECT_TRUE(t.cancelled_fast());
}

TEST(CancelTokenTest, PastDeadlineTriggersImmediately) {
  auto t = fault::CancelToken::at(fault::CancelToken::Clock::now() - 1s);
  EXPECT_TRUE(t.triggered());
  EXPECT_EQ(t.why(), fault::Status::kDeadlineExceeded);
}

TEST(CancelTokenTest, ManualCancelWinsOverLiveDeadline) {
  auto t = fault::CancelToken::after(1h);
  t.cancel();
  EXPECT_EQ(t.why(), fault::Status::kCancelled);
}

TEST(CancelTokenTest, LinkedTokenFollowsParentCancel) {
  auto parent = fault::CancelToken::cancellable();
  auto child = fault::CancelToken::linked(parent, 1h);
  EXPECT_FALSE(child.triggered());
  parent.cancel();
  EXPECT_TRUE(child.triggered());
  EXPECT_EQ(child.why(), fault::Status::kCancelled);
}

TEST(CancelTokenTest, LinkedTokenOwnDeadlineDoesNotTouchParent) {
  auto parent = fault::CancelToken::cancellable();
  auto child = fault::CancelToken::linked(parent, 1ms);
  std::this_thread::sleep_for(5ms);
  EXPECT_TRUE(child.triggered());
  EXPECT_EQ(child.why(), fault::Status::kDeadlineExceeded);
  EXPECT_FALSE(parent.triggered());
}

TEST(CancelTokenTest, PollChecksClockEveryStridethCall) {
  // Expired deadline, never observed: the flags fast path stays false until
  // a strided clock check runs.
  auto t = fault::CancelToken::at(fault::CancelToken::Clock::now() - 1s);
  fault::CancelPoll poll(&t, /*stride=*/4);
  EXPECT_FALSE(poll.should_stop());
  EXPECT_FALSE(poll.should_stop());
  EXPECT_FALSE(poll.should_stop());
  EXPECT_TRUE(poll.should_stop());  // 4th call reads the clock
  EXPECT_EQ(poll.why(), fault::Status::kDeadlineExceeded);
  EXPECT_TRUE(poll.should_stop());  // sticky
}

// --------------------------------------------------- kernel cancellation --

TEST(KernelCancellation, DijkstraReturnsTypedPartialResult) {
  auto g = test::random_graph(300, 1800, 7);
  auto tok = fault::CancelToken::cancellable();
  tok.cancel();
  sssp::DijkstraOptions o;
  o.cancel = &tok;
  auto r = sssp::dijkstra(sssp::GraphView(g), 0, o);
  EXPECT_EQ(r.status, fault::Status::kCancelled);
  EXPECT_EQ(r.dist.size(), static_cast<size_t>(g.num_vertices()));
  EXPECT_EQ(r.parent.size(), static_cast<size_t>(g.num_vertices()));

  auto ok = sssp::dijkstra(sssp::GraphView(g), 0);
  EXPECT_EQ(ok.status, fault::Status::kOk);
}

TEST(KernelCancellation, DeltaSteppingReturnsTypedPartialResult) {
  auto g = test::random_graph(300, 1800, 8);
  auto tok = fault::CancelToken::cancellable();
  tok.cancel();
  sssp::DeltaSteppingOptions o;
  o.cancel = &tok;
  auto r = sssp::delta_stepping(sssp::GraphView(g), 0, o);
  EXPECT_EQ(r.status, fault::Status::kCancelled);
  EXPECT_EQ(r.dist.size(), static_cast<size_t>(g.num_vertices()));
}

TEST(KernelCancellation, PeekPipelineHonorsPreCancelledToken) {
  auto g = test::random_graph(200, 1200, 9);
  auto tok = fault::CancelToken::cancellable();
  tok.cancel();
  core::PeekOptions po;
  po.k = 4;
  po.cancel = &tok;
  auto r = core::peek_ksp(g, 0, g.num_vertices() - 1, po);
  EXPECT_EQ(r.status, fault::Status::kCancelled);
  EXPECT_TRUE(r.ksp.paths.empty());  // cancelled before the first path
}

TEST(KernelCancellation, UntrippedTokenChangesNothing) {
  auto g = test::random_graph(200, 1200, 10);
  const vid_t s = 0, t = g.num_vertices() - 1;
  core::PeekOptions base;
  base.k = 5;
  auto r0 = core::peek_ksp(g, s, t, base);
  auto tok = fault::CancelToken::cancellable();
  core::PeekOptions po = base;
  po.cancel = &tok;
  auto r1 = core::peek_ksp(g, s, t, po);
  EXPECT_EQ(r1.status, fault::Status::kOk);
  ASSERT_EQ(r1.ksp.paths.size(), r0.ksp.paths.size());
  for (size_t i = 0; i < r0.ksp.paths.size(); ++i) {
    EXPECT_EQ(r1.ksp.paths[i].verts, r0.ksp.paths[i].verts);
    EXPECT_EQ(r1.ksp.paths[i].dist, r0.ksp.paths[i].dist);  // bit-identical
  }
}

// ------------------------------------------------------------- injector --

TEST_F(FaultTest, InjectorIsDeterministicPerSeed) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.rate_permille = 500;
  auto run = [&cfg] {
    fault::Injector::global().configure(cfg);  // resets per-site hit indices
    std::vector<bool> seq;
    for (int i = 0; i < 200; ++i)
      seq.push_back(fault::Injector::global().should_fire("test.site"));
    return seq;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);  // same seed -> identical firing sequence

  const auto fired_in_b =
      static_cast<std::int64_t>(std::count(b.begin(), b.end(), true));
  EXPECT_GT(fired_in_b, 0);
  EXPECT_LT(fired_in_b, 200);
  EXPECT_EQ(fault::Injector::global().fired("test.site"), fired_in_b);
  EXPECT_EQ(fault::Injector::global().total_fired(), fired_in_b);

  cfg.seed = 43;
  EXPECT_NE(run(), a);  // different seed -> different sequence
}

TEST_F(FaultTest, InjectorRateEndpointsAndSiteFilter) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 5;
  cfg.rate_permille = 1000;
  cfg.site_filter = "allowed.site";
  fault::Injector::global().configure(cfg);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(fault::Injector::global().should_fire("allowed.site"));
    EXPECT_FALSE(fault::Injector::global().should_fire("other.site"));
  }
  EXPECT_EQ(fault::Injector::global().fired("allowed.site"), 20);
  EXPECT_EQ(fault::Injector::global().fired("other.site"), 0);

  cfg.rate_permille = 0;
  cfg.site_filter.clear();
  fault::Injector::global().configure(cfg);
  for (int i = 0; i < 20; ++i)
    EXPECT_FALSE(fault::Injector::global().should_fire("allowed.site"));
}

TEST_F(FaultTest, MaxFiresCapsPerSiteButKeepsSequence) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 42;
  cfg.rate_permille = 500;
  auto run = [&cfg] {
    fault::Injector::global().configure(cfg);
    std::vector<bool> seq;
    for (int i = 0; i < 200; ++i)
      seq.push_back(fault::Injector::global().should_fire("test.site"));
    return seq;
  };
  const auto uncapped = run();
  const auto total =
      std::count(uncapped.begin(), uncapped.end(), true);
  ASSERT_GT(total, 3);  // enough fires for the cap to bite

  cfg.max_fires = 3;
  const auto capped = run();
  EXPECT_EQ(std::count(capped.begin(), capped.end(), true), 3);
  EXPECT_EQ(fault::Injector::global().fired("test.site"), 3);
  // Hit indices keep advancing under the cap, so the decision sequence below
  // it is the uncapped one exactly; above it, nothing ever fires.
  std::int64_t fires = 0;
  for (size_t i = 0; i < uncapped.size(); ++i) {
    if (fires < 3) {
      EXPECT_EQ(capped[i], uncapped[i]) << "probe " << i;
    } else {
      EXPECT_FALSE(capped[i]) << "probe " << i << " fired beyond the cap";
    }
    if (uncapped[i]) ++fires;
  }
}

TEST_F(FaultTest, MaxFiresConfiguredFromEnv) {
  setenv("PEEK_FAULT_SEED", "1", /*overwrite=*/0);
  setenv("PEEK_FAULT_RATE", "1000", 1);
  setenv("PEEK_FAULT_MAX", "2", 1);
  fault::Injector::global().configure_from_env();
  EXPECT_EQ(fault::Injector::global().config().max_fires, 2);
  for (int i = 0; i < 10; ++i)
    fault::Injector::global().should_fire("env.capped.site");
  EXPECT_EQ(fault::Injector::global().fired("env.capped.site"), 2);
  unsetenv("PEEK_FAULT_RATE");
  unsetenv("PEEK_FAULT_MAX");
}

TEST_F(FaultTest, DisabledProbesAreInert) {
  fault::Injector::global().disable();
  EXPECT_FALSE(PEEK_FAULT_FIRE("test.site"));
  EXPECT_NO_THROW(PEEK_FAULT_ALLOC("test.site"));
  EXPECT_EQ(fault::Injector::global().total_fired(), 0);
}

TEST_F(FaultTest, InjectedAllocSurfacesAsResourceExhausted) {
  auto g = test::random_graph(150, 900, 11);
  const std::int64_t before = metric("fault.injected");

  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 3;
  cfg.rate_permille = 1000;
  cfg.site_filter = "prune.sssp.alloc";
  fault::Injector::global().configure(cfg);
  core::PeekOptions po;
  po.k = 4;
  auto r = core::peek_ksp(g, 0, g.num_vertices() - 1, po);
  EXPECT_EQ(r.status, fault::Status::kResourceExhausted);
  EXPECT_TRUE(r.ksp.paths.empty());

  cfg.site_filter = "compact.regenerate.alloc";
  fault::Injector::global().configure(cfg);
  const std::int64_t mid = metric("fault.injected");
  core::PeekOptions pr;
  pr.k = 4;
  pr.compaction = core::PeekOptions::Compaction::kRegeneration;
  auto r2 = core::peek_ksp(g, 0, g.num_vertices() - 1, pr);
  EXPECT_EQ(r2.status, fault::Status::kResourceExhausted);
  // Every fire is counted in both the injector and the metric.
  EXPECT_GT(fault::Injector::global().total_fired(), 0);
  EXPECT_EQ(metric("fault.injected") - mid,
            fault::Injector::global().total_fired());
  EXPECT_GT(metric("fault.injected"), before);
}

TEST_F(FaultTest, InjectedIoAllocSurfacesAsIoError) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 2;
  cfg.rate_permille = 1000;
  cfg.site_filter = "graph.io.alloc";
  fault::Injector::global().configure(cfg);
  std::istringstream in("0 1 1.0\n1 2 1.0\n");
  EXPECT_THROW(graph::read_edge_list(in), graph::IoError);
}

// CI sweeps this binary with PEEK_FAULT_SEED in {1, 2, 3}: whatever the
// seed, every injected fault must surface as a typed Status and be counted.
TEST_F(FaultTest, SeedSweepFaultsAreTypedAndCounted) {
  setenv("PEEK_FAULT_SEED", "1", /*overwrite=*/0);  // default when CI not set
  setenv("PEEK_FAULT_RATE", "1000", 1);
  setenv("PEEK_FAULT_SITES", "prune.sssp.alloc", 1);
  const std::int64_t before = metric("fault.injected");
  fault::Injector::global().configure_from_env();
  EXPECT_TRUE(fault::Injector::global().enabled());
  const auto cfg = fault::Injector::global().config();
  EXPECT_EQ(cfg.seed, static_cast<std::uint64_t>(
                          std::atoll(std::getenv("PEEK_FAULT_SEED"))));

  auto g = test::random_graph(150, 900, 13);
  core::PeekOptions po;
  po.k = 4;
  auto r = core::peek_ksp(g, 0, g.num_vertices() - 1, po);
  EXPECT_EQ(r.status, fault::Status::kResourceExhausted);  // typed, no throw
  EXPECT_GT(fault::Injector::global().total_fired(), 0);
  EXPECT_EQ(metric("fault.injected") - before,
            fault::Injector::global().total_fired());

  unsetenv("PEEK_FAULT_RATE");
  unsetenv("PEEK_FAULT_SITES");
}

// DistPeek runs the prune on every rank, and an allocation failure can hit
// one rank and not another. The ranks must agree on the status before the
// next collective (or the others wait forever for the failed rank), and all
// return one answer: the exact one, or no paths with the failure's status.
// The probe's hit order across ranks varies, but its fire count per seed
// does not; seeds run until both outcomes were seen.
TEST_F(FaultTest, DistPeekRanksAgreeOnAFailedPrune) {
  setenv("PEEK_FAULT_SEED", "1", /*overwrite=*/0);  // default when CI not set
  const std::uint64_t env_seed =
      std::strtoull(std::getenv("PEEK_FAULT_SEED"), nullptr, 10);
  auto g = test::random_graph(150, 900, 17);
  const vid_t s = 0, t = g.num_vertices() - 1;
  const int k = 4, ranks = 3;
  core::PeekOptions po;
  po.k = k;
  const auto serial = core::peek_ksp(g, s, t, po);
  ASSERT_FALSE(serial.ksp.paths.empty());

  int failed = 0, answered = 0;
  for (std::uint64_t i = 0;
       i < 200 && (i < 20 || failed == 0 || answered == 0); ++i) {
    fault::InjectorConfig cfg;
    cfg.enabled = true;
    cfg.seed = 1000 * env_seed + i;
    cfg.rate_permille = 500;
    cfg.site_filter = "prune.sssp.alloc";
    fault::Injector::global().configure(cfg);
    std::vector<dist::DistPeekResult> per_rank(ranks);
    dist::run_ranks(ranks, [&](dist::Comm& c) {
      dist::DistPeekOptions opts;
      opts.k = k;
      per_rank[static_cast<size_t>(c.rank())] =
          dist::dist_peek_ksp(c, g, s, t, opts);
    });
    const bool fired = fault::Injector::global().total_fired() > 0;
    fault::Injector::global().disable();

    SCOPED_TRACE(::testing::Message() << "injector seed " << cfg.seed);
    const dist::DistPeekResult& first = per_rank[0];
    for (const auto& r : per_rank) {
      EXPECT_EQ(r.status, first.status);
      ASSERT_EQ(r.ksp.paths.size(), first.ksp.paths.size());
      for (size_t j = 0; j < r.ksp.paths.size(); ++j) {
        EXPECT_EQ(r.ksp.paths[j].verts, first.ksp.paths[j].verts);
        EXPECT_EQ(r.ksp.paths[j].dist, first.ksp.paths[j].dist);
      }
    }
    if (fired) {
      ++failed;
      EXPECT_EQ(first.status, fault::Status::kResourceExhausted);
      EXPECT_TRUE(first.ksp.paths.empty());
    } else {
      ++answered;
      EXPECT_EQ(first.status, fault::Status::kOk);
      ASSERT_EQ(first.ksp.paths.size(), serial.ksp.paths.size());
      for (size_t j = 0; j < first.ksp.paths.size(); ++j)
        EXPECT_EQ(first.ksp.paths[j].dist, serial.ksp.paths[j].dist);
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(answered, 0);
}

// ------------------------------------------------------------- serving --

TEST_F(FaultTest, QueryValidatesArguments) {
  auto g = test::random_graph(50, 300, 21);
  serve::QueryEngine engine(g);
  const std::int64_t before = metric("serve.invalid_arguments");
  EXPECT_EQ(engine.query(-1, 1, 4).status.code, fault::Status::kInvalidArgument);
  EXPECT_EQ(engine.query(0, g.num_vertices(), 4).status.code,
            fault::Status::kInvalidArgument);
  EXPECT_EQ(engine.query(0, 1, 0).status.code, fault::Status::kInvalidArgument);
  EXPECT_EQ(metric("serve.invalid_arguments") - before, 3);
  EXPECT_EQ(engine.inflight_entries(), 0u);
}

// The ISSUE acceptance scenario: a 1 ms deadline on a stalled pipeline
// returns kDeadlineExceeded (not a crash, not a hang) while a concurrent
// normal query on the same engine still gets the exact PeeK answer.
TEST_F(FaultTest, DeadlineExceededUnderInjectedStall) {
  auto g = test::random_graph(1500, 12000, 31);
  const vid_t s = 0, t = g.num_vertices() - 1;
  core::PeekOptions base;
  base.k = 8;
  auto fresh = core::peek_ksp(g, s, t, base);

  serve::ServeOptions so;
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.stall = 60ms;
  cfg.site_filter = "prune.scan.stall";
  so.injector = cfg;
  serve::QueryEngine engine(g, so);
  EXPECT_TRUE(fault::Injector::global().enabled());  // ctor installed it

  const std::int64_t before = metric("serve.deadline_exceeded");
  serve::ServeResult tight, normal;
  std::thread deadline_thread([&] {
    serve::QueryOptions qo;
    qo.deadline = 1ms;
    tight = engine.query(s, t, 8, qo);
  });
  std::this_thread::sleep_for(20ms);
  normal = engine.query(s, t, 8);
  deadline_thread.join();

  EXPECT_EQ(tight.status.code, fault::Status::kDeadlineExceeded);
  test::check_ksp_invariants(g, s, t, tight.paths);  // partial but valid
  EXPECT_GE(metric("serve.deadline_exceeded") - before, 1);

  // The un-cancelled query is bit-identical to fresh core::peek_ksp.
  EXPECT_TRUE(normal.status.ok());
  ASSERT_EQ(normal.paths.size(), fresh.ksp.paths.size());
  for (size_t i = 0; i < fresh.ksp.paths.size(); ++i) {
    EXPECT_EQ(normal.paths[i].verts, fresh.ksp.paths[i].verts);
    EXPECT_EQ(normal.paths[i].dist, fresh.ksp.paths[i].dist);
  }
  EXPECT_EQ(engine.inflight_entries(), 0u);
  EXPECT_EQ(engine.admitted_now(), 0);
}

TEST_F(FaultTest, CallerTokenCancelsMidFlight) {
  auto g = test::random_graph(1500, 12000, 37);
  serve::ServeOptions so;
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.stall = 100ms;
  cfg.site_filter = "prune.scan.stall";
  so.injector = cfg;
  serve::QueryEngine engine(g, so);

  auto tok = fault::CancelToken::cancellable();
  serve::ServeResult r;
  std::thread qt([&] {
    serve::QueryOptions qo;
    qo.cancel = &tok;
    r = engine.query(0, g.num_vertices() - 1, 8, qo);
  });
  std::this_thread::sleep_for(10ms);
  tok.cancel();
  qt.join();
  EXPECT_EQ(r.status.code, fault::Status::kCancelled);
  EXPECT_EQ(engine.inflight_entries(), 0u);
}

TEST_F(FaultTest, AdmissionControlShedsBeyondMaxInflight) {
  auto g = test::random_graph(400, 2800, 41);
  serve::ServeOptions so;
  so.max_inflight = 1;
  so.degraded_serving = false;
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.stall = 250ms;  // holds the occupant inside query()
  cfg.site_filter = "prune.scan.stall";
  so.injector = cfg;
  serve::QueryEngine engine(g, so);

  const std::int64_t before = metric("serve.shed");
  serve::ServeResult slow;
  std::thread occupant([&] { slow = engine.query(0, 1, 4); });
  std::this_thread::sleep_for(50ms);
  auto shed = engine.query(2, 3, 4);  // second query while the slot is held
  occupant.join();

  EXPECT_EQ(shed.status.code, fault::Status::kOverloaded);
  EXPECT_TRUE(shed.paths.empty());
  EXPECT_GE(metric("serve.shed") - before, 1);
  EXPECT_TRUE(slow.status.ok());
  EXPECT_EQ(engine.admitted_now(), 0);
  EXPECT_EQ(engine.inflight_entries(), 0u);
}

TEST_F(FaultTest, ShedQueryDegradesToCachedPaths) {
  auto g = test::random_graph(400, 2800, 43);
  const vid_t s = 0, t = g.num_vertices() - 1;
  serve::ServeOptions so;
  so.max_inflight = 1;  // degraded_serving stays default-on
  serve::QueryEngine engine(g, so);
  auto warm = engine.query(s, t, 4);  // materializes the (s, t) snapshot
  ASSERT_TRUE(warm.status.ok());
  ASSERT_FALSE(warm.paths.empty());

  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.stall = 250ms;
  cfg.site_filter = "prune.scan.stall";
  fault::Injector::global().configure(cfg);

  const std::int64_t before = metric("serve.degraded");
  serve::ServeResult slow;
  std::thread occupant([&] { slow = engine.query(1, 2, 4); });
  std::this_thread::sleep_for(50ms);
  auto degraded = engine.query(s, t, 4);  // shed -> cached answer, no work
  occupant.join();

  EXPECT_TRUE(degraded.status.ok());
  EXPECT_TRUE(degraded.degraded);
  EXPECT_TRUE(degraded.snapshot_hit);
  ASSERT_EQ(degraded.paths.size(), warm.paths.size());
  for (size_t i = 0; i < warm.paths.size(); ++i)
    EXPECT_EQ(degraded.paths[i].verts, warm.paths[i].verts);
  EXPECT_GE(metric("serve.degraded") - before, 1);
  EXPECT_TRUE(slow.status.ok());
}

TEST_F(FaultTest, CorruptSnapshotHitIsDroppedAndRecomputed) {
  auto g = test::random_graph(300, 2100, 47);
  const vid_t s = 0, t = g.num_vertices() - 1;
  serve::QueryEngine engine(g);
  auto warm = engine.query(s, t, 4);
  ASSERT_TRUE(warm.status.ok());

  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.site_filter = "serve.snapshot.corrupt";
  fault::Injector::global().configure(cfg);

  const std::int64_t before = metric("serve.cache.corruption_drops");
  auto r = engine.query(s, t, 4);
  EXPECT_TRUE(r.status.ok());
  EXPECT_FALSE(r.snapshot_hit);  // the doubted hit was dropped
  EXPECT_GE(metric("serve.cache.corruption_drops") - before, 1);
  ASSERT_EQ(r.paths.size(), warm.paths.size());
  for (size_t i = 0; i < warm.paths.size(); ++i) {
    EXPECT_EQ(r.paths[i].verts, warm.paths[i].verts);
    EXPECT_EQ(r.paths[i].dist, warm.paths[i].dist);
  }
}

TEST_F(FaultTest, InjectedAllocInServingIsTypedNotThrown) {
  auto g = test::random_graph(300, 2100, 53);
  serve::ServeOptions so;
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 1;
  cfg.rate_permille = 1000;
  cfg.site_filter = "prune.sssp.alloc";
  so.injector = cfg;
  serve::QueryEngine engine(g, so);
  auto r = engine.query(0, g.num_vertices() - 1, 4);
  EXPECT_EQ(r.status.code, fault::Status::kResourceExhausted);
  EXPECT_TRUE(r.paths.empty());
  EXPECT_EQ(engine.inflight_entries(), 0u);

  // With injection off again the same engine serves the query normally.
  fault::Injector::global().disable();
  auto ok = engine.query(0, g.num_vertices() - 1, 4);
  EXPECT_TRUE(ok.status.ok());
}

}  // namespace
}  // namespace peek
