#include "dist/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>

#include "core/peek.hpp"
#include "dist/dist_peek.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace peek::dist {
namespace {

TEST(Comm, RankAndSize) {
  std::atomic<int> seen{0};
  run_ranks(4, [&](Comm& c) {
    EXPECT_EQ(c.size(), 4);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 4);
    seen.fetch_add(1);
  });
  EXPECT_EQ(seen.load(), 4);
}

TEST(Comm, PointToPoint) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send<int>(1, 7, {1, 2, 3});
      auto back = c.recv<int>(1, 8);
      EXPECT_EQ(back, (std::vector<int>{6}));
    } else {
      auto v = c.recv<int>(0, 7);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
      c.send<int>(0, 8, {std::accumulate(v.begin(), v.end(), 0)});
    }
  });
}

TEST(Comm, TagsMatchIndependently) {
  // Messages with different tags must not cross-match even when the low-tag
  // one is sent last.
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send<int>(1, 20, {20});
      c.send<int>(1, 10, {10});
    } else {
      EXPECT_EQ(c.recv<int>(0, 10)[0], 10);
      EXPECT_EQ(c.recv<int>(0, 20)[0], 20);
    }
  });
}

TEST(Comm, SelfSend) {
  run_ranks(1, [](Comm& c) {
    c.send<double>(0, 1, {3.5});
    EXPECT_DOUBLE_EQ(c.recv<double>(0, 1)[0], 3.5);
  });
}

TEST(Comm, EmptyPayload) {
  run_ranks(2, [](Comm& c) {
    if (c.rank() == 0) c.send<int>(1, 1, {});
    else EXPECT_TRUE(c.recv<int>(0, 1).empty());
  });
}

TEST(Comm, BarrierIsReusable) {
  std::atomic<int> phase_sum{0};
  run_ranks(3, [&](Comm& c) {
    for (int round = 0; round < 5; ++round) {
      phase_sum.fetch_add(1);
      c.barrier();
      // After each barrier everyone observed all increments of the round.
      EXPECT_EQ(phase_sum.load() % 3, 0);
      c.barrier();
    }
  });
}

TEST(Comm, Allgather) {
  run_ranks(4, [](Comm& c) {
    auto all = c.allgather(c.rank() * 10);
    EXPECT_EQ(all, (std::vector<int>{0, 10, 20, 30}));
  });
}

TEST(Comm, Allgatherv) {
  run_ranks(3, [](Comm& c) {
    std::vector<int> mine(static_cast<size_t>(c.rank()), c.rank());
    auto all = c.allgatherv(mine);
    ASSERT_EQ(all.size(), 3u);
    EXPECT_TRUE(all[0].empty());
    EXPECT_EQ(all[1], (std::vector<int>{1}));
    EXPECT_EQ(all[2], (std::vector<int>{2, 2}));
  });
}

TEST(Comm, Reductions) {
  run_ranks(4, [](Comm& c) {
    EXPECT_EQ(c.allreduce_sum(c.rank() + 1), 10);
    EXPECT_EQ(c.allreduce_min(10 - c.rank()), 7);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(0.5), 2.0);
  });
}

TEST(Comm, ExceptionPropagates) {
  EXPECT_THROW(run_ranks(2, [](Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("boom");
                 // rank 0 exits normally without waiting
               }),
               std::runtime_error);
}

TEST(Comm, StressManyRanksCollectives) {
  run_ranks(16, [](Comm& c) {
    for (int i = 0; i < 10; ++i) {
      const int total = c.allreduce_sum(1);
      EXPECT_EQ(total, 16);
    }
  });
}

// --------------------------------------------------- retry with backoff --

/// RetryOptions with a fast, recorded sleep (no real waiting in tests).
RetryOptions recorded_retry(std::vector<std::chrono::nanoseconds>* log) {
  RetryOptions r;
  r.max_attempts = 5;
  r.base_delay = std::chrono::nanoseconds(1000);
  r.seed = 7;
  r.sleep = [log](std::chrono::nanoseconds d) { log->push_back(d); };
  return r;
}

TEST(Retry, BackoffScheduleIsDeterministic) {
  std::vector<std::chrono::nanoseconds> slept;
  auto opts = recorded_retry(&slept);
  int calls = 0;
  const int v = with_retry(
      [&] {
        if (++calls < 4) throw TransientError("flaky");
        return 42;
      },
      opts);
  EXPECT_EQ(v, 42);
  EXPECT_EQ(calls, 4);
  // The sleeps are exactly the pure schedule, in order.
  ASSERT_EQ(slept.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(slept[i], backoff_delay(opts, i));
  // Jitter (0.1) never cancels the 2x growth: strictly increasing delays.
  EXPECT_LT(slept[0], slept[1]);
  EXPECT_LT(slept[1], slept[2]);
}

TEST(Retry, LastFailurePropagatesAfterMaxAttempts) {
  std::vector<std::chrono::nanoseconds> slept;
  auto opts = recorded_retry(&slept);
  int calls = 0;
  EXPECT_THROW(with_retry(
                   [&]() -> int {
                     ++calls;
                     throw TransientError("always");
                   },
                   opts),
               TransientError);
  EXPECT_EQ(calls, opts.max_attempts);
  EXPECT_EQ(slept.size(), static_cast<size_t>(opts.max_attempts - 1));
}

TEST(Retry, NonTransientErrorsPropagateImmediately) {
  std::vector<std::chrono::nanoseconds> slept;
  auto opts = recorded_retry(&slept);
  int calls = 0;
  EXPECT_THROW(with_retry(
                   [&]() -> int {
                     ++calls;
                     throw std::logic_error("bug, not weather");
                   },
                   opts),
               std::logic_error);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
}

TEST(Retry, CountsRetryAttemptsMetric) {
  auto& counter = obs::MetricsRegistry::global().counter("dist.retry.attempts");
  const std::int64_t before = counter.value();
  std::vector<std::chrono::nanoseconds> slept;
  auto opts = recorded_retry(&slept);
  int calls = 0;
  (void)with_retry(
      [&] {
        if (++calls < 3) throw TransientError("flaky");
        return 0;
      },
      opts);
  EXPECT_EQ(counter.value() - before, 2);
}

// ------------------------------------- injected transport-level faults --

/// Fast-backoff options for injected-fault rides (sleeps stay real but tiny;
/// max_attempts is generous because the injector can fire several times in a
/// row on one logical send).
RetryOptions fast_retry() {
  RetryOptions r;
  r.max_attempts = 12;
  r.base_delay = std::chrono::nanoseconds(1000);
  return r;
}

TEST(Comm, ReliableExchangeRidesThroughInjectedSendFaults) {
  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 9;
  cfg.rate_permille = 300;
  cfg.site_filter = "dist.comm.send";
  fault::Injector::global().configure(cfg);
  const std::int64_t before =
      obs::MetricsRegistry::global().counter("dist.retry.attempts").value();

  run_ranks(4, [](Comm& c) {
    std::vector<std::vector<int>> out(4);
    for (int d = 0; d < 4; ++d) out[d] = {c.rank() * 10 + d};
    auto in = c.all_to_all_reliable(out, 42, fast_retry());
    for (int src = 0; src < 4; ++src)
      EXPECT_EQ(in[src], (std::vector<int>{src * 10 + c.rank()}));
  });

  // The probe fired (a dropped send was retried), yet every payload arrived
  // exactly once — send failures happen before enqueue, so retries never
  // duplicate a message.
  EXPECT_GT(fault::Injector::global().total_fired(), 0);
  EXPECT_GT(
      obs::MetricsRegistry::global().counter("dist.retry.attempts").value(),
      before);
  fault::Injector::global().disable();
}

TEST(DistPeek, MatchesSerialUnderInjectedSendFaults) {
  auto g = test::random_graph(60, 420, 23);
  const vid_t s = 0, t = 59;
  core::PeekOptions po;
  po.k = 4;
  auto serial = core::peek_ksp(g, s, t, po);

  fault::InjectorConfig cfg;
  cfg.enabled = true;
  cfg.seed = 4;
  cfg.rate_permille = 150;
  cfg.site_filter = "dist.comm.send";
  fault::Injector::global().configure(cfg);

  DistPeekOptions dopts;
  dopts.k = 4;
  dopts.retry = fast_retry();
  run_ranks(3, [&](Comm& c) {
    auto r = dist_peek_ksp(c, g, s, t, dopts);
    test::expect_same_distances(r.ksp.paths, serial.ksp.paths);
  });
  fault::Injector::global().disable();
}

}  // namespace
}  // namespace peek::dist
