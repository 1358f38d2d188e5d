// Thread-count sweeps: every parallel code path must return the same answer
// at every thread count (the §7.5 scalability experiment's correctness
// premise).
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/peek.hpp"
#include "ksp/hop_limited.hpp"
#include "ksp/node_classification.hpp"
#include "ksp/optyen.hpp"
#include "ksp/yen.hpp"
#include "parallel/parallel_for.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

class ThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThreadSweep, PeekStableAcrossThreadCounts) {
  par::ThreadScope scope(GetParam());
  auto g = test::random_graph(200, 1600, 901);
  core::PeekOptions opts;
  opts.k = 8;
  opts.parallel = true;
  auto r = core::peek_ksp(g, 0, 100, opts);
  // Reference computed serially at any thread count: the same prune (one
  // forward kernel, one parent rule) and KSP search, so the same paths.
  core::PeekOptions ser;
  ser.k = 8;
  auto ref = core::peek_ksp(g, 0, 100, ser);
  ASSERT_EQ(ref.ksp.paths.size(), r.ksp.paths.size());
  for (size_t i = 0; i < ref.ksp.paths.size(); ++i) {
    EXPECT_EQ(ref.ksp.paths[i].verts, r.ksp.paths[i].verts) << "rank " << i;
    EXPECT_EQ(ref.ksp.paths[i].dist, r.ksp.paths[i].dist) << "rank " << i;
  }
}

TEST_P(ThreadSweep, OptYenStableAcrossThreadCounts) {
  par::ThreadScope scope(GetParam());
  auto g = test::random_graph(150, 1200, 903);
  ksp::KspOptions opts;
  opts.k = 6;
  opts.parallel = true;
  auto r = ksp::optyen_ksp(g, 0, 75, opts);
  ksp::KspOptions ser;
  ser.k = 6;
  auto ref = ksp::optyen_ksp(g, 0, 75, ser);
  test::expect_same_distances(ref.paths, r.paths);
}

TEST_P(ThreadSweep, YenStableAcrossThreadCounts) {
  par::ThreadScope scope(GetParam());
  auto g = test::random_graph(120, 960, 905);
  ksp::KspOptions opts;
  opts.k = 6;
  opts.parallel = true;
  auto r = ksp::yen_ksp(g, 0, 60, opts);
  ksp::KspOptions ser;
  ser.k = 6;
  test::expect_same_distances(ksp::yen_ksp(g, 0, 60, ser).paths, r.paths);
}

// Every deviation search is a serial Dijkstra in every mode, so a parallel
// run computes the serial run's deviations, pops its candidates in the
// pool's total order and returns its paths vertex for vertex, with the same
// work count — also on unit weights, where many paths tie.
TEST_P(ThreadSweep, KspPathsMatchSerialUnderTies) {
  par::ThreadScope scope(GetParam());
  using Algo =
      std::function<ksp::KspResult(const graph::CsrGraph&, vid_t, vid_t,
                                   const ksp::KspOptions&)>;
  const std::pair<const char*, Algo> algos[] = {
      {"optyen",
       [](const graph::CsrGraph& g, vid_t s, vid_t t,
          const ksp::KspOptions& o) { return ksp::optyen_ksp(g, s, t, o); }},
      {"yen",
       [](const graph::CsrGraph& g, vid_t s, vid_t t,
          const ksp::KspOptions& o) { return ksp::yen_ksp(g, s, t, o); }},
      {"nc",
       [](const graph::CsrGraph& g, vid_t s, vid_t t,
          const ksp::KspOptions& o) { return ksp::nc_ksp(g, s, t, o); }},
      {"hop_limited",
       [](const graph::CsrGraph& g, vid_t s, vid_t t,
          const ksp::KspOptions& o) {
         return ksp::hop_limited_ksp(sssp::BiView::of(g), s, t,
                                     {.base = o, .max_hops = 12});
       }},
  };
  for (const auto& [name, g] : test::tie_heavy_graphs()) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), 12)) {
      for (const int k : {4, 16, 64}) {
        for (const auto& [algo, run] : algos) {
          SCOPED_TRACE(std::string(algo) + " on " + name + " " +
                       std::to_string(s) + "->" + std::to_string(t) +
                       " K=" + std::to_string(k));
          const auto serial = run(g, s, t, {.k = k});
          const auto parallel = run(g, s, t, {.k = k, .parallel = true});
          ASSERT_EQ(serial.paths.size(), parallel.paths.size());
          for (size_t i = 0; i < serial.paths.size(); ++i) {
            EXPECT_EQ(serial.paths[i].verts, parallel.paths[i].verts)
                << "rank " << i;
            EXPECT_EQ(serial.paths[i].dist, parallel.paths[i].dist)
                << "rank " << i;
          }
          EXPECT_EQ(serial.stats.sssp_calls, parallel.stats.sssp_calls);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep, ::testing::Values(1, 2, 4, 8));

TEST(ThreadScope, RestoresThreadCount) {
  const int before = par::max_threads();
  {
    par::ThreadScope scope(2);
    EXPECT_EQ(par::max_threads(), 2);
  }
  EXPECT_EQ(par::max_threads(), before);
}

}  // namespace
}  // namespace peek
