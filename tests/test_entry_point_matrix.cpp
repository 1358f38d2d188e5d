// One answer from every entry point that prunes. Serial core::peek_ksp is
// the reference; parallel peek_ksp (1, 2 and 4 threads), DistPeek (1, 2 and
// 4 ranks) and the serving engine (serial and parallel, queried cold and
// with the forward tree cached) must return its paths vertex for vertex and
// its distances under `==`. The graphs have unit weights, so most lengths
// tie and any entry point that walked other forward parents, searched another
// row order or compacted differently would pick other, equally short paths.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/peek.hpp"
#include "dist/dist_peek.hpp"
#include "parallel/parallel_for.hpp"
#include "serve/query_engine.hpp"
#include "test_util.hpp"

namespace peek {
namespace {

constexpr int kPairs = 12;
constexpr int kKs[] = {4, 16, 64};
constexpr int kAnswers = 216;  // 6 graphs x 12 pairs x 3 Ks

/// test::tie_heavy_graphs() plus larger graphs of the same three families.
std::vector<test::NamedGraph> matrix_graphs() {
  graph::WeightOptions unit;
  unit.kind = graph::WeightKind::kUnit;
  std::vector<test::NamedGraph> graphs = test::tie_heavy_graphs();
  graphs.push_back({"grid32x32", graph::grid(32, 32, unit)});
  graphs.push_back({"er2000", graph::erdos_renyi(2000, 8000, unit, 5)});
  graphs.push_back({"smallworld2000",
                    graph::small_world(2000, 4, 0.2, unit, 7)});
  return graphs;
}

void expect_identical(const std::vector<sssp::Path>& got,
                      const std::vector<sssp::Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].verts, want[i].verts) << "path " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "path " << i;
  }
}

/// Runs `check(g, s, t, k, serial)` on every matrix answer, with `serial`
/// the serial peek_ksp paths; returns how many answers it ran.
int for_each_answer(
    const std::function<void(const graph::CsrGraph&, vid_t, vid_t, int,
                             const std::vector<sssp::Path>&)>& check) {
  int answers = 0;
  for (const auto& [name, g] : matrix_graphs()) {
    for (const auto& [s, t] : test::spread_pairs(g.num_vertices(), kPairs)) {
      for (int k : kKs) {
        SCOPED_TRACE(name + " " + std::to_string(s) + "->" +
                     std::to_string(t) + " K=" + std::to_string(k));
        core::PeekOptions po;
        po.k = k;
        const core::PeekResult serial = core::peek_ksp(g, s, t, po);
        EXPECT_EQ(serial.status, fault::Status::kOk);
        check(g, s, t, k, serial.ksp.paths);
        answers++;
      }
    }
  }
  return answers;
}

TEST(EntryPointMatrix, ParallelPeekMatchesSerial) {
  const int answers = for_each_answer([](const graph::CsrGraph& g, vid_t s,
                                         vid_t t, int k,
                                         const std::vector<sssp::Path>& want) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      par::ThreadScope scope(threads);
      core::PeekOptions po;
      po.k = k;
      po.parallel = true;
      expect_identical(core::peek_ksp(g, s, t, po).ksp.paths, want);
    }
  });
  EXPECT_EQ(answers, kAnswers);
}

TEST(EntryPointMatrix, DistPeekMatchesSerial) {
  const int answers = for_each_answer([](const graph::CsrGraph& g, vid_t s,
                                         vid_t t, int k,
                                         const std::vector<sssp::Path>& want) {
    for (int ranks : {1, 2, 4}) {
      SCOPED_TRACE(std::to_string(ranks) + " ranks");
      std::vector<dist::DistPeekResult> per_rank(static_cast<size_t>(ranks));
      dist::run_ranks(ranks, [&](dist::Comm& c) {
        dist::DistPeekOptions opts;
        opts.k = k;
        per_rank[static_cast<size_t>(c.rank())] =
            dist::dist_peek_ksp(c, g, s, t, opts);
      });
      for (const dist::DistPeekResult& got : per_rank) {
        EXPECT_EQ(got.status, fault::Status::kOk);
        expect_identical(got.ksp.paths, want);
      }
    }
  });
  EXPECT_EQ(answers, kAnswers);
}

TEST(EntryPointMatrix, ServedAnswersMatchSerial) {
  // A prune budget of exactly K (every K here is a power of two), so a miss
  // prunes as peek_ksp does. The cold engine answers each pair first; the
  // warm one first answers another pair from the same source, so the pair's
  // own miss prunes with the cached forward tree.
  const int answers = for_each_answer([](const graph::CsrGraph& g, vid_t s,
                                         vid_t t, int k,
                                         const std::vector<sssp::Path>& want) {
    for (bool parallel : {false, true}) {
      SCOPED_TRACE(parallel ? "parallel engine" : "serial engine");
      serve::ServeOptions so;
      so.k_budget_floor = 1;
      so.peek.parallel = parallel;
      serve::QueryEngine cold(g, so);
      const serve::ServeResult a = cold.query(s, t, k);
      EXPECT_EQ(a.status.code, fault::Status::kOk) << a.status.message;
      EXPECT_FALSE(a.fwd_tree_hit);
      expect_identical(a.paths, want);

      serve::QueryEngine warm(g, so);
      const vid_t n = g.num_vertices();
      vid_t other = (t + 1) % n;
      if (other == s) other = (other + 1) % n;
      ASSERT_EQ(warm.query(s, other, k).status.code, fault::Status::kOk);
      const serve::ServeResult b = warm.query(s, t, k);
      EXPECT_EQ(b.status.code, fault::Status::kOk) << b.status.message;
      EXPECT_TRUE(b.fwd_tree_hit);
      EXPECT_FALSE(b.snapshot_hit);
      expect_identical(b.paths, want);
    }
  });
  EXPECT_EQ(answers, kAnswers);
}

}  // namespace
}  // namespace peek
