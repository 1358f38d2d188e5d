// Figure 10: distributed-memory scalability of PeeK (K = 8) on the simulated
// message-passing runtime. The paper scales 16..1024 cores on TACC; here
// ranks are in-process threads (DESIGN.md §3), so TEPS and speedups reflect
// the algorithm's communication structure, not real cluster bandwidth. The
// MTEPS column divides the edges relaxed by the one distributed SSSP (the
// forward Δ-stepping) by the wall time of the whole query, all stages.
#include <cstdlib>

#include "bench_common.hpp"
#include "dist/dist_peek.hpp"

namespace {
using namespace peek;
using namespace peek::bench;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}
}  // namespace

int main(int argc, char** argv) {
  enable_metrics_dump(argc, argv);
  auto suite = benchmark_suite(env_int("PEEK_BENCH_SHIFT", -1));
  print_header("Figure 10: distributed scalability (PeeK, K=8)",
               "Figure 10 — simulated ranks standing in for 16..1024 cores; "
               "MTEPS = edges relaxed by the forward distributed SSSP / "
               "whole-query seconds");
  print_row({"graph", "ranks", "time(s)", "MTEPS", "paths"});

  for (const auto& bg : suite) {
    // Two representative graphs keep the bench quick.
    if (bg.name != "R21" && bg.name != "GT") continue;
    auto pts = sample_pairs(bg.g, 1, 42);
    if (pts.empty()) continue;
    const auto [s, t] = pts[0];
    for (int ranks : {1, 2, 4, 8, 16}) {
      std::int64_t relaxed = 0;
      size_t paths = 0;
      const double secs = time_seconds([&] {
        dist::run_ranks(ranks, [&](dist::Comm& c) {
          dist::DistPeekOptions opts;
          opts.k = 8;
          auto r = dist::dist_peek_ksp(c, bg.g, s, t, opts);
          if (c.rank() == 0) {
            relaxed = r.edges_relaxed;
            paths = r.ksp.paths.size();
          }
        });
      });
      print_row({bg.name, std::to_string(ranks), fmt(secs, 3),
                 fmt(static_cast<double>(relaxed) / secs / 1e6, 2),
                 std::to_string(paths)});
    }
  }
  return 0;
}
