// Figure 9: shared-memory scalability — PeeK (K = 8) speedup over 1 thread
// for 1..32 OpenMP threads on every benchmark graph. NOTE: on a machine with
// fewer hardware threads than the sweep, curves flatten past its thread
// count; all thread configurations still execute the full parallel code
// path (see EXPERIMENTS.md).
#include <cstdlib>

#include "bench_common.hpp"
#include "core/peek.hpp"
#include "parallel/parallel_for.hpp"

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
  const int pairs = env_int("PEEK_BENCH_PAIRS", 2);
  auto suite = benchmark_suite(env_int("PEEK_BENCH_SHIFT", 0));
  print_header("Figure 9: shared-memory scalability (PeeK, K=8)",
               "Figure 9 — speedup vs thread count, K=8");
  print_row({"graph", "t=1", "t=2", "t=4", "t=8", "t=16", "t=32"});

  for (const auto& bg : suite) {
    auto pts = sample_pairs(bg.g, pairs, 42);
    if (pts.empty()) continue;
    std::vector<std::string> row{bg.name};
    double base = 0;
    for (int threads : {1, 2, 4, 8, 16, 32}) {
      par::ThreadScope scope(threads);
      double total = 0;
      for (auto [s, t] : pts) {
        core::PeekOptions po;
        po.k = 8;
        po.parallel = threads > 1;
        total += time_seconds([&] { core::peek_ksp(bg.g, s, t, po); });
      }
      if (threads == 1) {
        base = total;
        row.push_back(fmt(total / pts.size(), 3) + "s");
      } else {
        row.push_back(fmt(base / total, 2) + "x");
      }
    }
    print_row(row);
  }
  return 0;
}
