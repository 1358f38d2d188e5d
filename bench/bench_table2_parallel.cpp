// Table 2: parallel runtime (s) of Yen, NC, OptYen and PeeK on the eight
// benchmark graphs for K = 8 and K = 128, plus PeeK's speedup over the best
// competitor. Paper setup: 32 threads on 2x Xeon; here: whatever OpenMP
// offers in this container (documented in EXPERIMENTS.md).
#include <cstdlib>

#include "bench_common.hpp"
#include "core/peek.hpp"
#include "ksp/node_classification.hpp"
#include "ksp/optyen.hpp"
#include "ksp/yen.hpp"

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
  const int shift = env_int("PEEK_BENCH_SHIFT", 0);
  auto suite = benchmark_suite(shift);

  print_header("Table 2: parallel runtime (s)",
               "Table 2 — Yen/NC/OptYen/PeeK, 32 threads, K=8 and K=128");
  print_row({"graph", "K", "Yen", "NC", "OptYen", "PeeK", "speedup"});

  // Seconds of Yen, NC, OptYen and PeeK on one query, each parallel.
  struct Times {
    double yen = 0, nc = 0, opt = 0, peek = 0;
  };
  auto run_query = [](const graph::CsrGraph& g, vid_t s, vid_t t, int k,
                      Times& sum) {
    ksp::KspOptions ko;
    ko.k = k;
    ko.parallel = true;
    sum.yen += time_seconds([&] { ksp::yen_ksp(g, s, t, ko); });
    sum.nc += time_seconds([&] { ksp::nc_ksp(g, s, t, ko); });
    sum.opt += time_seconds([&] { ksp::optyen_ksp(g, s, t, ko); });
    core::PeekOptions po;
    po.k = k;
    po.parallel = true;
    sum.peek += time_seconds([&] { core::peek_ksp(g, s, t, po); });
  };

  // One discarded warm-up query: the first measured row would otherwise pay
  // the process's one-off costs (the thread team's start, first
  // allocations) and could print a 0.0x speedup.
  if (!suite.empty()) {
    for (auto [s, t] : sample_pairs(suite.front().g, 1, 42)) {
      Times discarded;
      run_query(suite.front().g, s, t, 8, discarded);
    }
  }

  for (int k : {8, 128}) {
    for (const auto& bg : suite) {
      auto pts = sample_pairs(bg.g, pairs, 42);
      if (pts.empty()) continue;
      Times sum;
      for (auto [s, t] : pts) run_query(bg.g, s, t, k, sum);
      const double n = pts.size();
      const double best = std::min({sum.yen, sum.nc, sum.opt}) / n;
      // Built with append rather than operator+ chaining: GCC 12's
      // -Werror=restrict false-fires on the inlined concatenation temporaries.
      std::string speedup = "(";
      speedup += fmt(best / (sum.peek / n), 1);
      speedup += "x)";
      print_row({bg.name, std::to_string(k), fmt(sum.yen / n),
                 fmt(sum.nc / n), fmt(sum.opt / n), fmt(sum.peek / n),
                 speedup});
    }
  }
  return 0;
}
