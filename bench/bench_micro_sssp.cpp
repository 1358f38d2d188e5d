// Micro-benchmarks of the SSSP kernels (google-benchmark): Dijkstra vs
// Δ-stepping on 1, 2 and 4 workers, forward vs reverse, and Δ sensitivity —
// the data behind the Δ-stepping configuration choices in §6.2.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace {

using namespace peek;

const graph::CsrGraph& test_graph() {
  static graph::CsrGraph g = bench::twitter_like(11);
  return g;
}

void BM_Dijkstra(benchmark::State& state) {
  const auto& g = test_graph();
  for (auto _ : state) {
    auto r = sssp::dijkstra(sssp::GraphView(g), 1);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_Dijkstra);

void BM_DijkstraEarlyExit(benchmark::State& state) {
  const auto& g = test_graph();
  sssp::DijkstraOptions opts;
  opts.target = g.num_vertices() / 2;
  for (auto _ : state) {
    auto r = sssp::dijkstra(sssp::GraphView(g), 1, opts);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_DijkstraEarlyExit);

void BM_DeltaStepping(benchmark::State& state) {
  const auto& g = test_graph();
  // The argument is the worker count.
  par::ThreadScope scope(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto r = sssp::delta_stepping(sssp::GraphView(g), 1);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_DeltaStepping)->Arg(1)->Arg(2)->Arg(4);

void BM_DeltaSensitivity(benchmark::State& state) {
  const auto& g = test_graph();
  sssp::DeltaSteppingOptions opts;
  opts.delta = 1.0 / static_cast<weight_t>(state.range(0));
  for (auto _ : state) {
    auto r = sssp::delta_stepping(sssp::GraphView(g), 1, opts);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_DeltaSensitivity)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_ReverseDijkstra(benchmark::State& state) {
  const auto& g = test_graph();
  g.warm_reverse();
  for (auto _ : state) {
    auto r = sssp::reverse_dijkstra(g, 1);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_ReverseDijkstra);

void BM_BellmanFord(benchmark::State& state) {
  // The oracle is intentionally slow; kept here to quantify how much.
  static graph::CsrGraph small = bench::twitter_like(8);
  for (auto _ : state) {
    auto r = sssp::bellman_ford(small, 1);
    benchmark::DoNotOptimize(r.dist.data());
  }
}
BENCHMARK(BM_BellmanFord);

}  // namespace

BENCHMARK_MAIN();
