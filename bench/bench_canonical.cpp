// Canonical perf-regression driver: fixed-seed workloads over a fixed graph
// subset, emitting a schema-versioned JSON (BENCH_<pr>.json at the repo root)
// that tools/bench_compare.py diffs against the committed baseline in CI.
//
// Workloads per graph: SSSP (Dijkstra and Δ-stepping, whose distances must
// agree), prune, compact, KSP (serial Yen: one restricted Dijkstra per
// deviation) and the end-to-end PeeK pipeline.
//
// Each graph also carries the live-mutation A/B (dyn.repair.{incremental,
// full}): cone repair of 16 cached SSSP trees after a single-edge reweight
// vs rebuilding them from scratch — gated on bit-identity AND on the repair
// being at least 5x faster (DESIGN.md §15).
//
// On R21 the driver additionally runs the sharded-serving Zipf storm
// (shard.storm.{unhedged,hedged}.R21): a warm 4-shard × 2-replica fleet
// under deterministic injected replica stalls, hedging off vs on. Those two
// metrics carry extra p50_s/p99_s fields (tail latency is the whole point
// of hedging; a median would gate nothing), and the driver aborts if any
// fleet answer differs from single-engine core::peek_ksp or if the hedged
// p99 fails to beat the unhedged p99.
//
// Usage: bench_canonical [--out PATH] [--pr N] [--reps N] [--seed S]
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "compact/adaptive.hpp"
#include "core/peek.hpp"
#include "core/upper_bound.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/repair.hpp"
#include "dyn/update_batch.hpp"
#include "ksp/yen.hpp"
#include "recover/artifacts.hpp"
#include "shard/fleet.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace {

using namespace peek;
using bench::TimingStats;

struct GraphEntry {
  std::string name;
  vid_t n = 0;
  eid_t m = 0;
  std::uint64_t fingerprint = 0;
};

// std::map: deterministic key order in the emitted JSON, so two runs diff
// cleanly as text too.
using MetricMap = std::map<std::string, TimingStats>;

/// Storm metrics are TimingStats (median_s = p50 — the gated statistic)
/// plus the tail fields tools/bench_compare.py additionally gates.
struct StormStats {
  TimingStats base;
  double p50_s = 0;
  double p99_s = 0;
};
using StormMap = std::map<std::string, StormStats>;

bool same_dists(const sssp::SsspResult& a, const sssp::SsspResult& b) {
  return a.dist == b.dist;  // bit-identical, not approximately equal
}

void run_graph(const bench::BenchGraph& bg, int reps, std::uint64_t seed,
               MetricMap& metrics, std::vector<GraphEntry>& entries) {
  const graph::CsrGraph& g = bg.g;
  entries.push_back({bg.name, g.num_vertices(), g.num_edges(),
                     recover::graph_fingerprint(g)});

  const auto pairs = bench::sample_pairs(g, 1, seed);
  if (pairs.empty()) {
    std::fprintf(stderr, "bench_canonical: no usable s-t pair on %s\n",
                 bg.name.c_str());
    std::exit(1);
  }
  const vid_t s = pairs[0].first, t = pairs[0].second;
  const sssp::GraphView view(g);
  auto key = [&bg](const char* metric) {
    return std::string(metric) + "." + bg.name;
  };

  // -- SSSP ----------------------------------------------------------------
  sssp::SsspResult dijkstra_ref;
  metrics[key("sssp.dijkstra")] = bench::time_stats(reps, [&] {
    dijkstra_ref = sssp::dijkstra(view, s, {});
  });
  sssp::SsspResult delta;
  metrics[key("sssp.delta")] = bench::time_stats(reps, [&] {
    delta = sssp::delta_stepping(view, s, {});
  });
  if (!same_dists(dijkstra_ref, delta)) {
    std::fprintf(stderr,
                 "bench_canonical: Δ-stepping diverged from Dijkstra on %s — "
                 "refusing to emit numbers for broken code\n",
                 bg.name.c_str());
    std::exit(1);
  }

  // -- Prune + compact -----------------------------------------------------
  core::PruneOptions po;
  po.k = 8;
  po.parallel = true;
  core::PruneResult pr;
  metrics[key("prune")] = bench::time_stats(reps, [&] {
    pr = core::k_upper_bound_prune(g, s, t, po);
  });

  metrics[key("compact")] = bench::time_stats(reps, [&] {
    // Fresh MutableCsr per rep: edge-swap mutates it, and the pipeline pays
    // this copy per query too.
    compact::MutableCsr mc(g);
    compact::adaptive_compact(mc, g.num_edges(), pr.vertex_keep.data(),
                              pr.edge_keep, {.alpha = 0.5, .parallel = true});
  });

  // -- KSP: serial Yen, one restricted Dijkstra per deviation -------------
  ksp::KspOptions ko;
  ko.k = 8;
  ko.parallel = false;
  metrics[key("ksp.yen")] = bench::time_stats(reps, [&] {
    ksp::yen_ksp(g, s, t, ko);
  });

  // -- End-to-end PeeK -----------------------------------------------------
  core::PeekOptions eo;
  eo.k = 8;
  eo.parallel = true;
  metrics[key("peek.e2e")] = bench::time_stats(reps, [&] {
    core::peek_ksp(g, s, t, eo);
  });
}

// -- Sharded serving storm (DESIGN.md §12) -----------------------------------

double storm_pct(std::vector<double> v, size_t permille) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = (v.size() * permille) / 1000;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

/// One Zipf storm through a fresh 4-shard × 2-replica fleet. Warm caches +
/// injected replica stalls: the tail is manufactured by the injector, not by
/// cold compute, so the hedged-vs-unhedged comparison is machine-independent.
/// Aborts on any divergence from `want` (the single-engine answers).
StormStats storm_pass(const graph::CsrGraph& g, bool hedging,
                      const std::vector<std::pair<vid_t, vid_t>>& pool,
                      const std::vector<size_t>& ranks,
                      const std::vector<std::vector<sssp::Path>>& want,
                      std::uint64_t seed) {
  constexpr int kStormK = 8;
  shard::FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 2;
  // Two workers per replica so an abandoned (hedged-away) stall does not
  // serialize the next query behind it in the replica queue.
  fo.workers_per_replica = 2;
  fo.hedge = std::chrono::milliseconds(hedging ? 3 : 0);
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = seed;
  inj.rate_permille = 60;
  inj.stall = std::chrono::milliseconds(20);
  inj.site_filter = "shard.replica.stall";
  fo.injector = inj;
  shard::ShardFleet fleet(g, fo);

  // Warm both home-shard replicas (primary AND hedge target) directly —
  // engine access bypasses the worker queues, so no stall probes fire here.
  for (const auto& [s, t] : pool) {
    const int home = fleet.router().route(s, t);
    for (int r = 0; r < fleet.replicas(); ++r) {
      fleet.engine(home, r).query(s, t, kStormK);
    }
  }

  std::vector<double> lat;
  lat.reserve(ranks.size());
  for (const size_t rk : ranks) {
    const auto [s, t] = pool[rk];
    const auto res = fleet.query(s, t, kStormK);
    bool same = res.result.status.code == fault::Status::kOk &&
                !res.result.degraded &&
                res.result.paths.size() == want[rk].size();
    for (size_t i = 0; same && i < want[rk].size(); ++i) {
      same = res.result.paths[i].verts == want[rk][i].verts &&
             res.result.paths[i].dist == want[rk][i].dist;
    }
    if (!same) {
      std::fprintf(stderr,
                   "bench_canonical: %s fleet answer diverged from "
                   "core::peek_ksp — refusing to emit numbers for broken "
                   "code\n",
                   hedging ? "hedged" : "unhedged");
      std::exit(1);
    }
    lat.push_back(res.seconds);
  }
  StormStats st;
  st.base.reps = static_cast<int>(lat.size());
  st.base.min_s = *std::min_element(lat.begin(), lat.end());
  st.p50_s = storm_pct(lat, 500);
  st.p99_s = storm_pct(lat, 990);
  st.base.median_s = st.p50_s;
  fleet.publish_latency_metrics();
  return st;
}

void run_shard_storm(const bench::BenchGraph& bg, std::uint64_t seed,
                     StormMap& storm) {
  const graph::CsrGraph& g = bg.g;
  constexpr int kQueries = 160;
  constexpr int kPool = 16;
  const auto pool = bench::sample_pairs(g, kPool, seed);
  if (pool.empty()) {
    std::fprintf(stderr, "bench_canonical: no storm pairs on %s\n",
                 bg.name.c_str());
    std::exit(1);
  }

  // Zipfian ranks over the pool: P(rank i) proportional to (i+1)^-0.99.
  std::vector<double> cdf(pool.size());
  double acc = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    acc += std::pow(static_cast<double>(i + 1), -0.99);
    cdf[i] = acc;
  }
  std::mt19937_64 rng(seed ^ 0x5e47e);
  std::uniform_real_distribution<double> uni(0.0, acc);
  std::vector<size_t> ranks;
  ranks.reserve(kQueries);
  for (int q = 0; q < kQueries; ++q) {
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
    ranks.push_back(std::min(r, pool.size() - 1));
  }

  // Ground truth per pool pair — every fleet answer must match exactly.
  std::vector<std::vector<sssp::Path>> want;
  want.reserve(pool.size());
  for (const auto& [s, t] : pool) {
    core::PeekOptions po;
    po.k = 8;
    want.push_back(core::peek_ksp(g, s, t, po).ksp.paths);
  }

  const auto key = [&bg](const char* metric) {
    return std::string(metric) + "." + bg.name;
  };
  const StormStats unhedged =
      storm_pass(g, /*hedging=*/false, pool, ranks, want, seed);
  const StormStats hedged =
      storm_pass(g, /*hedging=*/true, pool, ranks, want, seed);
  // The storm installs a stall injector; later graphs must not inherit it.
  fault::Injector::global().disable();

  if (hedged.p99_s >= unhedged.p99_s) {
    std::fprintf(stderr,
                 "bench_canonical: hedged p99 (%.6fs) did not beat unhedged "
                 "p99 (%.6fs) under injected stalls on %s\n",
                 hedged.p99_s, unhedged.p99_s, bg.name.c_str());
    std::exit(1);
  }
  storm[key("shard.storm.unhedged")] = unhedged;
  storm[key("shard.storm.hedged")] = hedged;
}

// -- Live-mutation repair: cone repair vs full recompute (DESIGN.md §15) -----

/// Times the surgical repair of 16 cached SSSP trees (8 forward + 8 reverse)
/// after a single-edge reweight against rebuilding all 16 from scratch on the
/// post-mutation CSR. Two gates ride along: every repaired tree must be
/// bit-identical to the from-scratch Dijkstra (soundness), and the repair
/// must be at least 5x faster (the point of the §15 pipeline — a repair no
/// cheaper than recompute would make the bounded-staleness machinery pure
/// overhead).
void run_dyn_repair(const bench::BenchGraph& bg, int reps, std::uint64_t seed,
                    MetricMap& metrics) {
  const graph::CsrGraph& g = bg.g;
  constexpr int kTreePairs = 8;
  const auto pool = bench::sample_pairs(g, kTreePairs, seed ^ 0xd15ea5e);
  if (pool.empty()) {
    std::fprintf(stderr, "bench_canonical: no repair pairs on %s\n",
                 bg.name.c_str());
    std::exit(1);
  }

  g.warm_reverse();
  std::vector<std::shared_ptr<const sssp::SsspResult>> fwd, rev;
  for (const auto& [s, t] : pool) {
    fwd.push_back(std::make_shared<sssp::SsspResult>(
        sssp::dijkstra(sssp::GraphView(g), s)));
    rev.push_back(std::make_shared<sssp::SsspResult>(
        sssp::dijkstra(sssp::GraphView(g.reverse()), t)));
  }

  // Pick the reweighted edge by how deep it sits in the cached trees: a
  // reweight of (u, v) opens a cone starting at dist_f[u] in a forward tree
  // and dist_r[v] in a reverse tree, so deeper edges open smaller cones.
  // The 7/8 depth quantile keeps the bench representative — neither the
  // adversarial near-root edge (cone == whole graph) nor a fringe edge no
  // cached tree can see. (High-diameter graphs spread depths uniformly, so
  // a shallower quantile would repair a quarter of the graph 16 times over
  // and measure Dijkstra, not surgery.)
  struct Cand {
    weight_t depth;
    vid_t u, v;
    weight_t w;
  };
  std::vector<Cand> cands;
  for (vid_t u = 0; u < g.num_vertices(); ++u) {
    if (g.degree(u) == 0) continue;
    const eid_t e = g.edge_begin(u);
    const vid_t v = g.edge_target(e);
    weight_t depth = kInfDist;
    for (const auto& f : fwd) depth = std::min(depth, f->dist[u]);
    for (const auto& r : rev) depth = std::min(depth, r->dist[v]);
    if (depth == kInfDist) continue;  // invisible to every cached tree
    cands.push_back({depth, u, v, g.edge_weight(e)});
  }
  if (cands.empty()) {
    std::fprintf(stderr, "bench_canonical: no cached tree sees any edge on "
                 "%s\n", bg.name.c_str());
    std::exit(1);
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    return a.depth != b.depth ? a.depth < b.depth : a.u < b.u;
  });
  const Cand pick = cands[cands.size() * 7 / 8];

  dyn::DynamicGraph dg(g);
  const dyn::AppliedBatch applied = dyn::apply(
      dg, dyn::UpdateBatch{}.reweight(pick.u, pick.v, pick.w * 1.5 + 0.05));
  if (!applied.any_applied() || applied.structural()) {
    std::fprintf(stderr, "bench_canonical: repair batch did not land as a "
                 "pure reweight on %s\n", bg.name.c_str());
    std::exit(1);
  }
  const graph::CsrGraph post = dyn::patched_csr(dg, g, applied);
  post.warm_reverse();
  const sssp::GraphView post_fwd(post);
  const sssp::GraphView post_rev(post.reverse());

  const auto key = [&bg](const char* metric) {
    return std::string(metric) + "." + bg.name;
  };

  // Incremental path: cone thresholds + repair_trees, seeded from the cached
  // pre-mutation trees. Threshold computation is part of the cost the
  // serving layer pays per batch, so it stays inside the timed region.
  dyn::RepairResult repaired;
  metrics[key("dyn.repair.incremental")] = bench::time_stats(reps, [&] {
    std::vector<dyn::RepairJob> jobs;
    jobs.reserve(pool.size() * 2);
    for (size_t i = 0; i < pool.size(); ++i) {
      dyn::RepairJob jf;
      jf.root = pool[i].first;
      jf.reverse = false;
      jf.threshold = dyn::cone_threshold(applied, *fwd[i], /*reverse=*/false);
      jf.base = fwd[i];
      jobs.push_back(std::move(jf));
      dyn::RepairJob jr;
      jr.root = pool[i].second;
      jr.reverse = true;
      jr.threshold = dyn::cone_threshold(applied, *rev[i], /*reverse=*/true);
      jr.base = rev[i];
      jobs.push_back(std::move(jr));
    }
    repaired = dyn::repair_trees(post, jobs);
  });
  if (repaired.status.code != fault::Status::kOk) {
    std::fprintf(stderr, "bench_canonical: repair_trees failed on %s: %s\n",
                 bg.name.c_str(), repaired.status.message.c_str());
    std::exit(1);
  }

  // Full-recompute path: what the engine falls back to when a repair
  // crashes — a fresh Dijkstra per cached tree on the post-mutation CSR.
  std::vector<sssp::SsspResult> fresh;
  metrics[key("dyn.repair.full")] = bench::time_stats(reps, [&] {
    fresh.clear();
    fresh.reserve(pool.size() * 2);
    for (const auto& [s, t] : pool) {
      fresh.push_back(sssp::dijkstra(post_fwd, s));
      fresh.push_back(sssp::dijkstra(post_rev, t));
    }
  });

  // Soundness gate: job order interleaves fwd_i, rev_i — same order the
  // recompute loop produces.
  for (size_t i = 0; i < pool.size(); ++i) {
    const bool fwd_ok = repaired.trees[2 * i] != nullptr &&
                        same_dists(*repaired.trees[2 * i], fresh[2 * i]);
    const bool rev_ok = repaired.trees[2 * i + 1] != nullptr &&
                        same_dists(*repaired.trees[2 * i + 1],
                                   fresh[2 * i + 1]);
    if (!fwd_ok || !rev_ok) {
      std::fprintf(stderr,
                   "bench_canonical: cone repair diverged from from-scratch "
                   "Dijkstra on %s (pair %zu) — refusing to emit numbers for "
                   "broken code\n",
                   bg.name.c_str(), i);
      std::exit(1);
    }
  }

  const double inc = metrics[key("dyn.repair.incremental")].median_s;
  const double full = metrics[key("dyn.repair.full")].median_s;
  if (full < 5.0 * inc) {
    std::fprintf(stderr,
                 "bench_canonical: cone repair (%.6fs) is not >= 5x faster "
                 "than full recompute (%.6fs) on %s after a single-edge "
                 "reweight\n",
                 inc, full, bg.name.c_str());
    std::exit(1);
  }
}

void write_json(const char* path, int pr, int reps, std::uint64_t seed,
                const std::vector<GraphEntry>& graphs,
                const MetricMap& metrics, const StormMap& storm) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_canonical: cannot open %s for writing\n",
                 path);
    std::exit(1);
  }
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
#ifdef _OPENMP
  const bool openmp = true;
#else
  const bool openmp = false;
#endif
#ifdef PEEK_SANITIZED
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#ifndef PEEK_BUILD_TYPE
#define PEEK_BUILD_TYPE "unknown"
#endif
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"peek-bench-v1\",\n");
  std::fprintf(f, "  \"schema_version\": 1,\n");
  std::fprintf(f, "  \"pr\": %d,\n", pr);
  std::fprintf(f,
               "  \"build\": {\"compiler\": \"%s\", \"build_type\": \"%s\", "
               "\"openmp\": %s, \"sanitized\": %s},\n",
               __VERSION__, PEEK_BUILD_TYPE, openmp ? "true" : "false",
               sanitized ? "true" : "false");
  std::fprintf(f,
               "  \"machine\": {\"host\": \"%s\", \"hardware_threads\": %u},\n",
               host, std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"config\": {\"reps\": %d, \"seed\": %" PRIu64 "},\n", reps,
               seed);
  std::fprintf(f, "  \"graphs\": [\n");
  for (size_t i = 0; i < graphs.size(); ++i) {
    const GraphEntry& ge = graphs[i];
    // Fingerprint as a string: uint64 does not survive a round-trip through
    // JSON readers that parse numbers as doubles.
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"vertices\": %lld, \"edges\": %lld, "
                 "\"fingerprint\": \"%016" PRIx64 "\"}%s\n",
                 ge.name.c_str(), static_cast<long long>(ge.n),
                 static_cast<long long>(ge.m), ge.fingerprint,
                 i + 1 < graphs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics\": {\n");
  size_t i = 0;
  for (const auto& [name, st] : metrics) {
    std::fprintf(f,
                 "    \"%s\": {\"median_s\": %.9f, \"min_s\": %.9f, "
                 "\"reps\": %d}%s\n",
                 name.c_str(), st.median_s, st.min_s, st.reps,
                 ++i < metrics.size() || !storm.empty() ? "," : "");
  }
  size_t j = 0;
  for (const auto& [name, st] : storm) {
    std::fprintf(f,
                 "    \"%s\": {\"median_s\": %.9f, \"min_s\": %.9f, "
                 "\"reps\": %d, \"p50_s\": %.9f, \"p99_s\": %.9f}%s\n",
                 name.c_str(), st.base.median_s, st.base.min_s, st.base.reps,
                 st.p50_s, st.p99_s, ++j < storm.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bench::enable_metrics_dump(argc, argv);
  int pr = 10;
  int reps = 5;
  std::uint64_t seed = 42;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    auto val = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_canonical: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* vo = val("--out")) {
      out = vo;
    } else if (const char* vp = val("--pr")) {
      pr = std::atoi(vp);
    } else if (const char* vr = val("--reps")) {
      reps = std::atoi(vr);
    } else if (const char* vs = val("--seed")) {
      seed = std::strtoull(vs, nullptr, 10);
    } else if (val("--metrics-json")) {
      // Consumed by bench::enable_metrics_dump above.
    } else {
      std::fprintf(stderr,
                   "usage: bench_canonical [--out PATH] [--pr N] [--reps N] "
                   "[--seed S]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (out.empty()) out = "BENCH_" + std::to_string(pr) + ".json";

#ifdef PEEK_SANITIZED
  std::fprintf(stderr,
               "bench_canonical: sanitized build — timings are not "
               "comparable to a release baseline\n");
#endif

  // The canonical subset: one skewed R-MAT (R21), one preferential-attachment
  // social graph (LJ), one high-diameter small-world (WL — the most spur
  // SSSPs per Yen run), one larger twitter-like R-MAT (GT). Weighted
  // variants only — unit-weight twins exercise the same code paths.
  MetricMap metrics;
  StormMap storm;
  std::vector<GraphEntry> entries;
  for (auto& bg : bench::benchmark_suite(0)) {
    if (bg.name != "R21" && bg.name != "LJ" && bg.name != "WL" &&
        bg.name != "GT")
      continue;
    std::fprintf(stderr, "bench_canonical: %s (%lld vertices, %lld edges)\n",
                 bg.name.c_str(), static_cast<long long>(bg.g.num_vertices()),
                 static_cast<long long>(bg.g.num_edges()));
    run_graph(bg, reps, seed, metrics, entries);
    run_dyn_repair(bg, reps, seed, metrics);
    if (bg.name == "R21") {
      std::fprintf(stderr, "bench_canonical: %s sharded-serving storm\n",
                   bg.name.c_str());
      run_shard_storm(bg, seed, storm);
    }
  }

  write_json(out.c_str(), pr, reps, seed, entries, metrics, storm);
  std::fprintf(stderr, "bench_canonical: wrote %s (%zu metrics)\n",
               out.c_str(), metrics.size() + storm.size());
  return 0;
}
