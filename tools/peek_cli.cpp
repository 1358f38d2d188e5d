// peek — command-line K shortest paths.
//
//   peek --graph web.gr --format dimacs --source 4 --target 912 --k 8
//   peek --gen rmat --scale 14 --k 16 --algo yen --pairs 4 --seed 7
//
// Loads (or generates) a graph, answers one or many KSP queries with any of
// the implemented algorithms, and prints paths or timing summaries. This is
// the downstream-user entry point; every library feature is reachable from
// here without writing C++.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <map>
#include <optional>
#include <string>

#include <algorithm>

#include "core/batch.hpp"
#include "fault/injector.hpp"
#include "core/shortest_k_group.hpp"
#include "serve/query_engine.hpp"
#include "shard/fleet.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "ksp/node_classification.hpp"
#include "ksp/optyen.hpp"
#include "ksp/pnc.hpp"
#include "ksp/sidetrack.hpp"
#include "ksp/yen.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace peek;

struct Args {
  std::map<std::string, std::string> kv;

  bool has(const std::string& key) const { return kv.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  long get_int(const std::string& key, long fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stol(it->second);
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : std::stod(it->second);
  }
};

void usage() {
  std::puts(
      "peek - K shortest simple paths\n"
      "\n"
      "input (one of):\n"
      "  --graph PATH --format {edgelist|dimacs|binary}   load a graph file\n"
      "  --gen {rmat|er|smallworld|prefattach|grid} [--scale S] [--n N]\n"
      "        [--weights {random|unit}] [--seed X]        generate one\n"
      "\n"
      "query:\n"
      "  --source V --target V      a single query, prints the paths\n"
      "  --pairs N                  N random reachable pairs, prints timings\n"
      "  --k K                      number of paths (default 8)\n"
      "  --groups G                 GQL SHORTEST-k-GROUP mode instead\n"
      "\n"
      "serving (repeated-query driver over the serve/ layer):\n"
      "  --serve N                  answer N queries drawn Zipfian from a\n"
      "                             pool of random pairs, print hit rates\n"
      "                             and latency percentiles\n"
      "  --pool P                   distinct (s,t) pairs in the pool (16)\n"
      "  --zipf THETA               Zipf skew across the pool (0.99)\n"
      "  --cache-mb M               artifact-cache byte budget (256)\n"
      "  --deadline-ms D            per-query deadline; tripped queries\n"
      "                             return their partial paths (0 = none)\n"
      "  --max-inflight Q           admission bound; excess queries are shed\n"
      "                             to degraded cached answers (0 = off)\n"
      "  --snapshot-dir PATH        crash-safe persistence: warm-restart the\n"
      "                             cache from PATH's snapshots on startup\n"
      "                             (validating and quarantining corrupt\n"
      "                             files), spill the cache back on exit\n"
      "  --no-warm-restart          with --snapshot-dir: write snapshots but\n"
      "                             ignore existing ones on startup\n"
      "\n"
      "sharded serving (consistent-hash fleet, DESIGN.md §12):\n"
      "  --shards S                 serve through a fleet of S shards instead\n"
      "                             of one engine (with --serve)\n"
      "  --replicas R               replicas per shard (default 1)\n"
      "  --hedge-ms H               fire a duplicate attempt on another\n"
      "                             replica if none completed within H ms;\n"
      "                             the loser is cancelled (0 = off)\n"
      "\n"
      "algorithm:\n"
      "  --algo {peek|yen|nc|optyen|sb|sbstar|pnc|pncstar}  (default peek)\n"
      "  --parallel                 parallel prune (delta-stepping) and\n"
      "                             concurrent deviation searches\n"
      "  --alpha A                  adaptive compaction threshold (peek)\n"
      "  --stats                    print graph statistics and exit\n"
      "\n"
      "observability:\n"
      "  PEEK_METRICS=out.json      dump the pipeline metrics registry\n"
      "                             (stage timers, SSSP/prune/compaction\n"
      "                             counters) as JSON on exit\n");
}

graph::CsrGraph load_graph(const Args& args) {
  if (args.has("graph")) {
    const std::string path = args.get("graph", "");
    const std::string format = args.get("format", "edgelist");
    if (format == "dimacs") return graph::read_dimacs_file(path);
    if (format == "binary") return graph::read_binary_file(path);
    if (format == "edgelist") return graph::read_edge_list_file(path);
    throw std::runtime_error("unknown --format " + format);
  }
  graph::WeightOptions w;
  w.kind = args.get("weights", "random") == "unit" ? graph::WeightKind::kUnit
                                                   : graph::WeightKind::kUniform01;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  w.seed = seed + 1;
  const std::string gen = args.get("gen", "rmat");
  const int scale = static_cast<int>(args.get_int("scale", 14));
  const vid_t n = static_cast<vid_t>(args.get_int("n", 1 << scale));
  if (gen == "rmat") return graph::rmat(scale, 8, w, seed);
  if (gen == "er") return graph::erdos_renyi(n, static_cast<eid_t>(n) * 8, w, seed);
  if (gen == "smallworld") return graph::small_world(n, 8, 0.05, w, seed);
  if (gen == "prefattach") return graph::preferential_attachment(n, 4, w, seed);
  if (gen == "grid") {
    const vid_t side = static_cast<vid_t>(std::max(2.0, std::sqrt(double(n))));
    return graph::grid(side, side, w, seed);
  }
  throw std::runtime_error("unknown --gen " + gen);
}

ksp::KspResult run_algorithm(const std::string& algo, const graph::CsrGraph& g,
                             vid_t s, vid_t t, const ksp::KspOptions& ko) {
  if (algo == "yen") return ksp::yen_ksp(g, s, t, ko);
  if (algo == "nc") return ksp::nc_ksp(g, s, t, ko);
  if (algo == "optyen") return ksp::optyen_ksp(g, s, t, ko);
  if (algo == "sb") return ksp::sb_ksp(g, s, t, ko);
  if (algo == "sbstar") return ksp::sb_star_ksp(g, s, t, ko);
  if (algo == "pnc") return ksp::pnc_ksp(g, s, t, ko);
  if (algo == "pncstar") return ksp::pnc_star_ksp(g, s, t, ko);
  throw std::runtime_error("unknown --algo " + algo);
}

/// Random (source, reachable target) pairs, deterministic in `seed`.
std::vector<std::pair<vid_t, vid_t>> sample_reachable_pairs(
    const graph::CsrGraph& g, int count, std::uint64_t seed) {
  std::vector<std::pair<vid_t, vid_t>> pairs;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  auto fwd = sssp::GraphView(g);
  while (static_cast<int>(pairs.size()) < count) {
    const vid_t s = pick(rng);
    auto r = sssp::dijkstra(fwd, s);
    std::vector<vid_t> reach;
    for (vid_t v = 0; v < g.num_vertices(); ++v)
      if (v != s && r.dist[v] != kInfDist) reach.push_back(v);
    if (reach.empty()) continue;
    std::uniform_int_distribution<size_t> pick_t(0, reach.size() - 1);
    pairs.emplace_back(s, reach[pick_t(rng)]);
  }
  return pairs;
}

/// Sharded serving driver (--shards): the same Zipf storm, routed through a
/// shard::ShardFleet — per-shard latency digests and hedge/failover tallies
/// come out the other end.
int run_serve_sharded(const graph::CsrGraph& g, const Args& args, int k,
                      bool parallel) {
  const int n_queries = static_cast<int>(args.get_int("serve", 64));
  const int pool_size = static_cast<int>(args.get_int("pool", 16));
  const double theta = args.get_double("zipf", 0.99);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  shard::FleetOptions fo;
  fo.router.shards = static_cast<int>(args.get_int("shards", 4));
  fo.replicas = static_cast<int>(args.get_int("replicas", 1));
  fo.hedge = std::chrono::milliseconds(args.get_int("hedge-ms", 0));
  fo.default_deadline =
      std::chrono::milliseconds(args.get_int("deadline-ms", 0));
  fo.serve.peek.parallel = parallel;
  // --cache-mb is the fleet-wide budget; each replica gets its slice.
  const int total_replicas = std::max(1, fo.router.shards * fo.replicas);
  fo.serve.cache.byte_budget =
      (static_cast<std::size_t>(args.get_int("cache-mb", 256)) << 20) /
      static_cast<std::size_t>(total_replicas);
  fo.serve.max_inflight = static_cast<int>(args.get_int("max-inflight", 0));
  fo.max_queue = static_cast<int>(args.get_int("max-inflight", 0));
  fault::Injector::global().configure_from_env();
  shard::ShardFleet fleet(g, fo);

  const auto pool = sample_reachable_pairs(g, pool_size, seed);
  std::vector<double> cdf(pool.size());
  double acc = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    acc += std::pow(static_cast<double>(i + 1), -theta);
    cdf[i] = acc;
  }
  std::mt19937_64 rng(seed ^ 0x5e47e);
  std::uniform_real_distribution<double> uni(0.0, acc);

  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(n_queries));
  int hedged = 0, hedge_wins = 0, failovers = 0, degraded = 0, faulted = 0;
  for (int q = 0; q < n_queries; ++q) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
    const auto [s, t] = pool[std::min(rank, pool.size() - 1)];
    auto r = fleet.query(s, t, k);
    lat.push_back(r.seconds);
    hedged += r.hedged ? 1 : 0;
    hedge_wins += r.hedge_won ? 1 : 0;
    failovers += r.failover ? 1 : 0;
    degraded += r.result.degraded ? 1 : 0;
    faulted += r.result.status.ok() ? 0 : 1;
  }
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    return lat[std::min(lat.size() - 1,
                        static_cast<size_t>(p * double(lat.size())))];
  };
  std::printf(
      "served %d queries across %d shards x %d replicas "
      "(pool %zu, zipf %.2f, k %d, hedge %lld ms)\n"
      "hedged %d (wins %d), failovers %d, degraded %d, faults %d\n"
      "latency p50 %.6fs  p90 %.6fs  p99 %.6fs\n",
      n_queries, fleet.shards(), fleet.replicas(), pool.size(), theta, k,
      static_cast<long long>(fo.hedge.count()), hedged, hedge_wins,
      failovers, degraded, faulted, pct(0.50), pct(0.90), pct(0.99));
  const auto st = fleet.stats();
  for (size_t i = 0; i < st.size(); ++i) {
    std::printf("shard %zu: %llu queries, p50 %.6fs, p99 %.6fs\n", i,
                static_cast<unsigned long long>(st[i].count), st[i].p50_s,
                st[i].p99_s);
  }
  fleet.publish_latency_metrics();  // shard.* gauges for PEEK_METRICS dumps
  return 0;
}

/// Repeated-query serving driver: N queries drawn Zipfian over a pool of
/// pairs through serve::QueryEngine, reporting hit rates and latency
/// percentiles — the shape of a production deployment, from the shell.
int run_serve(const graph::CsrGraph& g, const Args& args, int k,
              bool parallel) {
  if (args.get_int("shards", 0) > 0) return run_serve_sharded(g, args, k, parallel);
  const int n_queries = static_cast<int>(args.get_int("serve", 64));
  const int pool_size = static_cast<int>(args.get_int("pool", 16));
  const double theta = args.get_double("zipf", 0.99);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  serve::ServeOptions so;
  so.peek.parallel = parallel;
  so.cache.byte_budget =
      static_cast<std::size_t>(args.get_int("cache-mb", 256)) << 20;
  so.default_deadline =
      std::chrono::milliseconds(args.get_int("deadline-ms", 0));
  so.max_inflight = static_cast<int>(args.get_int("max-inflight", 0));
  so.snapshot_dir = args.get("snapshot-dir", "");
  so.warm_restart = !args.has("no-warm-restart");
  // PEEK_FAULT_SEED & friends: deterministic fault injection from the shell
  // (DESIGN.md §9). Inert when the variables are unset.
  fault::Injector::global().configure_from_env();
  serve::QueryEngine engine(g, so);
  if (!so.snapshot_dir.empty() && engine.restored_artifacts() > 0)
    std::printf("warm restart: %d artifacts restored from %s\n",
                engine.restored_artifacts(), so.snapshot_dir.c_str());

  const auto pool = sample_reachable_pairs(g, pool_size, seed);
  // Zipf over pool ranks: weight(i) = (i+1)^-theta, sampled by inverse CDF.
  std::vector<double> cdf(pool.size());
  double acc = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    acc += std::pow(static_cast<double>(i + 1), -theta);
    cdf[i] = acc;
  }
  std::mt19937_64 rng(seed ^ 0x5e47e);
  std::uniform_real_distribution<double> uni(0.0, acc);

  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(n_queries));
  int hits = 0, tree_hits = 0, extensions = 0;
  int deadline_trips = 0, degraded = 0, faulted = 0;
  for (int q = 0; q < n_queries; ++q) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
    const auto [s, t] = pool[std::min(rank, pool.size() - 1)];
    auto r = engine.query(s, t, k);
    lat.push_back(r.seconds);
    hits += r.snapshot_hit ? 1 : 0;
    tree_hits += (r.fwd_tree_hit || r.rev_tree_hit) ? 1 : 0;
    extensions += r.extended ? 1 : 0;
    deadline_trips += r.status == fault::Status::kDeadlineExceeded ? 1 : 0;
    degraded += r.degraded ? 1 : 0;
    faulted += (!r.status.ok() &&
                r.status.code != fault::Status::kDeadlineExceeded)
                   ? 1
                   : 0;
  }
  std::sort(lat.begin(), lat.end());
  auto pct = [&](double p) {
    return lat[std::min(lat.size() - 1,
                        static_cast<size_t>(p * double(lat.size())))];
  };
  const auto cs = engine.cache().stats();
  std::printf(
      "served %d queries (pool %zu, zipf %.2f, k %d)\n"
      "snapshot hits %d (%.1f%%), tree-assisted misses %d, extensions %d\n"
      "deadline trips %d, degraded answers %d, other faults %d\n"
      "latency p50 %.6fs  p90 %.6fs  p99 %.6fs\n"
      "cache: %zu entries, %.1f MiB used, %lld evictions\n",
      n_queries, pool.size(), theta, k, hits,
      100.0 * hits / std::max(1, n_queries), tree_hits, extensions,
      deadline_trips, degraded, faulted, pct(0.50), pct(0.90), pct(0.99),
      cs.entries, double(cs.bytes_used) / double(1 << 20),
      static_cast<long long>(cs.evictions));
  if (!so.snapshot_dir.empty()) {
    const int written = engine.persist();
    std::printf("persisted %d snapshot files to %s\n", written,
                so.snapshot_dir.c_str());
  }
  return 0;
}

/// PEEK_METRICS=path env hook: dump the global registry as JSON on any exit
/// path (registered via atexit so every `return` in main is covered).
void dump_metrics_at_exit() {
  const char* path = std::getenv("PEEK_METRICS");
  if (!path || !*path) return;
  if (!obs::write_metrics_json(path,
                               obs::MetricsRegistry::global().snapshot())) {
    std::fprintf(stderr, "warning: failed to write PEEK_METRICS file %s\n",
                 path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::atexit(dump_metrics_at_exit);
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      usage();
      return 2;
    }
    key.erase(0, 2);  // drop "--" (erase, not substr: GCC 12's -Wrestrict
                      // false-positives on self-assignment from a substr)
    if (key == "help") {
      usage();
      return 0;
    }
    // Flags without values.
    if (key == "parallel" || key == "stats" || key == "no-warm-restart") {
      args.kv.emplace(key, "1");
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      return 2;
    }
    args.kv[key] = argv[++i];
  }

  try {
    graph::CsrGraph g = load_graph(args);
    if (args.has("stats")) {
      std::printf("%s\n", graph::to_string(graph::compute_stats(g)).c_str());
      return 0;
    }

    const int k = static_cast<int>(args.get_int("k", 8));
    const std::string algo = args.get("algo", "peek");
    const bool parallel = args.has("parallel");

    if (args.has("serve")) return run_serve(g, args, k, parallel);

    if (args.has("groups")) {
      core::PeekOptions po;
      po.parallel = parallel;
      auto r = core::shortest_k_groups(
          g, static_cast<vid_t>(args.get_int("source", 0)),
          static_cast<vid_t>(args.get_int("target", 1)),
          static_cast<int>(args.get_int("groups", 3)), po);
      for (size_t i = 0; i < r.groups.size(); ++i) {
        std::printf("group %zu (dist %.6f, %zu paths)\n", i + 1,
                    r.groups[i].dist, r.groups[i].paths.size());
        for (const auto& p : r.groups[i].paths)
          std::printf("  %s\n", sssp::to_string(p).c_str());
      }
      return 0;
    }

    if (args.has("source") && args.has("target")) {
      const auto s = static_cast<vid_t>(args.get_int("source", 0));
      const auto t = static_cast<vid_t>(args.get_int("target", 0));
      if (algo == "peek") {
        core::PeekOptions po;
        po.k = k;
        po.parallel = parallel;
        po.alpha = args.get_double("alpha", 0.5);
        auto r = core::peek_ksp(g, s, t, po);
        std::printf("b=%.6f kept %d/%d vertices, %s compaction, "
                    "%.4f/%.4f/%.4fs prune/compact/ksp\n",
                    r.upper_bound, r.kept_vertices, g.num_vertices(),
                    compact::to_string(r.strategy_used), r.prune_seconds,
                    r.compact_seconds, r.ksp_seconds);
        for (const auto& p : r.ksp.paths)
          std::printf("%s\n", sssp::to_string(p).c_str());
      } else {
        ksp::KspOptions ko;
        ko.k = k;
        ko.parallel = parallel;
        auto r = run_algorithm(algo, g, s, t, ko);
        std::printf("%d SSSP calls, %d tree shortcuts\n", r.stats.sssp_calls,
                    r.stats.tree_shortcuts);
        for (const auto& p : r.paths)
          std::printf("%s\n", sssp::to_string(p).c_str());
      }
      return 0;
    }

    // Batch mode over random pairs.
    const int pairs = static_cast<int>(args.get_int("pairs", 4));
    std::vector<core::BatchQuery> queries;
    for (auto [s, t] : sample_reachable_pairs(
             g, pairs, static_cast<std::uint64_t>(args.get_int("seed", 1)))) {
      queries.push_back({s, t});
    }
    core::BatchOptions bo;
    bo.per_query.k = k;
    bo.parallel_queries = parallel;
    auto batch = core::peek_ksp_batch(g, queries, bo);
    double avg = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto& r = batch.results[i];
      std::printf("pair %zu: %d->%d, %zu paths, kept %d vertices, %.4fs\n",
                  i + 1, queries[i].s, queries[i].t, r.ksp.paths.size(),
                  r.kept_vertices, r.total_seconds());
      avg += r.total_seconds();
    }
    std::printf("batch wall %.4fs, avg per query %.4fs\n", batch.wall_seconds,
                avg / queries.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
