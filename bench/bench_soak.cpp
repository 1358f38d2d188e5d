// Chaos soak gate (DESIGN.md §14): a multi-threaded Zipf query storm through
// shard::ShardFleet while the deterministic fault::Injector fires replica
// stalls (shard.replica.stall), dead-process bounces (shard.replica.down) and
// answer corruption (shard.replica.corrupt). The harness asserts the fleet's
// whole self-healing contract end to end:
//
//   1. Continuous availability — every storm query comes back kOk (degraded
//      prefixes allowed, typed failures not), and the process never aborts.
//   2. Bit-identity — every non-degraded kOk answer equals core::peek_ksp
//      exactly; degraded answers are exact prefixes of it.
//   3. The healing cycle actually runs — at least one injected corruption is
//      caught by the §14 certificate and the victim replica demonstrably
//      traverses quarantine -> cache drop -> warm restart -> half-open probe
//      -> closed, without operator intervention: the final sweep requires
//      every breaker back in kClosed.
//
// With --storm-mutations the harness instead gates the live-mutation
// pipeline (DESIGN.md §15): a mutator thread races randomized UpdateBatches
// through a live fleet while the Zipf storm queries it and the injector
// stalls and crashes cone repairs (dyn.repair.{stall,crash}) and stalls
// queries right after their read (serve.query.stall). Every answer
// must be kOk; every non-stale answer must be bit-identical to
// core::peek_ksp on the graph of its stamped effective epoch; every stale
// answer must be bit-identical to the truth of its base epoch AND keep each
// rank within its weight_bound of the serve-time-epoch truth; a crash must
// fire and fall back to full recompute; and once chaos stops and repairs
// drain, every answer must be fresh at the fence epoch with empty stale
// side tables.
//
// Unlike bench_shard this is a gate, not a measurement: it prints a summary
// line and writes a JSON report (--out PATH) that CI uploads on failure.
// Flags: --seed N (injector seed, default 42), --seconds S (storm time box,
// default 20; the storm also runs to a minimum query count so fast machines
// still accumulate enough injector hits), --storm-mutations, --out PATH.
// Env knobs: PEEK_SOAK_THREADS (8), PEEK_SOAK_POOL (24),
// PEEK_SOAK_MIN_QUERIES (4000), PEEK_SOAK_RATE (permille, 20),
// PEEK_SOAK_MAX_FIRES (per site, 6), PEEK_SOAK_MIN_BATCHES (12, mutation
// storm only).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/peek.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/update_batch.hpp"
#include "obs/metrics.hpp"
#include "shard/fleet.hpp"

namespace {
using namespace peek;
using Clock = std::chrono::steady_clock;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

/// Zipfian CDF sampler over a fixed pool (same shape as bench_shard's storm).
std::vector<size_t> zipf_ranks(size_t pool, int n, double theta,
                               std::uint64_t seed) {
  std::vector<double> cdf(pool);
  double acc = 0;
  for (size_t i = 0; i < pool; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -theta);
    cdf[i] = acc;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, acc);
  std::vector<size_t> ranks;
  ranks.reserve(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
    ranks.push_back(std::min(r, pool - 1));
  }
  return ranks;
}

/// Tallies one storm thread accumulates locally and merges at join.
struct Tally {
  long total = 0;
  long ok = 0;        // kOk, non-degraded, bit-identical
  long degraded = 0;  // kOk degraded exact prefix
  long non_ok = 0;    // any typed failure (availability violation)
  long mismatch = 0;  // answer diverged from core::peek_ksp
  long hedged = 0;

  void merge(const Tally& o) {
    total += o.total;
    ok += o.ok;
    degraded += o.degraded;
    non_ok += o.non_ok;
    mismatch += o.mismatch;
    hedged += o.hedged;
  }
};

std::int64_t counter(const char* name) {
  if (!obs::kEnabled) return -1;  // metrics compiled out: cannot observe
  return obs::MetricsRegistry::global().counter(name).value();
}

/// True when `got` equals `want` (exact == full match required) or, in
/// degraded mode, is an exact nonempty prefix of it.
bool answer_matches(const std::vector<sssp::Path>& got,
                    const std::vector<sssp::Path>& want, bool degraded) {
  if (degraded ? got.size() > want.size() : got.size() != want.size())
    return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].verts != want[i].verts || got[i].dist != want[i].dist)
      return false;
  }
  return true;
}

// -- Mutation storm (DESIGN.md §15) ------------------------------------------

struct MutTally {
  long total = 0;
  long ok = 0;         // kOk, non-stale, bit-identical to its epoch truth
  long stale = 0;      // bounded-stale answer, base identity + bound held
  long non_ok = 0;     // any typed failure (availability violation)
  long mismatch = 0;   // non-stale answer diverged from its epoch truth
  long stale_bad = 0;  // stale answer broke base identity or its bound

  void merge(const MutTally& o) {
    total += o.total;
    ok += o.ok;
    stale += o.stale;
    non_ok += o.non_ok;
    mismatch += o.mismatch;
    stale_bad += o.stale_bad;
  }
};

int run_mutation_storm(std::uint64_t seed, int seconds,
                       const std::string& out_path) {
  const int threads = env_int("PEEK_SOAK_THREADS", 8);
  const int pool_size = env_int("PEEK_SOAK_POOL", 24);
  const int min_queries = env_int("PEEK_SOAK_MIN_QUERIES", 4000);
  const int rate = env_int("PEEK_SOAK_RATE", 20);
  const int max_fires = env_int("PEEK_SOAK_MAX_FIRES", 6);
  const int min_batches = env_int("PEEK_SOAK_MIN_BATCHES", 12);
  const int k = 8;

  const auto g0 = bench::twitter_like(11);
  const auto pool = bench::sample_pairs(g0, pool_size, /*seed=*/7);

  // truths[e] = core::peek_ksp per pool pair on the epoch-e graph. A deque:
  // push_back never moves existing elements, so storm threads can hold
  // references across the lock. The mutator publishes truths[e] BEFORE the
  // fence advances to e, so any answer stamped epoch e is always checkable.
  std::deque<std::vector<std::vector<sssp::Path>>> truths;
  std::mutex truth_mu;
  auto truth_for = [&](const graph::CsrGraph& g) {
    std::vector<std::vector<sssp::Path>> tr;
    tr.reserve(pool.size());
    for (const auto& [s, t] : pool) {
      core::PeekOptions po;
      po.k = k;
      tr.push_back(core::peek_ksp(g, s, t, po).ksp.paths);
    }
    return tr;
  };
  truths.push_back(truth_for(g0));

  dyn::DynamicGraph dg(g0);      // the fleet's graph: apply_batch only
  dyn::DynamicGraph shadow(g0);  // the mutator's lockstep copy for truth

  shard::FleetOptions fo;
  fo.router.shards = 2;
  fo.replicas = 2;
  fo.workers_per_replica = 2;
  fo.hedge = std::chrono::milliseconds(3);
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = seed;
  inj.rate_permille = rate;
  // Long enough that a stalled repair keeps the bounded-staleness window
  // open across many storm queries — the stale-soundness gate needs hits.
  // The same stall parks a few queries right after their read, so batches
  // land between a query's read and its answer.
  inj.stall = std::chrono::milliseconds(8);
  inj.site_filter = "dyn.repair.stall,dyn.repair.crash,serve.query.stall";
  inj.max_fires = max_fires;
  fo.injector = inj;
  shard::ShardFleet fleet(dg, fo);

  // Warm both home-shard replicas so batches land on populated caches —
  // repairs and stale side tables need cached trees to operate on.
  for (const auto& [s, t] : pool) {
    const int home = fleet.router().route(s, t);
    for (int r = 0; r < fleet.replicas(); ++r) fleet.engine(home, r).query(s, t, k);
  }

  std::printf("# mutation storm: seed %llu, %ds box (>= %d queries, >= %d "
              "batches), %d threads, pool %d, k %d, 2 shards x 2 replicas, "
              "repair chaos %d permille (cap %d/site)\n",
              static_cast<unsigned long long>(seed), seconds, min_queries,
              min_batches, threads, pool_size, k, rate, max_fires);

  const auto t0 = Clock::now();
  const auto box = std::chrono::seconds(seconds);
  std::atomic<long> issued{0};
  std::atomic<long> batches{0};
  std::atomic<long> structural_batches{0};
  std::atomic<bool> stop_mutator{false};

  // Mutator: randomized batches — three reweights of live edges, every
  // fourth batch a structural insert or delete. Each batch is applied to
  // the shadow first, its truth published, THEN pushed through the fleet
  // fence; only this thread mutates, so fence epoch == truths index.
  std::thread mutator([&] {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    graph::CsrGraph cur = shadow.to_csr();
    while (!stop_mutator.load(std::memory_order_acquire)) {
      std::uniform_int_distribution<vid_t> vd(0, cur.num_vertices() - 1);
      std::uniform_real_distribution<double> wd(0.05, 2.0);
      auto live_vertex = [&] {
        vid_t u = vd(rng);
        while (cur.degree(u) == 0) u = vd(rng);
        return u;
      };
      dyn::UpdateBatch b;
      for (int i = 0; i < 3; ++i) {
        const vid_t u = live_vertex();
        const eid_t e =
            cur.edge_begin(u) +
            static_cast<eid_t>(rng() % static_cast<std::uint64_t>(cur.degree(u)));
        b.reweight(u, cur.edge_target(e), wd(rng));
      }
      const long bn = batches.load(std::memory_order_relaxed);
      if (bn % 4 == 3) {
        if (bn % 8 == 3) {
          const vid_t u = vd(rng);
          vid_t v = vd(rng);
          while (v == u) v = vd(rng);
          b.insert(u, v, wd(rng));
        } else {
          const vid_t u = live_vertex();
          b.erase(u, cur.edge_target(cur.edge_begin(u)));
        }
        structural_batches.fetch_add(1, std::memory_order_relaxed);
      }
      dyn::apply(shadow, b);
      cur = shadow.to_csr();
      auto tr = truth_for(cur);
      {
        std::lock_guard<std::mutex> lk(truth_mu);
        truths.push_back(std::move(tr));
      }
      fleet.apply_batch(b);
      batches.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });

  std::vector<MutTally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> storm;
  storm.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    storm.emplace_back([&, w] {
      MutTally& tl = tallies[static_cast<size_t>(w)];
      const auto ranks = zipf_ranks(
          pool.size(), 1 << 20, /*theta=*/0.99,
          seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1)));
      for (size_t q = 0; q < ranks.size(); ++q) {
        if (Clock::now() - t0 >= box && issued.load() >= min_queries &&
            batches.load() >= min_batches)
          break;
        const auto [s, t] = pool[ranks[q]];
        auto res = fleet.query(s, t, k);
        issued.fetch_add(1, std::memory_order_relaxed);
        ++tl.total;
        if (res.result.status.code != fault::Status::kOk) {
          ++tl.non_ok;
          std::fprintf(stderr, "storm: (%d,%d) -> %s: %s\n",
                       static_cast<int>(s), static_cast<int>(t),
                       fault::to_string(res.result.status.code),
                       res.result.status.message.c_str());
          continue;
        }
        const auto& st = res.result.staleness;
        const std::uint64_t eff = st.epoch + st.epochs_behind;
        const std::vector<sssp::Path>* base_truth = nullptr;
        const std::vector<sssp::Path>* eff_truth = nullptr;
        {
          std::lock_guard<std::mutex> lk(truth_mu);
          if (eff < truths.size()) {
            base_truth = &truths[st.epoch][ranks[q]];
            eff_truth = &truths[eff][ranks[q]];
          }
        }
        if (eff_truth == nullptr) {
          // Cannot happen: truths[e] is published before the fence reaches
          // e. Seeing it means an engine invented an epoch.
          ++tl.mismatch;
          std::fprintf(stderr, "storm: (%d,%d) stamped unpublished epoch "
                       "%llu\n", static_cast<int>(s), static_cast<int>(t),
                       static_cast<unsigned long long>(eff));
          continue;
        }
        if (!st.stale) {
          if (!answer_matches(res.result.paths, *eff_truth,
                              res.result.degraded)) {
            ++tl.mismatch;
            std::fprintf(stderr, "storm: (%d,%d) non-stale answer diverged "
                         "from epoch-%llu truth\n", static_cast<int>(s),
                         static_cast<int>(t),
                         static_cast<unsigned long long>(eff));
            continue;
          }
          ++tl.ok;
          continue;
        }
        // Stale: exact for its base epoch, each rank within weight_bound of
        // the serve-time-epoch truth.
        ++tl.stale;
        bool good = answer_matches(res.result.paths, *base_truth,
                                   res.result.degraded);
        const size_t ranks_held =
            std::min(res.result.paths.size(), eff_truth->size());
        for (size_t i = 0; good && i < ranks_held; ++i) {
          good = std::abs(res.result.paths[i].dist - (*eff_truth)[i].dist) <=
                 st.weight_bound + 1e-9;
        }
        if (!good) {
          ++tl.stale_bad;
          std::fprintf(stderr, "storm: (%d,%d) stale answer (epoch %llu + "
                       "%llu behind, bound %.6f) broke its contract\n",
                       static_cast<int>(s), static_cast<int>(t),
                       static_cast<unsigned long long>(st.epoch),
                       static_cast<unsigned long long>(st.epochs_behind),
                       st.weight_bound);
        }
      }
    });
  }
  for (auto& th : storm) th.join();
  stop_mutator.store(true, std::memory_order_release);
  mutator.join();
  const double storm_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  MutTally sum;
  for (const auto& tl : tallies) sum.merge(tl);

  auto& injector = fault::Injector::global();
  const std::int64_t crash_fired = injector.fired("dyn.repair.crash");
  const std::int64_t stall_fired = injector.fired("dyn.repair.stall");
  const std::int64_t query_stall_fired = injector.fired("serve.query.stall");
  injector.disable();

  // Convergence: chaos off, everything delivered and repaired — every
  // answer must now be fresh at the fence epoch and the stale side tables
  // empty. No mutator is running, so truths needs no lock here.
  fleet.deliver_batches();
  for (int sh = 0; sh < fleet.shards(); ++sh)
    for (int r = 0; r < fleet.replicas(); ++r)
      fleet.engine(sh, r).drain_repairs();
  const std::uint64_t fence = fleet.fence_epoch();
  long converge_bad = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto res = fleet.query(pool[i].first, pool[i].second, k);
    const auto& st = res.result.staleness;
    const bool fine =
        res.result.status.code == fault::Status::kOk && !st.stale &&
        st.epoch + st.epochs_behind == fence &&
        answer_matches(res.result.paths, truths[fence][i],
                       res.result.degraded);
    if (!fine) {
      ++converge_bad;
      std::fprintf(stderr, "storm: (%d,%d) did not converge to fence epoch "
                   "%llu\n", static_cast<int>(pool[i].first),
                   static_cast<int>(pool[i].second),
                   static_cast<unsigned long long>(fence));
    }
  }
  std::size_t stale_left = 0;
  for (int sh = 0; sh < fleet.shards(); ++sh)
    for (int r = 0; r < fleet.replicas(); ++r)
      stale_left += fleet.engine(sh, r).stale_entries();

  const std::int64_t fallbacks = counter("dyn.repair.fallbacks");
  const std::int64_t repaired = counter("dyn.repair.trees");
  const std::int64_t stale_metric = counter("serve.stale_answers");
  const std::int64_t races = counter("serve.epoch_races");
  const std::int64_t bounces = counter("shard.epoch_bounces");
  const std::int64_t upgrades = counter("shard.stale_upgrades");

  std::printf("storm: %.1fs, %ld queries (%ld fresh, %ld stale), %ld batches "
              "(%ld structural), fence %llu\n",
              storm_s, sum.total, sum.ok, sum.stale, batches.load(),
              structural_batches.load(),
              static_cast<unsigned long long>(fence));
  std::printf("chaos: %lld repair stalls, %lld repair crashes -> %lld "
              "fallbacks, %lld trees repaired, %lld query stalls, %lld stale "
              "answers, %lld epoch races, %lld epoch bounces, %lld stale "
              "upgrades\n",
              static_cast<long long>(stall_fired),
              static_cast<long long>(crash_fired),
              static_cast<long long>(fallbacks),
              static_cast<long long>(repaired),
              static_cast<long long>(query_stall_fired),
              static_cast<long long>(stale_metric),
              static_cast<long long>(races),
              static_cast<long long>(bounces),
              static_cast<long long>(upgrades));

  // The gate. Each clause is an acceptance criterion from DESIGN.md §15.
  std::vector<std::string> violations;
  if (sum.non_ok > 0)
    violations.push_back("availability: " + std::to_string(sum.non_ok) +
                         " queries returned a non-kOk status");
  if (sum.mismatch > 0)
    violations.push_back("bit-identity: " + std::to_string(sum.mismatch) +
                         " non-stale answers diverged from their epoch "
                         "truth");
  if (sum.stale_bad > 0)
    violations.push_back("staleness contract: " +
                         std::to_string(sum.stale_bad) +
                         " stale answers broke base identity or bound");
  if (batches.load() < min_batches)
    violations.push_back("mutation rate: only " +
                         std::to_string(batches.load()) + " batches landed");
  if (structural_batches.load() < 1)
    violations.push_back("no structural batch landed");
  if (crash_fired < 1)
    violations.push_back("chaos: dyn.repair.crash never fired — the storm "
                         "did not exercise the fallback path");
  if (sum.stale < 1)
    violations.push_back("no answer was stale-served — the storm never "
                         "caught a repair in flight");
  if (obs::kEnabled) {
    if (fallbacks < 1)
      violations.push_back("no crashed repair fell back to full recompute");
    if (repaired < 1) violations.push_back("no tree was cone-repaired");
  }
  if (converge_bad > 0)
    violations.push_back("convergence: " + std::to_string(converge_bad) +
                         " answers not fresh at the fence after drain");
  if (stale_left > 0)
    violations.push_back("convergence: " + std::to_string(stale_left) +
                         " stale side-table entries survived the drain");

  if (!out_path.empty()) {
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(
          f,
          "{\n  \"mode\": \"mutation-storm\",\n  \"seed\": %llu,\n"
          "  \"storm_seconds\": %.3f,\n  \"queries\": %ld,\n"
          "  \"fresh\": %ld,\n  \"stale\": %ld,\n  \"non_ok\": %ld,\n"
          "  \"mismatches\": %ld,\n  \"stale_bound_violations\": %ld,\n"
          "  \"batches\": %ld,\n  \"structural_batches\": %ld,\n"
          "  \"fence_epoch\": %llu,\n  \"repair_stalls\": %lld,\n"
          "  \"repair_crashes\": %lld,\n  \"fallbacks\": %lld,\n"
          "  \"trees_repaired\": %lld,\n  \"query_stalls\": %lld,\n"
          "  \"epoch_races\": %lld,\n  \"epoch_bounces\": %lld,\n"
          "  \"stale_upgrades\": %lld,\n  \"converge_bad\": %ld,\n"
          "  \"stale_left\": %zu,\n  \"violations\": %zu\n}\n",
          static_cast<unsigned long long>(seed), storm_s, sum.total, sum.ok,
          sum.stale, sum.non_ok, sum.mismatch, sum.stale_bad, batches.load(),
          structural_batches.load(), static_cast<unsigned long long>(fence),
          static_cast<long long>(stall_fired),
          static_cast<long long>(crash_fired),
          static_cast<long long>(fallbacks),
          static_cast<long long>(repaired),
          static_cast<long long>(query_stall_fired),
          static_cast<long long>(races), static_cast<long long>(bounces),
          static_cast<long long>(upgrades),
          converge_bad, stale_left, violations.size());
      std::fclose(f);
    }
  }

  if (!violations.empty()) {
    for (const auto& v : violations)
      std::fprintf(stderr, "storm FAIL: %s\n", v.c_str());
    return 1;
  }
  std::printf("storm PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::enable_metrics_dump(argc, argv);
  std::uint64_t seed = 42;
  int seconds = 20;
  bool storm_mutations = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--storm-mutations") == 0) {
      storm_mutations = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (storm_mutations) return run_mutation_storm(seed, seconds, out_path);
  const int threads = env_int("PEEK_SOAK_THREADS", 8);
  const int pool_size = env_int("PEEK_SOAK_POOL", 24);
  const int min_queries = env_int("PEEK_SOAK_MIN_QUERIES", 4000);
  const int rate = env_int("PEEK_SOAK_RATE", 20);
  const int max_fires = env_int("PEEK_SOAK_MAX_FIRES", 6);
  const int k = 8;

  const auto g = bench::twitter_like(13);
  const auto pool = bench::sample_pairs(g, pool_size, /*seed=*/7);

  // Ground truth per pool pair — the certificate catches corruption at
  // serve time; this catches anything the certificate might miss.
  std::vector<std::vector<sssp::Path>> want;
  want.reserve(pool.size());
  for (const auto& [s, t] : pool) {
    core::PeekOptions po;
    po.k = k;
    want.push_back(core::peek_ksp(g, s, t, po).ksp.paths);
  }

  const std::filesystem::path snap_root =
      std::filesystem::temp_directory_path() /
      ("peek_soak_" + std::to_string(seed));
  std::filesystem::remove_all(snap_root);

  shard::FleetOptions fo;
  fo.router.shards = 4;
  fo.replicas = 2;
  fo.workers_per_replica = 2;
  fo.hedge = std::chrono::milliseconds(3);
  fo.serve.snapshot_dir = snap_root.string();
  fault::InjectorConfig inj;
  inj.enabled = true;
  inj.seed = seed;
  inj.rate_permille = rate;
  inj.stall = std::chrono::milliseconds(2);
  inj.site_filter =
      "shard.replica.stall,shard.replica.down,shard.replica.corrupt";
  // Cap every chaos site so a long soak bounds its injected damage: at most
  // max_fires corruption events total means the cert-retry ladder can always
  // outrun the chaos (8 replicas > 6 simultaneous quarantines never holds —
  // heals drain continuously).
  inj.max_fires = max_fires;
  fo.injector = inj;
  shard::ShardFleet fleet(g, fo);

  // Pre-warm every home-shard replica and persist its artifacts so a healing
  // replica has real snapshots to warm-restart from (and degraded fallback
  // has warm caches to probe). Storm traffic then exercises the serving
  // tier, not cold PeeK compute.
  for (const auto& [s, t] : pool) {
    const int home = fleet.router().route(s, t);
    for (int r = 0; r < fleet.replicas(); ++r) {
      fleet.engine(home, r).query(s, t, k);
      fleet.engine(home, r).persist();
    }
  }

  std::printf("# chaos soak: seed %llu, %ds box (>= %d queries), %d threads, "
              "pool %d, k %d, 4 shards x 2 replicas, chaos %d permille "
              "(cap %d/site)\n",
              static_cast<unsigned long long>(seed), seconds, min_queries,
              threads, pool_size, k, rate, max_fires);

  const auto t0 = Clock::now();
  const auto box = std::chrono::seconds(seconds);
  std::atomic<long> issued{0};
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  std::vector<std::thread> storm;
  storm.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    storm.emplace_back([&, w] {
      Tally& tl = tallies[static_cast<size_t>(w)];
      const auto ranks = zipf_ranks(
          pool.size(), 1 << 20, /*theta=*/0.99,
          seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(w + 1)));
      for (size_t q = 0; q < ranks.size(); ++q) {
        // Run until the time box elapses AND the fleet has seen enough
        // queries for the injector's per-site hit counts to make every
        // chaos site statistically certain to have fired.
        if (Clock::now() - t0 >= box && issued.load() >= min_queries) break;
        const auto [s, t] = pool[ranks[q]];
        auto res = fleet.query(s, t, k);
        issued.fetch_add(1, std::memory_order_relaxed);
        ++tl.total;
        tl.hedged += res.hedged ? 1 : 0;
        if (res.result.status.code != fault::Status::kOk) {
          ++tl.non_ok;
          std::fprintf(stderr, "soak: (%d,%d) -> %s: %s\n",
                       static_cast<int>(s), static_cast<int>(t),
                       fault::to_string(res.result.status.code),
                       res.result.status.message.c_str());
          continue;
        }
        if (!answer_matches(res.result.paths, want[ranks[q]],
                            res.result.degraded)) {
          ++tl.mismatch;
          std::fprintf(stderr, "soak: (%d,%d) answer diverged from "
                               "core::peek_ksp (degraded=%d)\n",
                       static_cast<int>(s), static_cast<int>(t),
                       res.result.degraded ? 1 : 0);
          continue;
        }
        if (res.result.degraded) {
          ++tl.degraded;
        } else {
          ++tl.ok;
        }
      }
    });
  }
  for (auto& th : storm) th.join();
  const double storm_s = std::chrono::duration<double>(Clock::now() - t0)
                             .count();

  Tally sum;
  for (const auto& tl : tallies) sum.merge(tl);

  // Capture the injector's per-site counts before disable() resets them.
  auto& injector = fault::Injector::global();
  const std::int64_t corrupt_fired = injector.fired("shard.replica.corrupt");
  const std::int64_t down_fired = injector.fired("shard.replica.down");
  const std::int64_t stall_fired = injector.fired("shard.replica.stall");

  // Chaos off; let every pending quarantine finish its cache drop + warm
  // restart, then sweep queries until each half-open breaker has probed its
  // way back to closed. This is the "without operator intervention" half of
  // the gate: nothing here touches set_replica_down or force-close.
  injector.disable();
  fleet.drain_heals();
  bool all_closed = false;
  const auto heal_deadline = Clock::now() + std::chrono::seconds(10);
  while (!all_closed && Clock::now() < heal_deadline) {
    for (const auto& [s, t] : pool) fleet.query(s, t, k);
    all_closed = true;
    for (int sh = 0; sh < fleet.shards(); ++sh) {
      for (int r = 0; r < fleet.replicas(); ++r) {
        all_closed = all_closed && fleet.breaker_state(sh, r) ==
                                       shard::BreakerState::kClosed;
      }
    }
  }
  fleet.publish_latency_metrics();

  const std::int64_t quarantines = counter("shard.replica.quarantines");
  const std::int64_t warm_restarts = counter("shard.replica.warm_restarts");
  const std::int64_t half_opens = counter("shard.breaker.half_open");
  const std::int64_t closes = counter("shard.breaker.close");
  const std::int64_t cert_failures = counter("serve.certify.failures");

  std::printf("storm: %.1fs, %ld queries (%ld ok, %ld degraded, %ld hedged)\n",
              storm_s, sum.total, sum.ok, sum.degraded, sum.hedged);
  std::printf("chaos: %lld stalls, %lld bounces, %lld corruptions -> "
              "%lld cert failures, %lld quarantines, %lld warm restarts, "
              "%lld half-opens, %lld closes, all_closed=%d\n",
              static_cast<long long>(stall_fired),
              static_cast<long long>(down_fired),
              static_cast<long long>(corrupt_fired),
              static_cast<long long>(cert_failures),
              static_cast<long long>(quarantines),
              static_cast<long long>(warm_restarts),
              static_cast<long long>(half_opens),
              static_cast<long long>(closes), all_closed ? 1 : 0);

  // The gate. Each clause is an acceptance criterion from DESIGN.md §14.
  std::vector<std::string> violations;
  if (sum.non_ok > 0)
    violations.push_back("availability: " + std::to_string(sum.non_ok) +
                         " queries returned a non-kOk status");
  if (sum.mismatch > 0)
    violations.push_back("bit-identity: " + std::to_string(sum.mismatch) +
                         " answers diverged from core::peek_ksp");
  if (corrupt_fired < 1)
    violations.push_back("chaos: shard.replica.corrupt never fired — the "
                         "soak did not exercise certification");
  if (obs::kEnabled) {
    if (cert_failures < 1)
      violations.push_back("certification never caught a corrupt answer");
    if (quarantines < 1) violations.push_back("no replica was quarantined");
    if (warm_restarts < 1)
      violations.push_back("no replica warm-restarted");
    if (half_opens < 1)
      violations.push_back("no breaker reached half-open");
    if (closes < 1) violations.push_back("no breaker closed via probe");
  }
  if (!all_closed)
    violations.push_back("a breaker failed to return to closed after the "
                         "storm (self-healing did not converge)");

  if (!out_path.empty()) {
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(
          f,
          "{\n  \"seed\": %llu,\n  \"storm_seconds\": %.3f,\n"
          "  \"queries\": %ld,\n  \"ok\": %ld,\n  \"degraded\": %ld,\n"
          "  \"non_ok\": %ld,\n  \"mismatches\": %ld,\n  \"hedged\": %ld,\n"
          "  \"stalls\": %lld,\n  \"bounces\": %lld,\n"
          "  \"corruptions\": %lld,\n  \"cert_failures\": %lld,\n"
          "  \"quarantines\": %lld,\n  \"warm_restarts\": %lld,\n"
          "  \"half_opens\": %lld,\n  \"closes\": %lld,\n"
          "  \"all_closed\": %s,\n  \"violations\": %zu\n}\n",
          static_cast<unsigned long long>(seed), storm_s, sum.total, sum.ok,
          sum.degraded, sum.non_ok, sum.mismatch, sum.hedged,
          static_cast<long long>(stall_fired),
          static_cast<long long>(down_fired),
          static_cast<long long>(corrupt_fired),
          static_cast<long long>(cert_failures),
          static_cast<long long>(quarantines),
          static_cast<long long>(warm_restarts),
          static_cast<long long>(half_opens),
          static_cast<long long>(closes), all_closed ? "true" : "false",
          violations.size());
      std::fclose(f);
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(snap_root, ec);

  if (!violations.empty()) {
    for (const auto& v : violations)
      std::fprintf(stderr, "soak FAIL: %s\n", v.c_str());
    return 1;
  }
  std::printf("soak PASS\n");
  return 0;
}
