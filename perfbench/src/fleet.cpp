// Fleet workload: a closed loop of kClients clients over a shard::ShardFleet
// on a live DynamicGraph, with ShardFleet::apply_batch slots between the
// queries (fleet-zipf-writes).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "dyn/dynamic_graph.hpp"
#include "dyn/update_batch.hpp"
#include "graph/io.hpp"
#include "shard/fleet.hpp"

namespace pbench {

namespace {

using peek::graph::CsrGraph;

/// Slots run before the measured phase of every set-up: 20 queries and
/// 1 batch.
constexpr std::int64_t kWarmSlots = kWriteEvery;
/// Traced runs alternate traced and untraced windows of this length, so
/// obs.trace_overhead compares throughput under the same cache state.
constexpr double kTraceWindow = 0.25;
/// Traced runs replay this many of the phase's misses layer by layer.
constexpr size_t kMissReplays = 4;
/// ... and replay this many write batches on a shadow DynamicGraph.
constexpr size_t kBatchReplays = 32;

struct Op {
  std::int64_t slot = 0;
  bool write = false;
  std::uint32_t pair = 0;
  int k = 0;
  std::int64_t seq = 0;      // writes: batch sequence number
  std::uint64_t epoch = 0;   // query: staleness.epoch; write: fence epoch
  std::uint64_t behind = 0;  // query: staleness.epochs_behind
  weight_t bound = 0;        // query: staleness.weight_bound
  int status = 0;
  bool degraded = false, stale = false, ok = true;
  bool hit = false, extended = false, coalesced = false;
  bool fwd_tree = false, rev_tree = false;
  std::uint64_t hash = 0;
  size_t paths = 0;
  double latency = 0;  // wall time of query() / apply_batch()
  double fleet_s = 0;  // FleetResult::seconds
  double engine_s = 0;  // ServeResult::seconds
  bool traced = false;
};

struct Fleet {
  std::unique_ptr<CsrGraph> graph;
  std::unique_ptr<peek::dyn::DynamicGraph> dyn;
  std::unique_ptr<peek::shard::ShardFleet> fleet;
};

peek::shard::FleetOptions fleet_options() {
  peek::shard::FleetOptions fo;
  fo.router.shards = kShards;
  fo.replicas = 1;
  fo.workers_per_replica = kWorkersPerReplica;
  return fo;
}

bool is_write_slot(std::int64_t slot) {
  return slot % kWriteEvery == kWriteEvery - 1;
}

/// One closed-loop phase: every operation, ordered by slot.
struct Phase {
  std::vector<Op> ops;
  double wall = 0;
  double traced_time = 0, untraced_time = 0;
  std::int64_t traced_ops = 0, untraced_ops = 0;
  SpanLog spans{Clock::now()};
  std::string error;
};

/// Runs slots [begin, end) on kClients threads, or until `seconds` have
/// passed when seconds > 0.
Phase run_phase(const Inputs& in, peek::shard::ShardFleet& fleet,
                std::int64_t begin, std::int64_t end, double seconds,
                bool trace) {
  Phase ph;
  std::atomic<std::int64_t> next{begin};
  const auto start = Clock::now();
  ph.spans = SpanLog(start);
  const auto deadline = start + std::chrono::duration<double>(seconds);
  std::vector<std::vector<Op>> per(kClients);
  std::vector<SpanLog> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.emplace_back(start, c + 1, static_cast<std::int64_t>(c) << 40);
  }
  std::atomic<bool> exhausted{false};
  auto client = [&](int c) {
    per[static_cast<size_t>(c)].reserve(1 << 14);
    for (;;) {
      const auto t0 = Clock::now();
      if (seconds > 0 && t0 >= deadline) break;
      const std::int64_t slot = next.fetch_add(1);
      if (slot >= end) break;
      Op op;
      op.slot = slot;
      op.traced = trace && static_cast<std::int64_t>(
                               seconds_between(start, t0) / kTraceWindow) %
                                   2 == 0;
      if (is_write_slot(slot)) {
        op.write = true;
        op.seq = slot / kWriteEvery + 1;
        if (op.seq > static_cast<std::int64_t>(in.batches.size())) {
          exhausted = true;
          break;
        }
        const auto batch = to_update_batch(in.batches[static_cast<size_t>(op.seq - 1)]);
        const auto applied = fleet.apply_batch(batch);
        const auto t1 = Clock::now();
        op.latency = seconds_between(t0, t1);
        op.epoch = applied.epoch;
        op.ok = std::all_of(applied.ops.begin(), applied.ops.end(),
                            [](const auto& a) { return a.applied; });
        if (op.traced) {
          logs[static_cast<size_t>(c)].add("shard.apply_batch", t0, t1, -1,
                                           slot);
        }
      } else {
        const std::int64_t qi = slot - slot / kWriteEvery;
        const Query& q = in.stream[static_cast<size_t>(qi) % in.stream.size()];
        const auto [s, t] = in.pairs[q.pair];
        const auto fr = fleet.query(s, t, q.k);
        const auto t1 = Clock::now();
        const auto& r = fr.result;
        op.pair = q.pair;
        op.k = q.k;
        op.latency = seconds_between(t0, t1);
        op.fleet_s = fr.seconds;
        op.engine_s = r.seconds;
        op.status = static_cast<int>(r.status.code);
        op.degraded = r.degraded;
        op.stale = r.staleness.stale;
        op.epoch = r.staleness.epoch;
        op.behind = r.staleness.epochs_behind;
        op.bound = r.staleness.weight_bound;
        op.hit = r.snapshot_hit;
        op.extended = r.extended;
        op.coalesced = r.coalesced;
        op.fwd_tree = r.fwd_tree_hit;
        op.rev_tree = r.rev_tree_hit;
        op.ok = r.status.code == peek::fault::Status::kOk && !r.degraded;
        op.hash = answer_hash(r.paths);
        op.paths = r.paths.size();
        if (op.traced) {
          auto& log = logs[static_cast<size_t>(c)];
          const std::int64_t top = log.add("shard.ShardFleet::query", t0, t1,
                                           -1, slot);
          const std::string outcome = r.coalesced ? "coalesced"
                                      : r.extended ? "extend"
                                      : r.snapshot_hit ? "hit"
                                                       : "miss";
          log.add("serve.QueryEngine::query",
                  t1 - std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(r.seconds)),
                  t1, top, slot, outcome);
        }
      }
      per[static_cast<size_t>(c)].push_back(op);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (auto& th : threads) th.join();
  ph.wall = since(start);
  if (exhausted) ph.error = "write batch stream exhausted";
  for (int c = 0; c < kClients; ++c) {
    ph.ops.insert(ph.ops.end(), per[static_cast<size_t>(c)].begin(),
                  per[static_cast<size_t>(c)].end());
    ph.spans.merge(logs[static_cast<size_t>(c)]);
  }
  std::sort(ph.ops.begin(), ph.ops.end(),
            [](const Op& a, const Op& b) { return a.slot < b.slot; });
  if (trace) {
    // Time spent in traced (even) and untraced (odd) windows.
    const auto whole = static_cast<std::int64_t>(ph.wall / kTraceWindow);
    const double tail = ph.wall - static_cast<double>(whole) * kTraceWindow;
    ph.traced_time = static_cast<double>((whole + 1) / 2) * kTraceWindow +
                     (whole % 2 == 0 ? tail : 0);
    ph.untraced_time = ph.wall - ph.traced_time;
    for (const Op& op : ph.ops) (op.traced ? ph.traced_ops : ph.untraced_ops)++;
  }
  return ph;
}

/// One line per operation: "q ..." answers, "w ..." write batches, and
/// "W ..." the warm-up's batches (not measured; the checker needs their
/// epochs to rebuild later graphs).
void write_answers(std::FILE* f, const std::vector<Op>& ops, bool warm) {
  for (const Op& op : ops) {
    if (op.write) {
      std::fprintf(f, "%c %lld %lld %llu %d\n", warm ? 'W' : 'w',
                   static_cast<long long>(op.slot),
                   static_cast<long long>(op.seq),
                   static_cast<unsigned long long>(op.epoch), op.ok ? 1 : 0);
      continue;
    }
    std::fprintf(f, "q %lld %u %d %d %d %d %llu %llu %a %016llx %zu\n",
                 static_cast<long long>(op.slot), op.pair, op.k, op.status,
                 op.degraded ? 1 : 0, op.stale ? 1 : 0,
                 static_cast<unsigned long long>(op.epoch),
                 static_cast<unsigned long long>(op.behind), op.bound,
                 static_cast<unsigned long long>(op.hash), op.paths);
  }
}

}  // namespace

struct ServingStats {
  double snapshot_hit_ratio = 0, tree_hit_ratio = 0, coalesced_ratio = 0;
  double cache_mb = 0, evicted_mb = 0;
  double epoch_race_ratio = 0, epoch_bounces = 0, repaired_trees = 0;
  double stale_share = 0;
  std::string answers_base, miss_base, batch_base;
};

void add_serving_metrics(Report& report, const ServingStats* f) {
  const ServingStats none;
  const ServingStats& s = f ? *f : none;
  const std::string na = f ? "" : "no serving layer";
  auto note = [&](const std::string& base) { return f ? base : na; };
  report.add("serve.snapshot_hit_ratio", s.snapshot_hit_ratio, "ratio",
             note(s.answers_base));
  report.add("serve.tree_hit_ratio", s.tree_hit_ratio, "ratio",
             note(s.miss_base));
  report.add("serve.coalesced_ratio", s.coalesced_ratio, "ratio",
             note(s.answers_base));
  report.add("serve.cache_mb", s.cache_mb, "MiB", note("all replicas, at end"));
  report.add("serve.evicted_mb", s.evicted_mb, "MiB", note("during the phase"));
  report.add("serve.epoch_race_ratio", s.epoch_race_ratio, "ratio",
             note(s.answers_base));
  report.add("shard.epoch_bounces", s.epoch_bounces, "count",
             note("per batch, " + s.batch_base));
  report.add("dyn.repaired_trees", s.repaired_trees, "count",
             note("per batch, " + s.batch_base));
  report.add("stale_share", s.stale_share, "ratio", note(s.answers_base));
}

void run_fleet(const RunArgs& args, Report& report) {
  const Inputs in = read_inputs(args.in_dir + "/inputs.bin");
  const std::string graph_path = args.in_dir + "/graph.bin";
  add_run_metadata(report, kClients);

  Fleet f;
  std::vector<double> setup, load, reverse;
  std::vector<Op> warm_writes;  // the checker replays these epochs too
  const int setups = args.trace ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    f.fleet.reset();
    f.dyn.reset();
    f.graph.reset();
    const auto t0 = Clock::now();
    f.graph = std::make_unique<CsrGraph>(peek::graph::read_binary_file(graph_path));
    const auto t1 = Clock::now();
    f.graph->warm_reverse();
    const auto t2 = Clock::now();
    f.dyn = std::make_unique<peek::dyn::DynamicGraph>(*f.graph);
    f.fleet = std::make_unique<peek::shard::ShardFleet>(*f.dyn, fleet_options());
    const Phase warm = run_phase(in, *f.fleet, 0, kWarmSlots, 0, false);
    if (!warm.error.empty()) {
      report.error = warm.error;
      return;
    }
    setup.push_back(since(t0));
    load.push_back(seconds_between(t0, t1));
    reverse.push_back(seconds_between(t1, t2));
    warm_writes.clear();
    for (const Op& op : warm.ops) {
      if (op.write) warm_writes.push_back(op);
    }
  }

  const auto before = registry_now();
  Phase ph = run_phase(in, *f.fleet, kWarmSlots, INT64_MAX, args.seconds,
                       args.trace);
  const RegistryDelta work = registry_delta(before, registry_now());
  if (!ph.error.empty()) {
    report.error = ph.error;
    return;
  }

  std::vector<double> latency, write_latency, engine_hit, engine_extend,
      engine_miss, overhead;
  std::int64_t queries = 0, answered = 0, hits = 0, coalesced = 0, stale = 0,
               misses = 0, tree_hits = 0, writes = 0;
  for (const Op& op : ph.ops) {
    ++report.attempted;
    if (!op.ok) ++report.failed;
    if (op.write) {
      ++writes;
      write_latency.push_back(op.latency);
      continue;
    }
    ++queries;
    latency.push_back(op.latency);
    if (!op.ok) continue;
    ++answered;
    overhead.push_back(op.fleet_s - op.engine_s);
    if (op.stale) ++stale;
    if (op.coalesced) {
      ++coalesced;
    } else if (op.hit) {
      ++hits;
      (op.extended ? engine_extend : engine_hit).push_back(op.engine_s);
    } else {
      ++misses;
      tree_hits += (op.fwd_tree ? 1 : 0) + (op.rev_tree ? 1 : 0);
      engine_miss.push_back(op.engine_s);
    }
  }

  std::FILE* answers = std::fopen(args.answers.c_str(), "w");
  if (!answers) {
    report.error = "cannot write " + args.answers;
    return;
  }
  write_answers(answers, warm_writes, /*warm=*/true);
  write_answers(answers, ph.ops, /*warm=*/false);
  std::fclose(answers);

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::string qnote = std::to_string(queries) + " queries";
  if (!args.trace) {
    const double p = kTailPercentile;
    report.add("setup_s", median(setup), "s",
               "median of " + std::to_string(setup.size()) + " set-ups");
    report.add("qps", static_cast<double>(answered) / ph.wall, "1/s", qnote);
    report.add("latency_p50_s", median(latency), "s");
    report.add("latency_tail_s", percentile(latency, p), "s",
               "p" + std::to_string(static_cast<int>(p)) + " of " +
                   std::to_string(latency.size()));
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    report.add_extra("fail_ratio", ratio(report.failed, report.attempted),
                     "ratio",
                     std::to_string(report.failed) + " of " +
                         std::to_string(report.attempted) + " operations");
    report.add_extra("stale_share", ratio(stale, answered), "ratio",
                     std::to_string(stale) + " of " + std::to_string(answered) +
                         " answers");
    report.add_extra("write_p50_s", median(write_latency), "s",
                     std::to_string(writes) + " apply_batch calls");
    add_work_counters(report, work, static_cast<double>(queries));
    return;
  }

  // Traced run: per-layer metrics.
  report.add("graph.load_s", load[0], "s");
  report.add("graph.reverse_s", reverse[0], "s");

  // Stage times and parallel ratios from replaying a spread of the phase's
  // misses through the serial pipeline the engines run.
  std::vector<const Op*> missed;
  for (const Op& op : ph.ops) {
    if (!op.write && op.ok && !op.hit && !op.coalesced) missed.push_back(&op);
  }
  std::vector<StageTimes> stages;
  std::vector<ParallelRatios> ratios;
  SpanLog replay_log(Clock::now(), kClients + 1, std::int64_t{1} << 50);
  for (size_t i = 0; i < kMissReplays && !missed.empty(); ++i) {
    const Op& op = *missed[i * missed.size() / kMissReplays];
    const auto [s, t] = in.pairs[op.pair];
    RegistryDelta ignored;
    const Replay rp = replay_query(*f.graph, s, t, op.k, /*parallel=*/false,
                                   replay_log, op.slot, ignored);
    stages.push_back(rp.times);
    if (!rp.identical) {
      report.error = "staged pipeline differs from peek_ksp";
      return;
    }
    if (ratios.size() < 2) ratios.push_back(parallel_ratios(*f.graph, s, t, op.k));
  }
  if (stages.empty()) {
    report.error = "no misses in the traced phase to replay";
    return;
  }
  add_stage_metrics(report, stages, ratios);
  add_work_metrics(report, work, static_cast<double>(queries));

  ServingStats ss;
  ss.answers_base = std::to_string(answered) + " answers";
  ss.miss_base = std::to_string(2 * misses) + " tree lookups";
  ss.batch_base = std::to_string(writes) + " batches";
  ss.snapshot_hit_ratio = ratio(hits, answered);
  ss.tree_hit_ratio = ratio(tree_hits, 2.0 * misses);
  ss.coalesced_ratio = ratio(coalesced, answered);
  for (int s = 0; s < f.fleet->shards(); ++s) {
    ss.cache_mb += static_cast<double>(
                       f.fleet->engine(s, 0).cache().stats().bytes_used) /
                   (1 << 20);
  }
  ss.evicted_mb =
      static_cast<double>(work.count("serve.cache.evicted_bytes")) / (1 << 20);
  ss.epoch_race_ratio = ratio(work.count("serve.epoch_races"), answered);
  ss.epoch_bounces = ratio(work.count("shard.epoch_bounces"), writes);
  ss.repaired_trees = ratio(work.count("dyn.repair.trees"), writes);
  ss.stale_share = ratio(stale, answered);
  add_serving_metrics(report, &ss);
  const double traced_qps = ratio(ph.traced_ops, ph.traced_time);
  const double untraced_qps = ratio(ph.untraced_ops, ph.untraced_time);
  report.add("obs.trace_overhead", ratio(traced_qps, untraced_qps), "ratio",
             "traced / untraced windows of " +
                 std::to_string(static_cast<int>(kTraceWindow * 1000)) + " ms");
  add_work_counters(report, work, static_cast<double>(queries));

  // Fleet-only layer times, printed beside the per_layer set.
  report.add_extra("serve.hit_s", median(engine_hit), "s",
                   std::to_string(engine_hit.size()) + " snapshot hits");
  report.add_extra("serve.extend_s", median(engine_extend), "s",
                   std::to_string(engine_extend.size()) + " extensions");
  report.add_extra("serve.miss_p50_s", median(engine_miss), "s",
                   std::to_string(engine_miss.size()) + " misses");
  report.add_extra("serve.miss_p99_s", percentile(engine_miss, 99), "s",
                   std::to_string(engine_miss.size()) + " misses");
  report.add_extra("shard.overhead_p50_s", median(overhead), "s",
                   "FleetResult minus ServeResult seconds");
  report.add_extra("shard.overhead_p99_s", percentile(overhead, 99), "s",
                   std::to_string(overhead.size()) + " answers");
  report.add_extra("write_p50_s", median(write_latency), "s",
                   std::to_string(writes) + " apply_batch calls");
  // dyn::apply and dyn::patched_csr replayed on a shadow graph, in the
  // order the fleet applied the batches.
  auto by_epoch = [](const Op* a, const Op* b) { return a->epoch < b->epoch; };
  std::vector<const Op*> warmed, applied;
  for (const Op& op : warm_writes) warmed.push_back(&op);
  for (const Op& op : ph.ops) {
    if (op.write) applied.push_back(&op);
  }
  std::sort(warmed.begin(), warmed.end(), by_epoch);
  std::sort(applied.begin(), applied.end(), by_epoch);
  // The warm-up's batches bring the shadow to the phase's first epoch.
  peek::dyn::DynamicGraph shadow(*f.graph);
  for (const Op* op : warmed) {
    peek::dyn::apply(shadow,
                     to_update_batch(in.batches[static_cast<size_t>(op->seq - 1)]));
  }
  CsrGraph csr = shadow.to_csr();
  std::vector<double> apply_s, patch_s;
  for (size_t i = 0; i < applied.size() && i < kBatchReplays; ++i) {
    const auto batch = to_update_batch(
        in.batches[static_cast<size_t>(applied[i]->seq - 1)]);
    const auto t0 = Clock::now();
    const auto ab = peek::dyn::apply(shadow, batch);
    const auto t1 = Clock::now();
    csr = peek::dyn::patched_csr(shadow, csr, ab);
    apply_s.push_back(seconds_between(t0, t1));
    patch_s.push_back(since(t1));
  }
  report.add_extra("dyn.apply_s", median(apply_s), "s",
                   std::to_string(apply_s.size()) + " batches replayed");
  report.add_extra("dyn.patch_s", median(patch_s), "s",
                   std::to_string(patch_s.size()) + " batches replayed");
  ph.spans.merge(replay_log);
  if (!args.trace_out.empty()) ph.spans.write_chrome_json(args.trace_out);
}

}  // namespace pbench
