// One-shot workloads: core::peek_ksp on one graph, one query at a time.
#include <omp.h>
#include <unistd.h>

#include <cstdio>
#include <memory>

#include "compact/adaptive.hpp"
#include "compact/edge_swap.hpp"
#include "compact/mutable_csr.hpp"
#include "core/peek.hpp"
#include "core/upper_bound.hpp"
#include "bench.hpp"
#include "graph/io.hpp"
#include "ksp/optyen.hpp"
#include "parallel/parallel_for.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"

namespace pbench {

namespace {

using peek::graph::CsrGraph;

struct Compacted {
  peek::sssp::BiView view;
  vid_t s = peek::kNoVertex, t = peek::kNoVertex;
  std::unique_ptr<peek::compact::RegeneratedGraph> regen;
  std::unique_ptr<peek::compact::MutableCsr> swapped;
};

/// peek_ksp's adaptive compaction arm, called layer by layer.
Compacted compact_like_peek(const CsrGraph& g, vid_t s, vid_t t,
                            const peek::core::PruneResult& pruned, bool parallel,
                            SpanLog* log, std::int64_t parent,
                            std::int64_t query) {
  Compacted c;
  const std::uint8_t* keep = pruned.vertex_keep.data();
  auto t0 = Clock::now();
  const peek::eid_t m_r = peek::compact::count_remaining_edges(
      peek::sssp::GraphView(g), keep, pruned.edge_keep, parallel);
  auto t1 = Clock::now();
  if (log) log->add("compact.count_remaining_edges", t0, t1, parent, query);
  const auto strat =
      peek::compact::choose_strategy(m_r, g.num_edges(), /*alpha=*/0.5);
  if (strat == peek::compact::Strategy::kRegeneration) {
    c.regen = std::make_unique<peek::compact::RegeneratedGraph>(
        peek::compact::regenerate(peek::sssp::GraphView(g), keep, pruned.edge_keep,
                                  {.parallel = parallel}));
    if (log) log->add("compact.regenerate", t1, Clock::now(), parent, query);
    c.s = c.regen->map.to_new(s);
    c.t = c.regen->map.to_new(t);
    c.view = peek::sssp::BiView::of(c.regen->graph);
  } else {
    c.swapped = std::make_unique<peek::compact::MutableCsr>(g);
    peek::compact::edge_swap_compact(*c.swapped, keep, pruned.edge_keep,
                                     {.parallel = parallel});
    if (log) log->add("compact.edge_swap_compact", t1, Clock::now(), parent,
                      query);
    c.s = s;
    c.t = t;
    c.view = c.swapped->biview();
  }
  return c;
}

peek::sssp::SsspResult forward_sssp(const CsrGraph& g, vid_t s, bool parallel) {
  if (parallel) return peek::sssp::delta_stepping(peek::sssp::GraphView(g), s);
  return peek::sssp::dijkstra(peek::sssp::GraphView(g), s);
}

peek::sssp::SsspResult reverse_sssp(const CsrGraph& g, vid_t t, bool parallel) {
  if (parallel) return peek::sssp::reverse_delta_stepping(g, t);
  return peek::sssp::reverse_dijkstra(g, t);
}

peek::core::PruneOptions prune_options(int k, bool parallel,
                                       const peek::sssp::SsspResult& fwd,
                                       const peek::sssp::SsspResult& rev) {
  peek::core::PruneOptions po;
  po.k = k;
  po.parallel = parallel;
  po.reuse_from_source = &fwd;
  po.reuse_to_target = &rev;
  return po;
}

peek::ksp::KspOptions ksp_options(int k, bool parallel) {
  peek::ksp::KspOptions ko;
  ko.k = k;
  ko.parallel = parallel;
  return ko;
}

void write_answer(std::FILE* f, std::int64_t slot, size_t pair, int k,
                  peek::fault::Status::Code status,
                  const std::vector<peek::sssp::Path>& paths) {
  std::fprintf(f, "q %lld %zu %d %d 0 0 0 0 0x0p+0 %016llx %zu\n",
               static_cast<long long>(slot), pair, k, static_cast<int>(status),
               static_cast<unsigned long long>(answer_hash(paths)),
               paths.size());
}

/// What a staged query answered.
struct Staged {
  peek::fault::Status::Code status = peek::fault::Status::kOk;
  std::vector<peek::sssp::Path> paths;
};

/// peek_ksp's layers called one by one: forward and reverse SSSP,
/// k_upper_bound_prune on those trees, count_remaining_edges plus the
/// compaction choose_strategy picks, then optyen_ksp. With a `log`, each call
/// is a span under one top-level span.
Staged run_staged(const CsrGraph& g, vid_t s, vid_t t, int k, bool parallel,
                  SpanLog* log, std::int64_t query, StageTimes& st) {
  const auto top0 = Clock::now();
  const std::int64_t top =
      log ? log->add("staged_peek_ksp", top0, top0, -1, query) : -1;
  auto span = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    if (log) log->add(name, a, b, top, query);
  };
  auto t0 = Clock::now();
  const auto fwd = forward_sssp(g, s, parallel);
  auto t1 = Clock::now();
  span("sssp.forward", t0, t1);
  const auto rev = reverse_sssp(g, t, parallel);
  auto t2 = Clock::now();
  span("sssp.reverse", t1, t2);
  const auto pruned = peek::core::k_upper_bound_prune(
      g, s, t, prune_options(k, parallel, fwd, rev));
  auto t3 = Clock::now();
  span("core.k_upper_bound_prune", t2, t3);
  st.fwd = seconds_between(t0, t1);
  st.rev = seconds_between(t1, t2);
  st.prune = seconds_between(t2, t3);

  Staged out;
  out.status = pruned.status;
  if (pruned.status == peek::fault::Status::kOk && pruned.kept_vertices > 0) {
    Compacted c = compact_like_peek(g, s, t, pruned, parallel, log, top, query);
    auto t4 = Clock::now();
    st.compact = seconds_between(t3, t4);
    if (c.s != peek::kNoVertex && c.t != peek::kNoVertex) {
      auto r = peek::ksp::optyen_ksp(c.view, c.s, c.t, ksp_options(k, parallel));
      if (c.regen) {
        for (auto& p : r.paths) {
          for (auto& v : p.verts) v = c.regen->map.to_old(v);
        }
      }
      out.paths = std::move(r.paths);
    }
    auto t5 = Clock::now();
    span("ksp.optyen_ksp", t4, t5);
    st.ksp = seconds_between(t4, t5);
  }
  const auto end = Clock::now();
  if (log) log->close(top, end);
  st.staged = seconds_between(top0, end);
  return out;
}

}  // namespace

Replay replay_query(const CsrGraph& g, vid_t s, vid_t t, int k, bool parallel,
                    SpanLog& log, std::int64_t query, RegistryDelta& work) {
  Replay out;
  StageTimes& st = out.times;
  peek::core::PeekOptions opts;
  opts.k = k;
  opts.parallel = parallel;
  auto r0 = Clock::now();
  peek::core::PeekResult ref = peek::core::peek_ksp(g, s, t, opts);
  st.reference = since(r0);
  st.glue = st.reference - ref.total_seconds();

  // The staged query with spans and without, in an order that alternates
  // with the query id so neither always runs second on warm caches.
  Staged traced, plain;
  StageTimes plain_times;
  auto with_spans = [&] {
    const auto before = registry_now();
    traced = run_staged(g, s, t, k, parallel, &log, query, st);
    work.add(registry_delta(before, registry_now()));
  };
  auto without_spans = [&] {
    plain = run_staged(g, s, t, k, parallel, nullptr, query, plain_times);
  };
  if (query % 2 == 0) {
    with_spans();
    without_spans();
  } else {
    without_spans();
    with_spans();
  }
  st.plain = plain_times.staged;
  const std::uint64_t want = answer_hash(ref.ksp.paths);
  out.identical = ref.status == traced.status && ref.status == plain.status &&
                  want == answer_hash(traced.paths) &&
                  want == answer_hash(plain.paths);
  out.status = ref.status;
  out.paths = std::move(ref.ksp.paths);
  return out;
}

ParallelRatios parallel_ratios(const CsrGraph& g, vid_t s, vid_t t, int k) {
  const int all = peek::par::max_threads();
  double sssp_time[2] = {0, 0}, ksp_time[2] = {0, 0};
  peek::sssp::SsspResult fwd, rev;
  for (int pass = 0; pass < 2; ++pass) {
    peek::par::ThreadScope scope(pass == 0 ? all : 1);
    const auto t0 = Clock::now();
    fwd = forward_sssp(g, s, /*parallel=*/true);
    rev = reverse_sssp(g, t, /*parallel=*/true);
    sssp_time[pass] = since(t0);
  }
  const auto pruned = peek::core::k_upper_bound_prune(
      g, s, t, prune_options(k, /*parallel=*/true, fwd, rev));
  if (pruned.status != peek::fault::Status::kOk || pruned.kept_vertices == 0) return {};
  Compacted c = compact_like_peek(g, s, t, pruned, /*parallel=*/true, nullptr, -1, -1);
  if (c.s == peek::kNoVertex || c.t == peek::kNoVertex) return {};
  for (int pass = 0; pass < 2; ++pass) {
    peek::par::ThreadScope scope(pass == 0 ? all : 1);
    const auto t0 = Clock::now();
    peek::ksp::optyen_ksp(c.view, c.s, c.t, ksp_options(k, /*parallel=*/true));
    ksp_time[pass] = since(t0);
  }
  return {sssp_time[1] / sssp_time[0], ksp_time[1] / ksp_time[0]};
}

void add_stage_metrics(Report& report, const std::vector<StageTimes>& stages,
                       const std::vector<ParallelRatios>& ratios) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const StageTimes& st : stages) v.push_back(field(st));
    return median(v);
  };
  const std::string base = std::to_string(stages.size()) + " replays";
  report.add("sssp.fwd_s", med([](const StageTimes& s) { return s.fwd; }), "s",
             "median of " + base);
  report.add("sssp.rev_s", med([](const StageTimes& s) { return s.rev; }), "s",
             "median of " + base);
  std::vector<double> ps, ks;
  for (const ParallelRatios& r : ratios) {
    ps.push_back(r.sssp);
    ks.push_back(r.ksp);
  }
  const std::string rbase =
      "1 vs " + std::to_string(peek::par::max_threads()) + " threads, " +
      std::to_string(ratios.size()) + " queries";
  report.add("parallel.sssp_speedup", median(ps), "x", rbase);
  report.add("parallel.ksp_speedup", median(ks), "x", rbase);
  report.add("prune.bound_s", med([](const StageTimes& s) { return s.prune; }),
             "s", "prune call on reused trees, median of " + base);
  report.add("compact.s", med([](const StageTimes& s) { return s.compact; }),
             "s", "median of " + base);
  report.add("ksp.s", med([](const StageTimes& s) { return s.ksp; }), "s",
             "median of " + base);
  report.add("core.other_s", med([](const StageTimes& s) { return s.glue; }),
             "s",
             "peek_ksp wall minus its stage times, median of " + base);
}

void add_work_metrics(Report& report, const RegistryDelta& work,
                      double queries) {
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double prunes = static_cast<double>(work.count("prune.runs"));
  const double compactions =
      static_cast<double>(work.timer_calls("compact.regenerate") +
                          work.timer_calls("compact.edge_swap"));
  const std::string q = "per query, " + std::to_string(static_cast<long long>(queries)) + " queries";
  report.add("sssp.settled",
             per(static_cast<double>(work.count("sssp.dijkstra.settled") +
                                     work.count("sssp.delta.settled")),
                 queries),
             "count", q);
  report.add("sssp.relaxed",
             per(static_cast<double>(work.count("sssp.dijkstra.relaxed_edges") +
                                     work.count("sssp.delta.relaxed_edges")),
                 queries),
             "count", q);
  report.add("prune.inspected",
             per(static_cast<double>(work.count("prune.inspected_paths")), prunes),
             "count", "per prune call");
  report.add("prune.kept_v",
             per(static_cast<double>(work.count("prune.kept_vertices")), prunes),
             "count", "per prune call");
  report.add("compact.kept_e",
             per(static_cast<double>(work.count("compact.edge_swap.kept_edges") +
                                     work.count("compact.regenerate.kept_edges")),
                 compactions),
             "count", "per compaction");
  report.add("ksp.dev_sssps",
             per(static_cast<double>(work.count("ksp.deviation_sssp_calls")),
                 queries),
             "count", q);
  report.add("ksp.candidates",
             per(static_cast<double>(work.count("ksp.candidates_generated")),
                 queries),
             "count", q);
}

void add_work_counters(Report& report, const RegistryDelta& work,
                       double queries) {
  for (const std::string& name : work_counter_names()) {
    report.counters[name] =
        queries > 0 ? static_cast<double>(work.count(name)) / queries : 0;
  }
}

void add_run_metadata(Report& report, int load_threads) {
  report.meta.emplace_back("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.meta.emplace_back("omp_threads", std::to_string(omp_get_max_threads()));
  report.meta.emplace_back("load_threads", std::to_string(load_threads));
  report.meta.emplace_back("build_type", PBENCH_BUILD_TYPE);
  report.meta.emplace_back("compiler", PBENCH_COMPILER);
  report.meta.emplace_back("peek_obs", peek::obs::kEnabled ? "ON" : "OFF");
}

void run_oneshot(const Spec& spec, const RunArgs& args, Report& report) {
  const Inputs in = read_inputs(args.in_dir + "/inputs.bin");
  const std::string graph_path = args.in_dir + "/graph.bin";
  peek::core::PeekOptions opts;
  opts.k = spec.k;
  opts.parallel = spec.parallel;
  add_run_metadata(report, 1);
  report.meta.emplace_back("pipeline", spec.parallel ? "parallel" : "serial");

  // Set-up: load, reverse CSR, one discarded query (on pairs 0, 1, ... in
  // turn, so the median is not one pair's cost). The traced run sets up once
  // and reports the load and reverse times instead of setup_s.
  std::unique_ptr<CsrGraph> g;
  std::vector<double> setup, load, reverse;
  const int setups = args.trace ? 1 : kSetups;
  for (int rep = 0; rep < setups; ++rep) {
    g.reset();
    const auto t0 = Clock::now();
    g = std::make_unique<CsrGraph>(peek::graph::read_binary_file(graph_path));
    const auto t1 = Clock::now();
    g->warm_reverse();
    const auto t2 = Clock::now();
    const auto [ws, wt] = in.pairs[static_cast<size_t>(rep) % in.pairs.size()];
    const auto warm = peek::core::peek_ksp(*g, ws, wt, opts);
    if (warm.status != peek::fault::Status::kOk) {
      report.error = "warm-up query failed";
      return;
    }
    setup.push_back(since(t0));
    load.push_back(seconds_between(t0, t1));
    reverse.push_back(seconds_between(t1, t2));
  }

  std::FILE* answers = std::fopen(args.answers.c_str(), "w");
  if (!answers) {
    report.error = "cannot write " + args.answers;
    return;
  }
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  std::vector<double> latency;
  RegistryDelta work;
  SpanLog log(start);
  std::vector<StageTimes> stages;
  std::vector<ParallelRatios> ratios;
  double traced_total = 0, untraced_total = 0;
  // Whole passes over the pair list: the pass in progress at the deadline is
  // finished, so every pair weighs the same in qps and the percentiles, and
  // a faster build does not measure a different mix of pairs.
  const size_t pass_len = in.pairs.size();
  std::int64_t slot = 0;
  for (; Clock::now() < deadline || static_cast<size_t>(slot) % pass_len != 0;
       ++slot) {
    const size_t pi = static_cast<size_t>(slot) % pass_len;
    const auto [s, t] = in.pairs[pi];
    if (!args.trace) {
      const auto before = registry_now();
      const auto q0 = Clock::now();
      const auto r = peek::core::peek_ksp(*g, s, t, opts);
      latency.push_back(since(q0));
      // Work counters over the first pass: deterministic per seed.
      if (static_cast<size_t>(slot) < pass_len) {
        work.add(registry_delta(before, registry_now()));
      }
      if (r.status != peek::fault::Status::kOk) ++report.failed;
      write_answer(answers, slot, pi, spec.k, r.status, r.ksp.paths);
      continue;
    }
    // Traced: the same query through peek_ksp, then layer by layer.
    const Replay rp =
        replay_query(*g, s, t, spec.k, spec.parallel, log, slot, work);
    const StageTimes& st = rp.times;
    if (rp.status != peek::fault::Status::kOk) ++report.failed;
    write_answer(answers, slot, pi, spec.k, rp.status, rp.paths);
    if (!rp.identical) {
      std::fclose(answers);
      report.error = "staged pipeline differs from peek_ksp at slot " +
                     std::to_string(slot);
      return;
    }
    stages.push_back(st);
    traced_total += st.staged;
    untraced_total += st.plain;
    if (ratios.size() < 2) ratios.push_back(parallel_ratios(*g, s, t, spec.k));
  }
  const double wall = since(start);
  std::fclose(answers);
  report.attempted = slot;

  if (!args.trace) {
    const double p = kTailPercentile;
    report.add("setup_s", median(setup), "s",
               "median of " + std::to_string(setup.size()) + " set-ups");
    report.add("qps", static_cast<double>(slot - report.failed) / wall, "1/s",
               std::to_string(slot) + " queries, " +
                   std::to_string(static_cast<size_t>(slot) / pass_len) +
                   " passes");
    report.add("latency_p50_s", median(latency), "s");
    report.add("latency_tail_s", percentile(latency, p), "s",
               "p" + std::to_string(static_cast<int>(p)) + " of " +
                   std::to_string(latency.size()));
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    add_work_counters(report, work, static_cast<double>(pass_len));
    report.add_extra("fail_ratio",
                     slot ? static_cast<double>(report.failed) / slot : 0,
                     "ratio",
                     std::to_string(report.failed) + " of " +
                         std::to_string(slot) + " operations");
    return;
  }
  report.add("graph.load_s", load[0], "s");
  report.add("graph.reverse_s", reverse[0], "s");
  add_stage_metrics(report, stages, ratios);
  add_work_metrics(report, work, static_cast<double>(stages.size()));
  add_serving_metrics(report, nullptr);
  report.add("obs.trace_overhead",
             traced_total > 0 ? untraced_total / traced_total : 0, "ratio",
             "staged time without / with spans, " +
                 std::to_string(stages.size()) + " queries");
  add_work_counters(report, work, static_cast<double>(stages.size()));
  if (!args.trace_out.empty()) log.write_chrome_json(args.trace_out);
}

}  // namespace pbench
