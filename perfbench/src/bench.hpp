// The three subcommands' entry points and the staged pipeline the traced
// runs time layer by layer.
#pragma once

#include <string>
#include <vector>

#include "fault/status.hpp"
#include "graph/csr.hpp"
#include "inputs.hpp"
#include "report.hpp"

namespace pbench {

struct RunArgs {
  std::string in_dir;   // graph.bin + inputs.bin from `pbench gen`
  std::string answers;  // answer log for `pbench check`
  std::string trace_out;  // Chrome trace JSON (traced runs)
  double seconds = 10;
  bool trace = false;
};

/// setup_s is the median of this many set-ups (traced runs set up once).
inline constexpr int kSetups = 3;

/// Measured process of the one-shot workloads (core::peek_ksp) and of the
/// fleet workload (shard::ShardFleet). Fill `report`; on failure set
/// report.error.
void run_oneshot(const Spec& spec, const RunArgs& args, Report& report);
void run_fleet(const RunArgs& args, Report& report);

/// Checks the answers of an answer log (all of them, or a seeded sample on
/// the fleet workload; see check.cpp). Returns 0 when all are right;
/// prints the first wrong answer and returns nonzero otherwise.
int run_check(const Spec& spec, const std::string& in_dir,
              const std::string& answers);

/// Per-call wall times of one staged query, in peek_ksp's order.
struct StageTimes {
  double fwd = 0, rev = 0, prune = 0, compact = 0, ksp = 0;
  double staged = 0;     // the whole staged query (its top-level span)
  double plain = 0;      // the same staged query recording no spans
  double reference = 0;  // the same query through core::peek_ksp
  double glue = 0;       // reference minus peek_ksp's own stage timers
};

/// One query run through core::peek_ksp, then twice by calling its layers
/// directly: once recording spans, once not.
struct Replay {
  StageTimes times;
  bool identical = false;  // all three gave bit-identical paths
  peek::fault::Status::Code status = peek::fault::Status::kOk;
  std::vector<peek::sssp::Path> paths;  // peek_ksp's answer
};

/// Runs (s, t, K) through core::peek_ksp, then twice by calling its layers
/// directly — forward and reverse SSSP, k_upper_bound_prune on those trees,
/// count_remaining_edges plus the compaction choose_strategy picks, and
/// optyen_ksp: once recording one span per call under a top-level span in
/// `log`, once recording none (obs.trace_overhead compares the two; which
/// runs first alternates with `query`). `work` gets the registry deltas of
/// the run with spans.
Replay replay_query(const peek::graph::CsrGraph& g, vid_t s, vid_t t, int k,
                    bool parallel, SpanLog& log, std::int64_t query,
                    RegistryDelta& work);

/// 1-thread time / all-threads time of the parallel pipeline's SSSPs (the
/// two Δ-stepping runs) and of its KSP search, for one (s, t, K).
struct ParallelRatios {
  double sssp = 0, ksp = 0;
};
ParallelRatios parallel_ratios(const peek::graph::CsrGraph& g, vid_t s,
                               vid_t t, int k);

/// Adds the layer metrics derived from staged replays (the per_layer set's
/// sssp/prune/compact/ksp/core/parallel entries).
void add_stage_metrics(Report& report, const std::vector<StageTimes>& stages,
                       const std::vector<ParallelRatios>& ratios);

/// Adds the per-query work metrics from registry deltas over `queries`
/// top-level calls (sssp.settled/relaxed, prune.*, compact.kept_e, ksp.*).
void add_work_metrics(Report& report, const RegistryDelta& work,
                      double queries);

/// Adds the serving-layer ratios and counts of the per_layer set; null
/// `fleet` (one-shot workloads, which have no serving layer) reports 0.
struct ServingStats;
void add_serving_metrics(Report& report, const ServingStats* fleet);

/// Copies the work counters of `work` into report.counters (per query).
void add_work_counters(Report& report, const RegistryDelta& work,
                       double queries);

/// Metadata printed with every result (nproc, threads, build, compiler...).
void add_run_metadata(Report& report, int load_threads);

}  // namespace pbench
