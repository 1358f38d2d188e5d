// `pbench check`: verifies an answer log against independent oracles, in a
// process of its own so the oracles cost the measured process nothing.
//
//   one-shot  every answer is bit-identical to the serial pipeline
//             (core::peek_ksp, parallel off); each oracle answer passes
//             check::certify_paths and its rank-1 path's length equals
//             sssp::shortest_distance (see walk_length).
//   fleet     a seeded sample of answers is bit-identical to core::peek_ksp
//             on the graph of the answer's stamped epoch (rebuilt by
//             replaying the logged batches in epoch order); a stale answer
//             must also be within its weight_bound of the answer at the
//             epoch it was served in.
// Non-kOk and degraded answers are failures (fail_ratio), not wrong answers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "check/certify.hpp"
#include "core/peek.hpp"
#include "bench.hpp"
#include "dyn/dynamic_graph.hpp"
#include "graph/io.hpp"
#include "sssp/dijkstra.hpp"

namespace pbench {

namespace {

using peek::graph::CsrGraph;

/// Fleet answers checked per run.
constexpr size_t kFleetSamples = 12;

struct Answer {
  std::int64_t slot = 0;
  std::uint32_t pair = 0;
  int k = 0;
  int status = 0;
  bool degraded = false, stale = false;
  std::uint64_t epoch = 0, behind = 0;
  weight_t bound = 0;
  std::uint64_t hash = 0;
  size_t paths = 0;
  bool ok() const { return status == 0 && !degraded; }
};

struct Batch {
  std::int64_t seq = 0;
  std::uint64_t epoch = 0;
};

struct Log {
  std::vector<Answer> answers;
  std::vector<Batch> batches;  // warm-up and measured, any order
};

Log read_log(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  Log log;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'q') {
      Answer a;
      int degraded = 0, stale = 0;
      std::string bound, hash;
      ls >> a.slot >> a.pair >> a.k >> a.status >> degraded >> stale >>
          a.epoch >> a.behind >> bound >> hash >> a.paths;
      a.degraded = degraded != 0;
      a.stale = stale != 0;
      a.bound = std::strtod(bound.c_str(), nullptr);
      a.hash = std::stoull(hash, nullptr, 16);
      if (!ls) throw std::runtime_error("malformed answer line: " + line);
      log.answers.push_back(a);
    } else if (tag == 'w' || tag == 'W') {
      Batch b;
      std::int64_t slot = 0;
      int ok = 0;
      ls >> slot >> b.seq >> b.epoch >> ok;
      if (!ls) throw std::runtime_error("malformed batch line: " + line);
      log.batches.push_back(b);
    }
  }
  return log;
}

peek::core::PeekResult oracle(const CsrGraph& g, vid_t s, vid_t t, int k) {
  peek::core::PeekOptions opts;
  opts.k = k;
  opts.parallel = false;
  return peek::core::peek_ksp(g, s, t, opts);
}

/// Left-to-right weight sum of `p` over the CSR (the cheapest parallel
/// edge per hop) — the order Dijkstra accumulates distances in, so a true
/// shortest path reproduces sssp::shortest_distance bit for bit. The path's
/// own `dist` may differ from it in the last ulps: the KSP search adds
/// prefix and suffix sums in another order.
double walk_length(const CsrGraph& g, const peek::sssp::Path& p) {
  double sum = 0;
  for (size_t i = 0; i + 1 < p.verts.size(); ++i) {
    double best = peek::kInfDist;
    const auto nbrs = g.neighbors(p.verts[i]);
    const auto wts = g.neighbor_weights(p.verts[i]);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j] == p.verts[i + 1]) best = std::min(best, wts[j]);
    }
    sum += best;
  }
  return sum;
}

int wrong(const std::string& what) {
  std::fprintf(stderr, "pbench check: WRONG ANSWER: %s\n", what.c_str());
  return 1;
}

std::string describe(const Answer& a, const Inputs& in) {
  const auto [s, t] = in.pairs[a.pair];
  return "slot " + std::to_string(a.slot) + " (s=" + std::to_string(s) +
         ", t=" + std::to_string(t) + ", K=" + std::to_string(a.k) + ")";
}

/// One-shot: every ok answer against the serial pipeline's answer for its
/// pair; each oracle answer is certified and its rank-1 path checked
/// against sssp::shortest_distance.
int check_oneshot(const Spec& spec, const CsrGraph& g, const Inputs& in,
                  const Log& log) {
  std::vector<std::uint32_t> pairs;
  for (const Answer& a : log.answers) {
    if (a.ok()) pairs.push_back(a.pair);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::map<std::uint32_t, std::uint64_t> expect;
  std::vector<std::uint64_t> hashes(pairs.size());
  std::vector<std::string> problems(pairs.size());
  parallel_jobs(pairs.size(), [&](size_t i) {
    const auto [s, t] = in.pairs[pairs[i]];
    const auto r = oracle(g, s, t, spec.k);
    hashes[i] = answer_hash(r.ksp.paths);
    const auto cert = peek::check::certify_paths(g, s, t, r.ksp.paths);
    if (r.status != peek::fault::Status::kOk) {
      problems[i] = "oracle failed";
    } else if (cert.code != peek::fault::Status::kOk) {
      problems[i] = "certify_paths: " + cert.message;
    } else if (r.ksp.paths.empty() ||
               walk_length(g, r.ksp.paths[0]) !=
                   peek::sssp::shortest_distance(g, s, t) ||
               std::fabs(r.ksp.paths[0].dist - walk_length(g, r.ksp.paths[0])) >
                   1e-12 * r.ksp.paths[0].dist) {
      problems[i] = "rank-1 path is not as short as sssp::shortest_distance";
    }
  });
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (!problems[i].empty()) {
      return wrong("pair " + std::to_string(pairs[i]) + ": " + problems[i]);
    }
    expect[pairs[i]] = hashes[i];
  }
  size_t checked = 0;
  for (const Answer& a : log.answers) {
    if (!a.ok()) continue;
    if (expect[a.pair] != a.hash) {
      return wrong(describe(a, in) + " differs from the serial pipeline");
    }
    ++checked;
  }
  std::printf("check: %zu answers bit-identical to %zu serial answers\n",
              checked, pairs.size());
  return 0;
}

/// fleet-zipf-writes: a seeded sample of answers against the graph of
/// their epoch.
int check_fleet(const CsrGraph& g, const Inputs& in, const Log& log) {
  std::vector<const Answer*> pool;
  for (const Answer& a : log.answers) {
    if (a.ok()) pool.push_back(&a);
  }
  std::mt19937_64 rng(mix(in.seed, 0xc4ec));
  std::shuffle(pool.begin(), pool.end(), rng);
  // Prefer stale answers for up to half the sample: they carry the bound.
  std::stable_partition(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(
                                                         std::min(pool.size(), 4 * kFleetSamples)),
                        [](const Answer* a) { return a->stale; });
  std::vector<const Answer*> sample;
  size_t stale_taken = 0;
  for (const Answer* a : pool) {
    if (sample.size() == kFleetSamples) break;
    if (a->stale && stale_taken >= kFleetSamples / 2) continue;
    stale_taken += a->stale ? 1 : 0;
    sample.push_back(a);
  }
  // Epochs whose graphs the sample needs: the stamped epoch, and for stale
  // answers the epoch they were served at.
  std::set<std::uint64_t> needed;
  for (const Answer* a : sample) {
    needed.insert(a->epoch);
    if (a->stale) needed.insert(a->epoch + a->behind);
  }
  std::map<std::uint64_t, std::int64_t> seq_of;  // epoch -> batch seq
  for (const Batch& b : log.batches) seq_of[b.epoch] = b.seq;
  struct Job {
    std::uint64_t epoch;
    const Answer* answer;
    bool served_epoch;  // a stale answer's serving epoch, not its own
    peek::core::PeekResult result;
  };
  std::vector<Job> jobs;
  for (const Answer* a : sample) {
    jobs.push_back({a->epoch, a, false, {}});
    if (a->stale) jobs.push_back({a->epoch + a->behind, a, true, {}});
  }
  peek::dyn::DynamicGraph shadow(g);
  std::uint64_t at = 0;
  for (const std::uint64_t epoch : needed) {
    for (; at < epoch; ++at) {
      const auto it = seq_of.find(at + 1);
      if (it == seq_of.end()) {
        return wrong("no logged batch for epoch " + std::to_string(at + 1));
      }
      peek::dyn::apply(shadow, to_update_batch(in.batches[static_cast<size_t>(
                                   it->second - 1)]));
    }
    const CsrGraph csr = epoch == 0 ? g : shadow.to_csr();
    std::vector<Job*> here;
    for (Job& j : jobs) {
      if (j.epoch == epoch) here.push_back(&j);
    }
    parallel_jobs(here.size(), [&](size_t i) {
      const auto [s, t] = in.pairs[here[i]->answer->pair];
      here[i]->result = oracle(csr, s, t, here[i]->answer->k);
    });
  }
  size_t stale = 0;
  for (const Answer* a : sample) {
    const Job* base = nullptr;
    const Job* served = nullptr;
    for (const Job& j : jobs) {
      if (j.answer == a) (j.served_epoch ? served : base) = &j;
    }
    if (answer_hash(base->result.ksp.paths) != a->hash) {
      return wrong(describe(*a, in) + " differs from core::peek_ksp at epoch " +
                   std::to_string(a->epoch));
    }
    if (!a->stale) continue;
    ++stale;
    const auto& was = base->result.ksp.paths;
    const auto& now = served->result.ksp.paths;
    if (was.size() != now.size()) {
      return wrong(describe(*a, in) + " stale answer has a different path count");
    }
    for (size_t i = 0; i < was.size(); ++i) {
      const double slack = 1e-9 * std::max(1.0, std::fabs(now[i].dist));
      if (std::fabs(now[i].dist - was[i].dist) > a->bound + slack) {
        return wrong(describe(*a, in) + " rank " + std::to_string(i + 1) +
                     " is outside the stale weight_bound");
      }
    }
  }
  std::printf("check: %zu sampled answers (%zu stale) exact at their epochs\n",
              sample.size(), stale);
  return 0;
}

}  // namespace

int run_check(const Spec& spec, const std::string& in_dir,
              const std::string& answers) {
  const Inputs in = read_inputs(in_dir + "/inputs.bin");
  const CsrGraph g = peek::graph::read_binary_file(in_dir + "/graph.bin");
  const Log log = read_log(answers);
  if (log.answers.empty()) return wrong("no answers logged");
  for (const Answer& a : log.answers) {
    if (a.pair >= in.pairs.size()) return wrong("pair index out of range");
  }
  if (spec.fleet) return check_fleet(g, in, log);
  return check_oneshot(spec, g, in, log);
}

}  // namespace pbench
