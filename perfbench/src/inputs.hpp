// Workload definitions and their seeded inputs.
//
// `pbench gen` turns (workload, seed) into an input directory: the graph in
// the library's binary format (graph.bin, loaded by the measured process
// with graph::read_binary_file) and everything else in inputs.bin — the
// query pairs, the fleet query stream and the write batches. Generation runs
// in its own process so neither its time nor its memory lands in the
// measured process's setup_s / peak_rss_mb.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "dyn/update_batch.hpp"
#include "graph/csr.hpp"
#include "sssp/path.hpp"

namespace pbench {

using peek::vid_t;
using peek::weight_t;

struct Spec {
  std::string name;
  // Driven through a shard::ShardFleet over a live DynamicGraph, with
  // apply_batch slots between the queries; else through core::peek_ksp.
  bool fleet = false;
  // Graph: R-MAT(scale, edge_factor) when grid_side == 0, else a
  // grid_side x grid_side grid. Weights uniform in (0, 1].
  int scale = 0;
  int edge_factor = 8;
  vid_t grid_side = 0;
  // One-shot workloads: K, the number of distinct (s, t) pairs the
  // measured loop cycles through, and the BFS hop band targets are drawn
  // from (max_hops 0 = no upper limit).
  int k = 8;
  int pairs = 0;
  int min_hops = 3;
  int max_hops = 0;
  // One-shot workloads: core::peek_ksp with PeekOptions::parallel (the
  // Δ-stepping pipeline on OMP_NUM_THREADS threads), else the serial one.
  bool parallel = true;
};

/// The three workloads; nullptr for an unknown name.
const Spec* find_spec(const std::string& name);

/// Fleet workload: 2 closed-loop clients, a 2 x 1 x 1 fleet (shards x
/// replicas x workers). At most two queries compute at once, beside the
/// replicas' repair threads, so a busy neighbour on a shared host slows a
/// run less than with a query per core; over five seeds 4 clients on
/// 2 x 1 x 2 spread qps by 8% either side, 2 clients by 6%.
inline constexpr int kClients = 2;
inline constexpr int kShards = 2;
inline constexpr int kWorkersPerReplica = 1;
/// Fleet workload: pairs come from kFleetSources x kFleetTargets; the
/// stream draws them Zipf(kZipfTheta) with K from {8, 8, 16, 32, kMaxK}.
/// At 0.99 nearly half the answers were fast (snapshot hits and stale
/// answers), so the median latency flipped between the fast and the slow
/// mode from seed to seed; at 0.5 about a fifth are fast.
inline constexpr int kFleetSources = 32;
inline constexpr int kFleetTargets = 32;
inline constexpr int kFleetPairs = 256;
inline constexpr double kZipfTheta = 0.5;
inline constexpr int kMaxK = 64;
/// Pairs are drawn only where the K bound keeps at most this share of the
/// vertices (see prunes_well in inputs.cpp).
inline constexpr double kMaxKeptShare = 0.01;
inline constexpr int kStreamLength = 1 << 16;  // wraps around
/// Fleet workload: slot i is an apply_batch when i % kWriteEvery ==
/// kWriteEvery - 1 (one batch per 20 queries); batches carry 4 reweights
/// and every 10th also one insert.
inline constexpr int kWriteEvery = 21;
inline constexpr int kReweightsPerBatch = 4;
inline constexpr int kInsertEveryBatches = 10;
inline constexpr int kBatches = 8192;

struct Query {
  std::uint32_t pair = 0;  // index into Inputs::pairs
  std::int32_t k = 0;
};

struct StoredOp {
  std::uint8_t kind = 0;  // peek::dyn::OpKind
  vid_t u = 0;
  vid_t v = 0;
  weight_t w = 0;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::pair<vid_t, vid_t>> pairs;
  std::vector<Query> stream;                 // fleet workload only
  std::vector<std::vector<StoredOp>> batches;  // fleet workload only; [seq-1]
  int skipped_pairs = 0;  // candidates the K bound does not prune (not stored)
};

/// Seeded graph + inputs for `spec`. Deterministic in (spec, seed).
peek::graph::CsrGraph generate_graph(const Spec& spec, std::uint64_t seed);
Inputs generate_inputs(const Spec& spec, const peek::graph::CsrGraph& g,
                       std::uint64_t seed);

peek::dyn::UpdateBatch to_update_batch(const std::vector<StoredOp>& ops);

void write_inputs(const std::string& path, const Inputs& in);
Inputs read_inputs(const std::string& path);

/// 64-bit digest of an answer: path count, then per path its distance bits
/// and vertex sequence. Equal digests = bit-identical answers.
std::uint64_t answer_hash(const std::vector<peek::sssp::Path>& paths);

/// splitmix64 finaliser; seeds every derived generator.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Runs fn(i) for i in [0, n) on every hardware thread (input generation
/// and the answer checker; never inside a measured run).
template <typename Fn>
void parallel_jobs(size_t n, Fn&& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace pbench
