#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <random>
#include <stdexcept>

#include "core/upper_bound.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"

namespace pbench {

namespace {

const Spec kSpecs[] = {
    {.name = "rmat20-k8", .scale = 20, .edge_factor = 8, .k = 8, .pairs = 8},
    // Targets 192-320 hops out: a query's KSP cost grows with the hop
    // distance, so a narrow band keeps the pairs' costs, and a seed's
    // average, close together.
    {.name = "grid18-k128", .grid_side = 512, .k = 128, .pairs = 32,
     .min_hops = 192, .max_hops = 320, .parallel = false},
    // R-MAT 2^16: a miss costs ~50 ms, so a 20 s run serves ~700 queries
    // and ~35 write batches. At 2^18 (and 4 clients) it served ~250 and ~12,
    // and over five seeds qps differed by up to 19%.
    {.name = "fleet-zipf-writes", .fleet = true, .scale = 16, .edge_factor = 8},
};

// Stream ids for mix(): one independent generator per input kind.
enum : std::uint64_t { kGraphStream = 1, kWeightStream, kPairStream,
                       kQueryStream, kBatchStream };

/// BFS hop counts from s (-1 = unreachable), reusing `hops`.
void bfs(const peek::graph::CsrGraph& g, vid_t s, std::vector<int>& hops) {
  hops.assign(static_cast<size_t>(g.num_vertices()), -1);
  std::deque<vid_t> queue{s};
  hops[static_cast<size_t>(s)] = 0;
  while (!queue.empty()) {
    const vid_t u = queue.front();
    queue.pop_front();
    for (vid_t v : g.neighbors(u)) {
      if (hops[static_cast<size_t>(v)] != -1) continue;
      hops[static_cast<size_t>(v)] = hops[static_cast<size_t>(u)] + 1;
      queue.push_back(v);
    }
  }
}

/// Does k_upper_bound_prune, at K = k, keep at most kMaxKeptShare of the
/// vertices? Almost every pair keeps well under 0.5%; the rare rest keep a
/// large part of the graph, or everything when the bound is infinite (fewer
/// than k distinct simple s-v-t combinations, e.g. when s cuts t off from
/// most of the graph). Their KSP search then runs on nearly the whole graph
/// and takes seconds per query, which would swamp a run, so they are not
/// drawn; `pbench gen` prints how many candidates were skipped.
bool prunes_well(const peek::graph::CsrGraph& g, vid_t s, vid_t t, int k,
                 const peek::sssp::SsspResult& fwd,
                 const peek::sssp::SsspResult& rev) {
  peek::core::PruneOptions po;
  po.k = k;
  po.reuse_from_source = &fwd;
  po.reuse_to_target = &rev;
  const auto r = peek::core::k_upper_bound_prune(g, s, t, po);
  return r.upper_bound != peek::kInfDist &&
         r.kept_vertices <= kMaxKeptShare * g.num_vertices();
}

/// A random vertex with at least one out-edge.
vid_t pick_source(const peek::graph::CsrGraph& g, std::mt19937_64& rng) {
  std::uniform_int_distribution<vid_t> pick(0, g.num_vertices() - 1);
  for (;;) {
    const vid_t s = pick(rng);
    if (g.degree(s) > 0) return s;
  }
}

/// One-shot pairs: random sources, each with a random target in the
/// spec's BFS hop band on which the K bound prunes well (prunes_well).
std::vector<std::pair<vid_t, vid_t>> oneshot_pairs(
    const peek::graph::CsrGraph& g, const Spec& spec, std::mt19937_64& rng,
    int& skipped) {
  const int count = spec.pairs;
  std::vector<std::pair<vid_t, vid_t>> pairs;
  std::vector<int> hops;
  std::vector<vid_t> far;
  while (static_cast<int>(pairs.size()) < count) {
    std::vector<std::pair<vid_t, vid_t>> batch;
    while (static_cast<int>(batch.size()) < count) {
      const vid_t s = pick_source(g, rng);
      bfs(g, s, hops);
      far.clear();
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        const int h = hops[static_cast<size_t>(v)];
        if (h >= spec.min_hops && (spec.max_hops == 0 || h <= spec.max_hops)) {
          far.push_back(v);
        }
      }
      if (far.size() < 16) continue;  // too few targets in the band
      std::uniform_int_distribution<size_t> pick(0, far.size() - 1);
      batch.emplace_back(s, far[pick(rng)]);
    }
    std::vector<char> ok(batch.size());
    parallel_jobs(batch.size(), [&](size_t i) {
      const auto [s, t] = batch[i];
      ok[i] = prunes_well(g, s, t, spec.k,
                           peek::sssp::dijkstra(peek::sssp::GraphView(g), s),
                           peek::sssp::reverse_dijkstra(g, t));
    });
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!ok[i]) {
        ++skipped;
      } else if (static_cast<int>(pairs.size()) < count) {
        pairs.push_back(batch[i]);
      }
    }
  }
  return pairs;
}

/// Fleet pairs: kFleetPairs reachable (s, t) combinations of kFleetSources
/// sources and kFleetTargets targets on which the K bound prunes well at the
/// stream's largest K, in seeded order (rank 0 is the stream's most popular
/// pair).
std::vector<std::pair<vid_t, vid_t>> fleet_pairs(const peek::graph::CsrGraph& g,
                                                 std::mt19937_64& rng,
                                                 int& skipped) {
  std::vector<int> hops;
  for (;;) {
    std::vector<vid_t> sources;
    std::vector<std::vector<int>> reach;
    while (static_cast<int>(sources.size()) < kFleetSources) {
      const vid_t s = pick_source(g, rng);
      if (std::find(sources.begin(), sources.end(), s) != sources.end()) {
        continue;
      }
      bfs(g, s, hops);
      sources.push_back(s);
      reach.push_back(hops);
    }
    // Targets: vertices at >= 3 hops from the first source.
    std::vector<vid_t> far;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      if (reach[0][static_cast<size_t>(v)] >= 3) far.push_back(v);
    }
    if (static_cast<int>(far.size()) < kFleetTargets) continue;
    std::shuffle(far.begin(), far.end(), rng);
    far.resize(kFleetTargets);
    std::vector<std::pair<size_t, size_t>> combos;
    for (size_t i = 0; i < sources.size(); ++i) {
      for (size_t j = 0; j < far.size(); ++j) {
        if (far[j] != sources[i] && reach[i][static_cast<size_t>(far[j])] > 0) {
          combos.emplace_back(i, j);
        }
      }
    }
    if (static_cast<int>(combos.size()) < kFleetPairs) continue;
    std::shuffle(combos.begin(), combos.end(), rng);
    std::vector<peek::sssp::SsspResult> fwd(sources.size()), rev(far.size());
    parallel_jobs(sources.size() + far.size(), [&](size_t i) {
      if (i < sources.size()) {
        fwd[i] = peek::sssp::dijkstra(peek::sssp::GraphView(g), sources[i]);
      } else {
        rev[i - sources.size()] =
            peek::sssp::reverse_dijkstra(g, far[i - sources.size()]);
      }
    });
    // Test combinations in seeded order, a chunk at a time, until enough
    // prune well.
    std::vector<std::pair<vid_t, vid_t>> pairs;
    constexpr size_t kChunk = 64;
    for (size_t at = 0; at < combos.size() && pairs.size() < kFleetPairs;
         at += kChunk) {
      const size_t n = std::min(kChunk, combos.size() - at);
      std::vector<char> ok(n);
      parallel_jobs(n, [&](size_t c) {
        const auto [i, j] = combos[at + c];
        ok[c] = prunes_well(g, sources[i], far[j], kMaxK, fwd[i], rev[j]);
      });
      for (size_t c = 0; c < n && pairs.size() < kFleetPairs; ++c) {
        const auto [i, j] = combos[at + c];
        if (ok[c]) {
          pairs.emplace_back(sources[i], far[j]);
        } else {
          ++skipped;
        }
      }
    }
    if (static_cast<int>(pairs.size()) == kFleetPairs) return pairs;
  }
}

std::vector<Query> zipf_stream(std::mt19937_64& rng) {
  std::vector<double> cdf(kFleetPairs);
  double total = 0;
  for (int r = 0; r < kFleetPairs; ++r) {
    total += 1.0 / std::pow(r + 1.0, kZipfTheta);
    cdf[static_cast<size_t>(r)] = total;
  }
  static constexpr int kChoices[] = {8, 8, 16, 32, kMaxK};
  std::uniform_real_distribution<double> u01(0.0, total);
  std::uniform_int_distribution<int> kpick(0, 4);
  std::vector<Query> stream(kStreamLength);
  for (auto& q : stream) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u01(rng));
    q.pair = static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(), kFleetPairs - 1));
    q.k = kChoices[kpick(rng)];
  }
  return stream;
}

/// Batch `seq` (1-based) of the fleet workload, a pure function of the
/// seed, the sequence number and the base graph: reweights take the base
/// weight times a factor in [0.5, 1.5), so every epoch's graph can be
/// rebuilt by replaying batches 1..e in the order they were applied.
std::vector<StoredOp> make_batch(const peek::graph::CsrGraph& base,
                                 std::uint64_t seed, std::uint64_t seq) {
  std::mt19937_64 rng(mix(mix(seed, kBatchStream), seq));
  std::uniform_int_distribution<peek::eid_t> edge(0, base.num_edges() - 1);
  std::uniform_real_distribution<double> factor(0.5, 1.5);
  const auto rows = base.row_offsets();
  std::vector<StoredOp> ops;
  for (int i = 0; i < kReweightsPerBatch; ++i) {
    const peek::eid_t e = edge(rng);
    const auto it = std::upper_bound(rows.begin(), rows.end(), e);
    const vid_t u = static_cast<vid_t>(it - rows.begin() - 1);
    ops.push_back({static_cast<std::uint8_t>(peek::dyn::OpKind::kReweight), u,
                   base.edge_target(e), base.edge_weight(e) * factor(rng)});
  }
  if (seq % kInsertEveryBatches == 0) {
    std::uniform_int_distribution<vid_t> vertex(0, base.num_vertices() - 1);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    vid_t u = vertex(rng), v = vertex(rng);
    while (v == u) v = vertex(rng);
    ops.push_back({static_cast<std::uint8_t>(peek::dyn::OpKind::kInsert), u, v,
                   1.0 - u01(rng)});
  }
  return ops;
}

template <typename T>
void put(std::FILE* f, const T& v) {
  if (std::fwrite(&v, sizeof v, 1, f) != 1) throw std::runtime_error("write");
}

template <typename T>
T get(std::FILE* f) {
  T v{};
  if (std::fread(&v, sizeof v, 1, f) != 1) {
    throw std::runtime_error("inputs.bin truncated");
  }
  return v;
}

constexpr char kMagic[8] = {'P', 'B', 'I', 'N', 'P', 'U', 'T', '1'};

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

peek::graph::CsrGraph generate_graph(const Spec& spec, std::uint64_t seed) {
  peek::graph::WeightOptions w;
  w.kind = peek::graph::WeightKind::kUniform01;
  w.seed = mix(seed, kWeightStream);
  if (spec.grid_side > 0) {
    return peek::graph::grid(spec.grid_side, spec.grid_side, w,
                             mix(seed, kGraphStream));
  }
  return peek::graph::rmat(spec.scale, spec.edge_factor, w,
                           mix(seed, kGraphStream));
}

Inputs generate_inputs(const Spec& spec, const peek::graph::CsrGraph& g,
                       std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  std::mt19937_64 rng(mix(seed, kPairStream));
  if (!spec.fleet) {
    in.pairs = oneshot_pairs(g, spec, rng, in.skipped_pairs);
    return in;
  }
  in.pairs = fleet_pairs(g, rng, in.skipped_pairs);
  std::mt19937_64 qrng(mix(seed, kQueryStream));
  in.stream = zipf_stream(qrng);
  in.batches.reserve(kBatches);
  for (int b = 1; b <= kBatches; ++b) {
    in.batches.push_back(make_batch(g, seed, static_cast<std::uint64_t>(b)));
  }
  return in;
}

peek::dyn::UpdateBatch to_update_batch(const std::vector<StoredOp>& ops) {
  peek::dyn::UpdateBatch b;
  for (const StoredOp& op : ops) {
    b.ops.push_back({static_cast<peek::dyn::OpKind>(op.kind), op.u, op.v, op.w});
  }
  return b;
}

void write_inputs(const std::string& path, const Inputs& in) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fwrite(kMagic, 1, sizeof kMagic, f);
  put(f, in.seed);
  put(f, static_cast<std::uint32_t>(in.pairs.size()));
  for (const auto& [s, t] : in.pairs) {
    put(f, s);
    put(f, t);
  }
  put(f, static_cast<std::uint32_t>(in.stream.size()));
  for (const Query& q : in.stream) put(f, q);
  put(f, static_cast<std::uint32_t>(in.batches.size()));
  for (const auto& b : in.batches) {
    put(f, static_cast<std::uint32_t>(b.size()));
    for (const StoredOp& op : b) {
      put(f, op.kind);
      put(f, op.u);
      put(f, op.v);
      put(f, op.w);
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Inputs read_inputs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot read " + path);
  char magic[sizeof kMagic];
  if (std::fread(magic, 1, sizeof magic, f) != sizeof magic ||
      std::memcmp(magic, kMagic, sizeof magic) != 0) {
    std::fclose(f);
    throw std::runtime_error(path + ": not a pbench inputs file");
  }
  Inputs in;
  try {
    in.seed = get<std::uint64_t>(f);
    in.pairs.resize(get<std::uint32_t>(f));
    for (auto& [s, t] : in.pairs) {
      s = get<vid_t>(f);
      t = get<vid_t>(f);
    }
    in.stream.resize(get<std::uint32_t>(f));
    for (Query& q : in.stream) q = get<Query>(f);
    in.batches.resize(get<std::uint32_t>(f));
    for (auto& b : in.batches) {
      b.resize(get<std::uint32_t>(f));
      for (StoredOp& op : b) {
        op.kind = get<std::uint8_t>(f);
        op.u = get<vid_t>(f);
        op.v = get<vid_t>(f);
        op.w = get<weight_t>(f);
      }
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  return in;
}

std::uint64_t answer_hash(const std::vector<peek::sssp::Path>& paths) {
  std::uint64_t h = mix(0, paths.size());
  for (const auto& p : paths) {
    std::uint64_t bits;
    std::memcpy(&bits, &p.dist, sizeof bits);
    h = mix(h, bits);
    h = mix(h, p.verts.size());
    for (vid_t v : p.verts) h = mix(h, static_cast<std::uint64_t>(v));
  }
  return h;
}

}  // namespace pbench
