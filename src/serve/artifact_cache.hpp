// Cross-query artifact cache — the memory of the serving layer (serve/).
//
// PeeK's per-query work decomposes into artifacts that outlive the query that
// produced them: the forward SSSP tree depends only on the source, the
// reverse SSSP tree only on the target (§4.1), and the pruned-and-compacted
// subgraph only on the (source, target) pair — for every K up to the budget
// it was pruned with (Theorem 4.3: pruning with bound b_K keeps every one of
// the top-K paths, and b_K grows with K). A serving workload with repeated
// sources, targets or pairs can therefore skip one SSSP, both SSSPs, or the
// whole pipeline.
//
// The cache is a sharded, byte-budgeted LRU over those three key spaces.
// Shards are independent mutex-guarded LRU lists selected by key hash, so
// concurrent queries for different keys rarely contend; each shard evicts
// from its own tail whenever its slice of the byte budget overflows. Entries
// carry the graph generation they were computed against; a lookup under a
// newer generation is a miss and erases the stale entry in place (lazy
// invalidation — a generation bump is O(1), not O(entries)).
//
// Hit/miss/eviction counters are reported into the global obs
// MetricsRegistry under `serve.cache.*`.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/thread_safety.hpp"
#include "compact/regeneration.hpp"
#include "graph/csr.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/path.hpp"

namespace peek::ksp {
class KspStream;  // ksp/stream.hpp
}

namespace peek::serve {

/// What kind of artifact a cache entry holds; part of the key, so the three
/// key spaces share one budget without colliding.
enum class ArtifactKind : std::uint8_t {
  kForwardTree,  // keyed on source
  kReverseTree,  // keyed on target
  kSnapshot,     // keyed on (source, target)
};

/// A pruned-and-compacted (s, t) pipeline state, reusable for any K up to
/// `k_budget`. Holds the regenerated subgraph (owned, so it survives
/// eviction of everything else), the id translation back to the original
/// graph, and the live KspStream that extends the answer incrementally —
/// asking for K paths when `paths` already holds K' >= K is a pure lookup;
/// K' < K <= k_budget pulls K - K' more paths from the stream.
struct PrunedSnapshot {
  /// Compacted subgraph in regenerated (dense) ids; null when the target was
  /// unreachable (a cached negative answer).
  std::shared_ptr<const graph::CsrGraph> graph;
  compact::VertexMap map;  // regenerated id <-> original id
  weight_t upper_bound = kInfDist;
  int k_budget = 0;  // pruning is sound up to this many paths
  vid_t s = kNoVertex, t = kNoVertex;  // original ids (for diagnostics)

  /// Serving state below is guarded by `mu` (the LRU shard lock is NOT held
  /// while a stream extension runs). Mutable so the const bytes() accounting
  /// can take it too.
  mutable check::Mutex mu;
  /// Null once exhausted/dropped.
  std::unique_ptr<ksp::KspStream> stream PEEK_GUARDED_BY(mu);
  /// Original ids, sorted, grows monotonically.
  std::vector<sssp::Path> paths PEEK_GUARDED_BY(mu);
  bool exhausted PEEK_GUARDED_BY(mu) = false;  // < k_budget paths exist

  /// Warm-restart provenance (recover/): this snapshot was decoded from disk
  /// rather than computed. Its stream is rebuilt lazily on the first
  /// extension past `paths` — from `restored_rtree` when the original stream
  /// had a reverse tree, so the rebuilt stream deviates with identical
  /// tie-breaks (see QueryEngine::ensure_stream). Both restored_* fields are
  /// consumed by that rebuild. `restored` itself is written once at decode
  /// time, before the snapshot is published to the cache.
  bool restored = false;
  bool restored_has_rtree PEEK_GUARDED_BY(mu) = false;
  sssp::SsspResult restored_rtree PEEK_GUARDED_BY(mu);

  ~PrunedSnapshot();  // out of line: KspStream is incomplete here

  /// Approximate resident size (graph arrays + map + paths).
  std::size_t bytes() const;
};

/// Point-in-time cache counters (process-lifetime, also mirrored into the
/// obs registry as `serve.cache.*`).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t stale_drops = 0;      // generation-mismatch lookups
  std::int64_t oversize_rejects = 0; // artifacts bigger than a whole shard
  std::size_t bytes_used = 0;
  std::size_t entries = 0;
};

class ArtifactCache {
 public:
  struct Options {
    /// Total byte budget across all shards. 0 disables the cache entirely
    /// (every lookup misses, every insert is rejected) — the serving layer's
    /// "no memory" degradation mode.
    std::size_t byte_budget = std::size_t{256} << 20;
    /// Number of independent LRU shards (rounded up to a power of two).
    int shards = 8;
  };

  explicit ArtifactCache(const Options& opts);
  ArtifactCache() : ArtifactCache(Options{}) {}

  /// Cached SSSP tree for `kind` in {kForwardTree, kReverseTree} keyed on
  /// the source/target vertex. Null on miss or generation mismatch.
  std::shared_ptr<const sssp::SsspResult> get_tree(ArtifactKind kind, vid_t v,
                                                   std::uint64_t generation);
  /// Returns false when the artifact was rejected (budget 0 or bigger than a
  /// whole shard) — the caller served it, but nobody else will reuse it.
  bool put_tree(ArtifactKind kind, vid_t v,
                std::shared_ptr<const sssp::SsspResult> tree,
                std::uint64_t generation, std::uint64_t epoch = 0);

  /// Cached pipeline snapshot for the (s, t) pair. The returned pointer
  /// stays valid (shared ownership) even if the entry is evicted while the
  /// caller extends its stream.
  std::shared_ptr<PrunedSnapshot> get_snapshot(vid_t s, vid_t t,
                                               std::uint64_t generation);
  bool put_snapshot(vid_t s, vid_t t, std::shared_ptr<PrunedSnapshot> snap,
                    std::uint64_t generation, std::uint64_t epoch = 0);
  /// get_snapshot without its side effects: touches neither LRU order nor
  /// the hit/miss counters, and leaves a stale-generation entry in place.
  std::shared_ptr<PrunedSnapshot> peek_snapshot(vid_t s, vid_t t,
                                                std::uint64_t generation) const;

  /// Drops every entry (eager invalidation; generation bumps make this
  /// optional).
  void clear();

  /// Surgical invalidation (dyn update pipeline, DESIGN.md §15): visits
  /// every resident entry and asks `keep(kind, a, b, epoch)` whether it
  /// survived the mutation. Keepers are restamped to `new_epoch` (their
  /// region stamp — the mutation epoch they are provably valid for); the
  /// rest are erased in place. After a sweep the cache holds only entries
  /// valid at `new_epoch`, so lookups need no epoch comparison — the
  /// generation tag stays reserved for wholesale invalidation. The shard
  /// lock is held across each callback — callbacks must not call back into
  /// the cache. Emits serve.cache.region_drops / serve.cache.restamps.
  struct SweepStats {
    std::size_t kept = 0;
    std::size_t erased = 0;
  };
  SweepStats sweep(std::uint64_t new_epoch,
                   const std::function<bool(ArtifactKind, vid_t, vid_t,
                                            std::uint64_t)>& keep);

  /// Region stamp of a resident entry (tests/diagnostics); empty key miss
  /// returns no value. Does not touch LRU order.
  std::optional<std::uint64_t> epoch_of(ArtifactKind kind, vid_t a,
                                        vid_t b) const;

  /// Snapshot-persistence iteration (recover/): visits every resident tree /
  /// snapshot entry with its key and generation, LRU order within a shard.
  /// The shard lock is held across each callback — callbacks must not call
  /// back into the cache.
  void for_each_tree(
      const std::function<void(ArtifactKind, vid_t,
                               const std::shared_ptr<const sssp::SsspResult>&,
                               std::uint64_t)>& fn) const;
  void for_each_snapshot(
      const std::function<void(vid_t, vid_t,
                               const std::shared_ptr<PrunedSnapshot>&,
                               std::uint64_t)>& fn) const;

  CacheStats stats() const;
  std::size_t byte_budget() const { return budget_; }

 private:
  struct Key {
    ArtifactKind kind;
    vid_t a;
    vid_t b;
    bool operator==(const Key& o) const {
      return kind == o.kind && a == o.a && b == o.b;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64 over the packed key — cheap and shard-friendly.
      std::uint64_t x = (static_cast<std::uint64_t>(k.a) << 34) ^
                        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                             k.b))
                         << 2) ^
                        static_cast<std::uint64_t>(k.kind);
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return static_cast<std::size_t>(x ^ (x >> 31));
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<void> value;
    std::size_t bytes = 0;
    std::uint64_t generation = 0;
    /// Region stamp: the mutation epoch this artifact is valid for
    /// (restamped by sweep(); 0 until the first batch lands).
    std::uint64_t epoch = 0;
  };
  struct Shard {
    mutable check::Mutex mu;
    /// Front = most recent.
    std::list<Entry> lru PEEK_GUARDED_BY(mu);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index
        PEEK_GUARDED_BY(mu);
    std::size_t bytes PEEK_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const Key& k) {
    return *shards_[KeyHash{}(k) & shard_mask_];
  }
  std::shared_ptr<void> get(const Key& k, std::uint64_t generation);
  bool put(const Key& k, std::shared_ptr<void> value, std::size_t bytes,
           std::uint64_t generation, std::uint64_t epoch);

  std::size_t budget_ = 0;
  std::size_t shard_budget_ = 0;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Approximate resident bytes of an SSSP tree (dist + parent arrays).
std::size_t tree_bytes(const sssp::SsspResult& t);

}  // namespace peek::serve
