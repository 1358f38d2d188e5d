#include "serve/artifact_cache.hpp"

#include "ksp/stream.hpp"
#include "obs/metrics.hpp"

namespace peek::serve {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::size_t tree_bytes(const sssp::SsspResult& t) {
  return t.dist.capacity() * sizeof(weight_t) +
         t.parent.capacity() * sizeof(vid_t) + sizeof(sssp::SsspResult);
}

PrunedSnapshot::~PrunedSnapshot() = default;

std::size_t PrunedSnapshot::bytes() const {
  // `paths` grows under `mu` while other queries extend the stream; hold it
  // so concurrent re-accounting (a put racing an extension) reads a
  // consistent size.
  check::MutexLock lock(mu);
  std::size_t total = sizeof(PrunedSnapshot);
  if (graph) {
    // Forward CSR + the cached transpose the stream's reverse view uses.
    total += 2 * (graph->row_offsets().size() * sizeof(eid_t) +
                  graph->col().size() * sizeof(vid_t) +
                  graph->weights().size() * sizeof(weight_t));
  }
  total += map.old_to_new.capacity() * sizeof(vid_t) +
           map.new_to_old.capacity() * sizeof(vid_t);
  for (const auto& p : paths) total += p.verts.capacity() * sizeof(vid_t);
  return total;
}

ArtifactCache::ArtifactCache(const Options& opts) {
  const std::size_t n_shards =
      next_pow2(static_cast<std::size_t>(opts.shards < 1 ? 1 : opts.shards));
  shard_mask_ = n_shards - 1;
  budget_ = opts.byte_budget;
  shard_budget_ = budget_ / n_shards;
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<void> ArtifactCache::get(const Key& k,
                                         std::uint64_t generation) {
  Shard& sh = shard_for(k);
  check::MutexLock lock(sh.mu);
  auto it = sh.index.find(k);
  if (it == sh.index.end()) {
    PEEK_COUNT_INC("serve.cache.misses");
    return nullptr;
  }
  if (it->second->generation != generation) {
    // Stale (graph changed since this artifact was computed): drop in place.
    sh.bytes -= it->second->bytes;
    sh.lru.erase(it->second);
    sh.index.erase(it);
    PEEK_COUNT_INC("serve.cache.stale_drops");
    PEEK_COUNT_INC("serve.cache.misses");
    return nullptr;
  }
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // touch
  PEEK_COUNT_INC("serve.cache.hits");
  return it->second->value;
}

bool ArtifactCache::put(const Key& k, std::shared_ptr<void> value,
                        std::size_t bytes, std::uint64_t generation,
                        std::uint64_t epoch) {
  if (bytes > shard_budget_) {
    // Bigger than a whole shard: caching it would immediately evict
    // everything else — serve it uncached instead (memory-pressure
    // degradation).
    PEEK_COUNT_INC("serve.cache.oversize_rejects");
    return false;
  }
  Shard& sh = shard_for(k);
  check::MutexLock lock(sh.mu);
  auto it = sh.index.find(k);
  if (it != sh.index.end()) {  // replace (e.g. re-pruned with a larger K)
    sh.bytes -= it->second->bytes;
    sh.lru.erase(it->second);
    sh.index.erase(it);
  }
  sh.lru.push_front(Entry{k, std::move(value), bytes, generation, epoch});
  sh.index[k] = sh.lru.begin();
  sh.bytes += bytes;
  while (sh.bytes > shard_budget_ && sh.lru.size() > 1) {
    const Entry& victim = sh.lru.back();
    sh.bytes -= victim.bytes;
    PEEK_COUNT_INC("serve.cache.evictions");
    PEEK_COUNT_ADD("serve.cache.evicted_bytes", victim.bytes);
    sh.index.erase(victim.key);
    sh.lru.pop_back();
  }
  return true;
}

std::shared_ptr<const sssp::SsspResult> ArtifactCache::get_tree(
    ArtifactKind kind, vid_t v, std::uint64_t generation) {
  auto p = get(Key{kind, v, kNoVertex}, generation);
  return std::static_pointer_cast<const sssp::SsspResult>(p);
}

bool ArtifactCache::put_tree(ArtifactKind kind, vid_t v,
                             std::shared_ptr<const sssp::SsspResult> tree,
                             std::uint64_t generation, std::uint64_t epoch) {
  const std::size_t b = tree_bytes(*tree);
  return put(Key{kind, v, kNoVertex},
             std::const_pointer_cast<sssp::SsspResult>(std::move(tree)), b,
             generation, epoch);
}

std::shared_ptr<PrunedSnapshot> ArtifactCache::get_snapshot(
    vid_t s, vid_t t, std::uint64_t generation) {
  auto p = get(Key{ArtifactKind::kSnapshot, s, t}, generation);
  return std::static_pointer_cast<PrunedSnapshot>(p);
}

bool ArtifactCache::put_snapshot(vid_t s, vid_t t,
                                 std::shared_ptr<PrunedSnapshot> snap,
                                 std::uint64_t generation,
                                 std::uint64_t epoch) {
  const std::size_t b = snap->bytes();
  return put(Key{ArtifactKind::kSnapshot, s, t}, std::move(snap), b,
             generation, epoch);
}

ArtifactCache::SweepStats ArtifactCache::sweep(
    std::uint64_t new_epoch,
    const std::function<bool(ArtifactKind, vid_t, vid_t, std::uint64_t)>&
        keep) {
  SweepStats stats;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    check::MutexLock lock(sh.mu);
    for (auto it = sh.lru.begin(); it != sh.lru.end();) {
      if (keep(it->key.kind, it->key.a, it->key.b, it->epoch)) {
        it->epoch = new_epoch;
        ++stats.kept;
        ++it;
      } else {
        sh.bytes -= it->bytes;
        sh.index.erase(it->key);
        it = sh.lru.erase(it);
        ++stats.erased;
      }
    }
  }
  PEEK_COUNT_ADD("serve.cache.region_drops", stats.erased);
  PEEK_COUNT_ADD("serve.cache.restamps", stats.kept);
  return stats;
}

std::shared_ptr<PrunedSnapshot> ArtifactCache::peek_snapshot(
    vid_t s, vid_t t, std::uint64_t generation) const {
  const Key k{ArtifactKind::kSnapshot, s, t};
  const Shard& sh = *shards_[KeyHash{}(k) & shard_mask_];
  check::MutexLock lock(sh.mu);
  auto it = sh.index.find(k);
  if (it == sh.index.end() || it->second->generation != generation) {
    return nullptr;
  }
  return std::static_pointer_cast<PrunedSnapshot>(it->second->value);
}

std::optional<std::uint64_t> ArtifactCache::epoch_of(ArtifactKind kind,
                                                     vid_t a, vid_t b) const {
  const Key k{kind, a, b};
  const Shard& sh = *shards_[KeyHash{}(k) & shard_mask_];
  check::MutexLock lock(sh.mu);
  auto it = sh.index.find(k);
  if (it == sh.index.end()) return std::nullopt;
  return it->second->epoch;
}

void ArtifactCache::clear() {
  for (auto& sh : shards_) {
    check::MutexLock lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
    sh->bytes = 0;
  }
}

void ArtifactCache::for_each_tree(
    const std::function<void(ArtifactKind, vid_t,
                             const std::shared_ptr<const sssp::SsspResult>&,
                             std::uint64_t)>& fn) const {
  for (const auto& sh : shards_) {
    check::MutexLock lock(sh->mu);
    for (const auto& e : sh->lru) {
      if (e.key.kind == ArtifactKind::kSnapshot) continue;
      fn(e.key.kind, e.key.a,
         std::static_pointer_cast<const sssp::SsspResult>(e.value),
         e.generation);
    }
  }
}

void ArtifactCache::for_each_snapshot(
    const std::function<void(vid_t, vid_t,
                             const std::shared_ptr<PrunedSnapshot>&,
                             std::uint64_t)>& fn) const {
  for (const auto& sh : shards_) {
    check::MutexLock lock(sh->mu);
    for (const auto& e : sh->lru) {
      if (e.key.kind != ArtifactKind::kSnapshot) continue;
      fn(e.key.a, e.key.b, std::static_pointer_cast<PrunedSnapshot>(e.value),
         e.generation);
    }
  }
}

CacheStats ArtifactCache::stats() const {
  CacheStats s;
  for (const auto& sh : shards_) {
    check::MutexLock lock(sh->mu);
    s.bytes_used += sh->bytes;
    s.entries += sh->lru.size();
  }
  if constexpr (obs::kEnabled) {
    auto& reg = obs::MetricsRegistry::global();
    s.hits = reg.counter("serve.cache.hits").value();
    s.misses = reg.counter("serve.cache.misses").value();
    s.evictions = reg.counter("serve.cache.evictions").value();
    s.stale_drops = reg.counter("serve.cache.stale_drops").value();
    s.oversize_rejects = reg.counter("serve.cache.oversize_rejects").value();
    reg.gauge("serve.cache.bytes").set(static_cast<double>(s.bytes_used));
    reg.gauge("serve.cache.entries").set(static_cast<double>(s.entries));
  }
  return s;
}

}  // namespace peek::serve
