// Lazy KSP enumeration: paths are produced one at a time, shortest first,
// with no K fixed up front. This is the natural interface for consumers that
// scan candidates until one satisfies an external predicate — e.g. the
// routing-and-spectrum-assignment loop of §1 ("iteratively checks the
// availability of the paths in increasing order") — and stops paying for
// deviations the moment it stops asking.
//
// A stream is OptYen made incremental: the shared deviation engine
// (ksp/yen_engine) driven by OptYen's solver — a static reverse
// shortest-path tree answers deviations when its path avoids the prefix;
// otherwise a restricted SSSP runs. optyen_ksp is this stream drained to K,
// so calling next() K times is optyen_ksp with that K (plus nothing for
// paths never requested).
#pragma once

#include <memory>
#include <optional>

#include "ksp/optyen.hpp"

namespace peek::ksp {

namespace detail {
class DeviationEngine;  // ksp/yen_engine.hpp
}  // namespace detail

class KspStream {
 public:
  /// The BiView must outlive the stream. Prefer the CsrGraph overload unless
  /// streaming over a compacted view. Of `opts` only `parallel` applies (a
  /// round's deviations run concurrently, as in optyen_ksp; the reverse tree
  /// is a serial Dijkstra either way); K and cancellation are per next()
  /// call.
  KspStream(const sssp::BiView& g, vid_t s, vid_t t,
            const KspOptions& opts = {});
  KspStream(const graph::CsrGraph& g, vid_t s, vid_t t);

  /// Warm-start: adopt a precomputed reverse shortest-path tree from t
  /// (dist[v] = shortest v->t distance, parent[v] = v's successor toward t)
  /// instead of running the priming SSSP on the first next() call. PeeK's
  /// KSP stage and the serving layer (serve/query_engine) use this to
  /// recycle the pruning stage's to-target tree, translated into compacted
  /// ids (core::compacted_reverse_tree).
  KspStream(const sssp::BiView& g, vid_t s, vid_t t, sssp::SsspResult rtree,
            const KspOptions& opts = {});

  ~KspStream();
  // The engine's solver holds the stream's tree and counters by address.
  KspStream(const KspStream&) = delete;
  KspStream& operator=(const KspStream&) = delete;

  /// The next shortest simple path, or nullopt when the path space is
  /// exhausted — or when `cancel` tripped mid-deviation. The i-th successful
  /// call returns the i-th shortest path. A cancelled call leaves the stream
  /// valid and NOT exhausted (check exhausted() to tell the cases apart): any
  /// partially-expanded round is simply re-run by the next un-cancelled call.
  /// Every call adds its work to the ksp.* registry counters, as optyen_ksp
  /// does.
  std::optional<sssp::Path> next(const fault::CancelToken* cancel = nullptr);

  /// True when the path space is genuinely dry (nullopt from next() without
  /// a tripped token). Never set by cancellation.
  bool exhausted() const { return exhausted_; }

  /// Paths produced so far.
  const std::vector<sssp::Path>& produced() const { return produced_; }
  const KspStats& stats() const { return stats_; }

  /// The reverse shortest-path tree deviations are answered from, for
  /// persistence (recover/): a restored stream warm-started with this exact
  /// tree replays byte-identical tie-breaks. Valid only when
  /// has_reverse_tree() — i.e. after warm-start construction or the first
  /// successful next().
  const sssp::SsspResult& reverse_tree() const { return rtree_; }
  bool has_reverse_tree() const { return have_rtree_; }

 private:
  /// Computes the reverse tree unless warm-started, then seeds the engine
  /// with the tree path s->t. False when `cancel` cut the SSSP short.
  bool prime(const fault::CancelToken* cancel);

  sssp::BiView g_;
  vid_t s_, t_;
  bool parallel_;
  sssp::SsspResult rtree_;
  bool have_rtree_ = false;
  detail::OptYenCounts counts_;
  int priming_sssps_ = 0;
  std::unique_ptr<detail::DeviationEngine> engine_;
  std::vector<sssp::Path> produced_;
  KspStats stats_;
  bool exhausted_ = false;
};

}  // namespace peek::ksp
