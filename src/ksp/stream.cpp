#include "ksp/stream.hpp"

#include "ksp/yen_engine.hpp"
#include "obs/metrics.hpp"

namespace peek::ksp {

KspStream::KspStream(const sssp::BiView& g, vid_t s, vid_t t,
                     const KspOptions& opts)
    : g_(g), s_(s), t_(t), parallel_(opts.parallel) {
  const vid_t n = g_.fwd.num_vertices();
  if (s_ < 0 || s_ >= n || t_ < 0 || t_ >= n) exhausted_ = true;
}

KspStream::KspStream(const graph::CsrGraph& g, vid_t s, vid_t t)
    : KspStream(sssp::BiView::of(g), s, t) {}

KspStream::KspStream(const sssp::BiView& g, vid_t s, vid_t t,
                     sssp::SsspResult rtree, const KspOptions& opts)
    : KspStream(g, s, t, opts) {
  rtree_ = std::move(rtree);
  have_rtree_ = true;
}

KspStream::~KspStream() = default;

bool KspStream::prime(const fault::CancelToken* cancel) {
  if (!have_rtree_) {
    PEEK_TIMER_SCOPE("ksp.reverse_tree");
    priming_sssps_++;
    PEEK_COUNT_INC("ksp.deviation_sssp_calls");
    sssp::DijkstraOptions dj;
    dj.cancel = cancel;
    rtree_ = sssp::dijkstra(g_.rev, t_, dj);
    stats_.sssp_calls = priming_sssps_;
    // A partial reverse tree overestimates distances, which would poison
    // both the shortcut bound and its feasibility walk: stay unprimed so a
    // later un-cancelled call redoes it, and do NOT flag exhaustion.
    if (rtree_.status != fault::Status::kOk) {
      rtree_ = {};
      return false;
    }
    have_rtree_ = true;
  }
  engine_ = std::make_unique<detail::DeviationEngine>(
      g_.fwd, s_, t_,
      detail::optyen_solver(g_.fwd, rtree_, t_, counts_), parallel_);
  engine_->start(sssp::path_from_reverse_parents(rtree_, s_, t_));
  return true;
}

std::optional<sssp::Path> KspStream::next(const fault::CancelToken* cancel) {
  if (exhausted_) return std::nullopt;
  if (!engine_ && !prime(cancel)) return std::nullopt;
  auto path = engine_->next(cancel);

  // Publish this call's work, so serving-path streams show up in the same
  // counters as optyen_ksp (the engine adds candidates and accepted paths).
  const KspStats before = stats_;
  stats_.sssp_calls = priming_sssps_ + counts_.sssp_calls.load();
  stats_.tree_shortcuts = counts_.tree_shortcuts.load();
  stats_.candidates_generated = engine_->candidates_generated();
  PEEK_COUNT_ADD("ksp.deviation_sssp_calls",
                 stats_.sssp_calls - before.sssp_calls);
  PEEK_COUNT_ADD("ksp.tree_shortcuts",
                 stats_.tree_shortcuts - before.tree_shortcuts);

  if (!path) {
    exhausted_ = engine_->exhausted();
    return std::nullopt;
  }
  produced_.push_back(*path);
  return path;
}

}  // namespace peek::ksp
