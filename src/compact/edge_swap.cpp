#include "compact/edge_swap.hpp"

#include <atomic>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace peek::compact {

MutableCsr::MutableCsr(const CsrGraph& g)
    : n_(g.num_vertices()), max_w_(g.max_edge_weight()) {
  vertex_alive_.assign(static_cast<size_t>(n_), 1);
  fwd_row_.assign(g.row_offsets().begin(), g.row_offsets().end());
  fwd_col_.assign(g.col().begin(), g.col().end());
  fwd_wgt_.assign(g.weights().begin(), g.weights().end());
  fwd_count_.resize(static_cast<size_t>(n_));
  const CsrGraph& r = g.reverse();
  rev_row_.assign(r.row_offsets().begin(), r.row_offsets().end());
  rev_col_.assign(r.col().begin(), r.col().end());
  rev_wgt_.assign(r.weights().begin(), r.weights().end());
  rev_count_.resize(static_cast<size_t>(n_));
  for (vid_t v = 0; v < n_; ++v) {
    fwd_count_[v] = g.degree(v);
    rev_count_[v] = r.degree(v);
  }
}

eid_t MutableCsr::num_valid_edges() const {
  eid_t total = 0;
  for (vid_t v = 0; v < n_; ++v) {
    if (vertex_alive_[v]) total += fwd_count_[v];
  }
  return total;
}

namespace {

/// Stable pack of one CSR row in one pass: each kept edge swaps down to the
/// next valid slot, so kept edges keep their order and deleted ones end in
/// the tail. The KSP search breaks ties by row order, so this order must be
/// the regenerated graph's; §5.2's front/back pointers broke it (DESIGN.md
/// §3). `self` is the row's owning vertex; `forward` selects the (src,dst)
/// argument order handed to `keep`.
eid_t pack_row(vid_t self, eid_t begin, eid_t count, std::vector<vid_t>& col,
               std::vector<weight_t>& wgt, const std::uint8_t* vertex_keep,
               const EdgeKeep& keep, bool forward) {
  auto kept = [&](eid_t e) {
    const vid_t other = col[static_cast<size_t>(e)];
    if (vertex_keep && !vertex_keep[other]) return false;
    if (!keep) return true;
    const weight_t w = wgt[static_cast<size_t>(e)];
    return forward ? keep(self, other, w) : keep(other, self, w);
  };
  eid_t valid = begin;
  for (eid_t e = begin; e < begin + count; ++e) {
    if (!kept(e)) continue;
    if (e != valid) {
      std::swap(col[static_cast<size_t>(valid)], col[static_cast<size_t>(e)]);
      std::swap(wgt[static_cast<size_t>(valid)], wgt[static_cast<size_t>(e)]);
    }
    ++valid;
  }
  return valid - begin;  // new valid count
}

}  // namespace

eid_t edge_swap_compact(MutableCsr& g, const std::uint8_t* vertex_keep,
                        const EdgeKeep& keep, const EdgeSwapOptions& opts) {
  PEEK_TIMER_SCOPE("compact.edge_swap");
  const vid_t n = g.num_vertices();
  auto& alive = g.vertex_alive();
  std::atomic<eid_t> remaining{0};

  auto body = [&](vid_t v) {
    if (vertex_keep && !vertex_keep[v]) {
      alive[v] = 0;
      return;
    }
    if (!alive[v]) return;
    const eid_t fc = pack_row(v, g.fwd_row()[v], g.fwd_count()[v], g.fwd_col(),
                              g.fwd_wgt(), vertex_keep, keep, /*forward=*/true);
    g.fwd_count()[v] = fc;
    g.rev_count()[v] = pack_row(v, g.rev_row()[v], g.rev_count()[v], g.rev_col(),
                                g.rev_wgt(), vertex_keep, keep, /*forward=*/false);
    remaining.fetch_add(fc, std::memory_order_relaxed);
  };

  fault::CancelPoll poll(opts.cancel, /*stride=*/256);
  if (opts.parallel) {
    if (poll.should_stop()) return kEdgeSwapCancelled;
    par::parallel_for_dynamic(vid_t{0}, n, body);
    if (poll.should_stop()) return kEdgeSwapCancelled;
  } else {
    for (vid_t v = 0; v < n; ++v) {
      if (poll.should_stop()) return kEdgeSwapCancelled;
      body(v);
    }
  }
  PEEK_COUNT_ADD("compact.edge_swap.kept_edges", remaining.load());
  return remaining.load();
}

}  // namespace peek::compact
