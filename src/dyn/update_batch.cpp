#include "dyn/update_batch.hpp"

#include <algorithm>
#include <cmath>

namespace peek::dyn {

weight_t AppliedOp::min_weight() const {
  switch (op.kind) {
    case OpKind::kInsert:
      return op.weight;
    case OpKind::kDelete:
      return old_weight;
    case OpKind::kReweight:
      return std::min(old_weight, op.weight);
  }
  return kInfDist;
}

bool AppliedBatch::structural() const {
  for (const AppliedOp& a : ops) {
    if (a.applied && a.structural()) return true;
  }
  return false;
}

weight_t AppliedBatch::weight_delta_sum() const {
  weight_t sum = 0;
  for (const AppliedOp& a : ops) {
    if (a.applied && a.op.kind == OpKind::kReweight) {
      sum += std::abs(a.op.weight - a.old_weight);
    }
  }
  return sum;
}

weight_t AppliedBatch::weight_decrease_sum() const {
  weight_t sum = 0;
  for (const AppliedOp& a : ops) {
    if (a.applied && a.op.kind == OpKind::kReweight) {
      sum += std::max<weight_t>(0, a.old_weight - a.op.weight);
    }
  }
  return sum;
}

bool AppliedBatch::any_applied() const {
  for (const AppliedOp& a : ops) {
    if (a.applied) return true;
  }
  return false;
}

void BatchLog::record(const AppliedBatch& b) {
  records_.push_back({b.epoch, b.structural(), b.weight_delta_sum()});
  if (records_.size() > kCapacity) records_.pop_front();
}

std::optional<weight_t> BatchLog::bound(std::uint64_t from,
                                        std::uint64_t to) const {
  weight_t sum = 0;
  std::uint64_t held = 0;
  for (const Record& r : records_) {
    if (r.epoch <= from || r.epoch > to) continue;
    if (r.structural) return std::nullopt;
    sum += r.delta;
    ++held;
  }
  // Epochs are dense, so the range is covered iff all to - from of its
  // batches are still held (from > to wraps to a count never held).
  if (held != to - from) return std::nullopt;
  return sum;
}

AppliedBatch apply(DynamicGraph& g, const UpdateBatch& batch) {
  AppliedBatch out;
  out.ops.reserve(batch.ops.size());
  const vid_t n = g.num_vertices();
  for (const EdgeOp& op : batch.ops) {
    AppliedOp a;
    a.op = op;
    const bool in_range = op.u >= 0 && op.u < n && op.v >= 0 && op.v < n;
    if (in_range && g.vertex_alive(op.u) && g.vertex_alive(op.v)) {
      switch (op.kind) {
        case OpKind::kInsert:
          g.insert_edge(op.u, op.v, op.weight);
          a.old_weight = kInfDist;
          a.applied = true;
          break;
        case OpKind::kDelete:
          a.old_weight = g.edge_weight(op.u, op.v);
          a.applied = a.old_weight != kInfDist && g.delete_edge(op.u, op.v);
          break;
        case OpKind::kReweight:
          a.old_weight = g.reweight_edge(op.u, op.v, op.weight);
          a.applied = a.old_weight != kInfDist;
          break;
      }
    }
    out.ops.push_back(a);
  }
  return out;
}

weight_t cone_threshold(const AppliedBatch& b, const sssp::SsspResult& tree,
                        bool reverse) {
  weight_t t = kInfDist;
  const vid_t n = static_cast<vid_t>(tree.dist.size());
  for (const AppliedOp& a : b.ops) {
    if (!a.applied) continue;
    // The op anchors at the endpoint the search reaches first: the tail u
    // for a forward tree, the head v for a reverse tree (whose Dijkstra
    // runs over the transposed graph).
    const vid_t anchor = reverse ? a.op.v : a.op.u;
    if (anchor < 0 || anchor >= n) continue;
    const weight_t d = tree.dist[anchor];
    // An op whose anchor is unreachable pre-mutation cannot be the first
    // batch edge on any path from the root — it contributes no bound.
    if (d == kInfDist) continue;
    t = std::min(t, d + a.min_weight());
  }
  return t;
}

std::vector<std::uint8_t> cone_mask(const sssp::SsspResult& tree,
                                    weight_t threshold) {
  std::vector<std::uint8_t> mask(tree.dist.size(), 0);
  for (size_t v = 0; v < tree.dist.size(); ++v) {
    mask[v] = static_cast<std::uint8_t>(in_cone(tree.dist[v], threshold));
  }
  return mask;
}

PairImpact pair_impact(const AppliedBatch& b, const sssp::SsspResult* fwd,
                       const sssp::SsspResult* rev, weight_t upper_bound) {
  PairImpact out;
  if (!b.any_applied()) return out;

  const weight_t bound = b.weight_delta_sum();
  const bool batch_structural = b.structural();

  // Note an infinite upper_bound is NOT only the unreachable-pair case: a
  // reachable pair with fewer than k_budget simple paths has no finite prune
  // bound either, and its answer absolutely can move. No early-out — the op
  // loop below handles true negative answers soundly on its own: an applied
  // reweight op with a finite head (s reaches u) and finite tail (v reaches
  // t) implies s -> u -> v -> t exists, so for an unreachable pair every
  // reweight op has an infinite end and the loop reports unaffected.
  if (fwd == nullptr || rev == nullptr) {
    out.affected = true;
    out.structural = batch_structural;
    out.weight_bound = bound;
    return out;
  }

  const weight_t dec = b.weight_decrease_sum();
  const vid_t n = static_cast<vid_t>(fwd->dist.size());
  const weight_t budget =
      upper_bound == kInfDist ? kInfDist
                              : upper_bound + bound + keep_slack(upper_bound);

  // rt_floor(y): sound lower bound on the post-mutation y -> t distance of
  // any suffix that crosses no further batch edge — the cached reverse
  // distance minus the most reweights can shrink it.
  const auto rt_floor = [&](vid_t y) -> weight_t {
    if (y < 0 || y >= n) return kInfDist;
    const weight_t d = rev->dist[y];
    return d == kInfDist ? kInfDist : std::max<weight_t>(0, d - dec);
  };

  // C: lower bound on any post-mutation suffix that crosses at least one
  // more batch edge (pre-segments between batch edges are >= 0). One pass is
  // the fixpoint: a term routed through C again cannot go below C.
  weight_t chain = kInfDist;
  for (const AppliedOp& a : b.ops) {
    if (!a.applied) continue;
    const weight_t tail = rt_floor(a.op.v);
    if (tail != kInfDist) chain = std::min(chain, a.min_weight() + tail);
  }

  for (const AppliedOp& a : b.ops) {
    if (!a.applied) continue;
    weight_t head = a.op.u >= 0 && a.op.u < n ? fwd->dist[a.op.u] : kInfDist;
    // For structural ops the prefix may cross reweighted edges (the op is
    // tested as the first *structural* edge of a changed path), so the
    // prefix bound loosens by the batch's total reweight decrease.
    if (a.structural() && head != kInfDist) {
      head = std::max<weight_t>(0, head - dec);
    }
    if (head == kInfDist) continue;  // cannot lead a changed path
    const weight_t tail = std::min(rt_floor(a.op.v), chain);
    if (tail == kInfDist) continue;
    if (head + a.min_weight() + tail <= budget) {
      out.affected = true;
      if (a.structural()) out.structural = true;
    }
  }
  if (out.affected && !out.structural) out.weight_bound = bound;
  return out;
}

graph::CsrGraph patched_csr(const DynamicGraph& g, const graph::CsrGraph& base,
                            const AppliedBatch& b) {
  if (b.structural() || base.num_vertices() != g.num_vertices()) {
    return g.to_csr();
  }
  std::vector<weight_t> wgt(base.weights().begin(), base.weights().end());
  for (const AppliedOp& a : b.ops) {
    if (!a.applied || a.op.kind != OpKind::kReweight) continue;
    // Same first-match rule as DynamicGraph::reweight_edge: base rows are
    // emitted in level order, so the first CSR match is the level the
    // mutation landed in.
    bool found = false;
    for (eid_t e = base.edge_begin(a.op.u); e < base.edge_end(a.op.u); ++e) {
      if (base.edge_target(e) == a.op.v) {
        wgt[static_cast<size_t>(e)] = a.op.weight;
        found = true;
        break;
      }
    }
    if (!found) return g.to_csr();  // base was not this graph's snapshot
  }
  return graph::CsrGraph(
      std::vector<eid_t>(base.row_offsets().begin(), base.row_offsets().end()),
      std::vector<vid_t>(base.col().begin(), base.col().end()), std::move(wgt));
}

}  // namespace peek::dyn
