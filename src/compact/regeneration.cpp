#include "compact/regeneration.hpp"

#include <new>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/prefix_sum.hpp"

namespace peek::compact {

namespace {

RegeneratedGraph regenerate_impl(const GraphView& view,
                                 std::span<const vid_t> kept,
                                 const EdgeKeep& keep,
                                 const RegenerationOptions& opts) {
  PEEK_FAULT_ALLOC("compact.regenerate.alloc");
  fault::CancelPoll poll(opts.cancel, /*stride=*/1);
  const auto n_new = static_cast<vid_t>(kept.size());

  // Pass 1: the id maps; new ids follow the list's increasing old ids.
  VertexMap map;
  map.old_to_new.assign(static_cast<size_t>(view.num_vertices()), kNoVertex);
  map.new_to_old.assign(kept.begin(), kept.end());
  auto fill_map = [&](vid_t i) { map.old_to_new[kept[i]] = i; };
  if (opts.parallel) par::parallel_for(vid_t{0}, n_new, fill_map);
  else for (vid_t i = 0; i < n_new; ++i) fill_map(i);

  if (poll.should_stop()) {
    RegeneratedGraph aborted;
    aborted.status = poll.why();
    return aborted;
  }

  // An edge survives into a kept vertex (old_to_new is the membership test)
  // unless `keep` rejects it.
  auto edge_kept = [&](vid_t u, eid_t e) {
    if (!view.edge_alive(e)) return false;
    const vid_t v = view.edge_target(e);
    if (map.old_to_new[v] == kNoVertex) return false;
    return !keep || keep(u, v, view.edge_weight(e));
  };

  // Pass 2: surviving out-degree per kept vertex -> new row offsets.
  std::vector<std::int64_t> deg(static_cast<size_t>(n_new), 0);
  auto count_deg = [&](vid_t i) {
    const vid_t v = kept[i];
    std::int64_t d = 0;
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (edge_kept(v, e)) d++;
    }
    deg[i] = d;
  };
  if (opts.parallel) par::parallel_for_dynamic(vid_t{0}, n_new, count_deg);
  else for (vid_t i = 0; i < n_new; ++i) count_deg(i);

  // Exclusive prefix sum of the degrees into the offsets. The parallel scan
  // opens two thread regions, which a serial caller must not pay for.
  std::vector<std::int64_t> offsets(static_cast<size_t>(n_new) + 1, 0);
  std::int64_t m_new = 0;
  if (opts.parallel) {
    m_new = par::exclusive_prefix_sum(
        deg, std::span<std::int64_t>(offsets.data(), deg.size()));
  } else {
    for (vid_t i = 0; i < n_new; ++i) {
      offsets[i] = m_new;
      m_new += deg[i];
    }
  }
  offsets[static_cast<size_t>(n_new)] = m_new;

  if (poll.should_stop()) {
    RegeneratedGraph aborted;
    aborted.status = poll.why();
    return aborted;
  }

  // Pass 3: fill the new adjacency.
  std::vector<eid_t> row(offsets.begin(), offsets.end());
  std::vector<vid_t> col(static_cast<size_t>(m_new));
  std::vector<weight_t> wgt(static_cast<size_t>(m_new));
  auto fill_edges = [&](vid_t i) {
    const vid_t v = kept[i];
    eid_t cursor = row[i];
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (!edge_kept(v, e)) continue;
      col[static_cast<size_t>(cursor)] = map.old_to_new[view.edge_target(e)];
      wgt[static_cast<size_t>(cursor)] = view.edge_weight(e);
      ++cursor;
    }
  };
  if (opts.parallel) par::parallel_for_dynamic(vid_t{0}, n_new, fill_edges);
  else for (vid_t i = 0; i < n_new; ++i) fill_edges(i);

  PEEK_COUNT_ADD("compact.regenerate.kept_vertices", n_new);
  PEEK_COUNT_ADD("compact.regenerate.kept_edges", m_new);
  return {CsrGraph(std::move(row), std::move(col), std::move(wgt)),
          std::move(map)};
}

/// Real or injected (fault::InjectedFault) allocation failure: the dense
/// rebuild is the allocation-heaviest stage, so contain it here.
template <typename Build>
RegeneratedGraph contain_bad_alloc(const Build& build) {
  try {
    return build();
  } catch (const std::bad_alloc&) {
    RegeneratedGraph r;
    r.status = fault::Status::kResourceExhausted;
    return r;
  }
}

}  // namespace

RegeneratedGraph regenerate(const GraphView& view, std::span<const vid_t> kept,
                            const EdgeKeep& keep,
                            const RegenerationOptions& opts) {
  PEEK_TIMER_SCOPE("compact.regenerate");
  return contain_bad_alloc(
      [&] { return regenerate_impl(view, kept, keep, opts); });
}

RegeneratedGraph regenerate(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep,
                            const RegenerationOptions& opts) {
  PEEK_TIMER_SCOPE("compact.regenerate");
  return contain_bad_alloc([&] {
    return regenerate_impl(view, kept_vertices(view, vertex_keep), keep, opts);
  });
}

std::vector<vid_t> kept_vertices(const GraphView& view,
                                 const std::uint8_t* vertex_keep) {
  std::vector<vid_t> kept;
  for (vid_t v = 0; v < view.num_vertices(); ++v) {
    if (view.vertex_alive(v) && (vertex_keep == nullptr || vertex_keep[v])) {
      kept.push_back(v);
    }
  }
  return kept;
}

}  // namespace peek::compact
