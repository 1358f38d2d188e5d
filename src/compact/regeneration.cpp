#include "compact/regeneration.hpp"

#include <new>

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/prefix_sum.hpp"

namespace peek::compact {

namespace {

RegeneratedGraph regenerate_impl(const GraphView& view,
                                 const std::uint8_t* vertex_keep,
                                 const EdgeKeep& keep,
                                 const RegenerationOptions& opts) {
  PEEK_TIMER_SCOPE("compact.regenerate");
  PEEK_FAULT_ALLOC("compact.regenerate.alloc");
  fault::CancelPoll poll(opts.cancel, /*stride=*/1);
  const vid_t n_old = view.num_vertices();

  auto vertex_kept = [&](vid_t v) {
    if (!view.vertex_alive(v)) return false;
    return vertex_keep == nullptr || vertex_keep[v] != 0;
  };
  auto edge_kept = [&](vid_t u, eid_t e) {
    if (!view.edge_alive(e)) return false;
    const vid_t v = view.edge_target(e);
    if (!vertex_kept(v)) return false;
    return !keep || keep(u, v, view.edge_weight(e));
  };

  // Exclusive prefix sum of `in` into `out`, returning the total. The
  // parallel scan opens two thread regions, which a serial caller must not
  // pay for.
  auto prefix_sum = [&](std::span<const std::int64_t> in,
                        std::span<std::int64_t> out) {
    if (opts.parallel) return par::exclusive_prefix_sum(in, out);
    std::int64_t run = 0;
    for (size_t i = 0; i < in.size(); ++i) {
      out[i] = run;
      run += in[i];
    }
    return run;
  };

  // Pass 1: kept flags -> new ids via prefix sum.
  std::vector<std::int64_t> flag(static_cast<size_t>(n_old));
  auto mark = [&](vid_t v) { flag[v] = vertex_kept(v) ? 1 : 0; };
  if (opts.parallel) par::parallel_for(vid_t{0}, n_old, mark);
  else for (vid_t v = 0; v < n_old; ++v) mark(v);

  std::vector<std::int64_t> id(static_cast<size_t>(n_old));
  const std::int64_t n_new = prefix_sum(flag, id);

  VertexMap map;
  map.old_to_new.assign(static_cast<size_t>(n_old), kNoVertex);
  map.new_to_old.assign(static_cast<size_t>(n_new), kNoVertex);
  auto fill_map = [&](vid_t v) {
    if (flag[v]) {
      map.old_to_new[v] = static_cast<vid_t>(id[v]);
      map.new_to_old[static_cast<size_t>(id[v])] = v;
    }
  };
  if (opts.parallel) par::parallel_for(vid_t{0}, n_old, fill_map);
  else for (vid_t v = 0; v < n_old; ++v) fill_map(v);

  if (poll.should_stop()) {
    RegeneratedGraph aborted;
    aborted.status = poll.why();
    return aborted;
  }

  // Pass 2: surviving out-degree per kept vertex -> new row offsets.
  std::vector<std::int64_t> deg(static_cast<size_t>(n_new), 0);
  auto count_deg = [&](vid_t v) {
    if (!flag[v]) return;
    std::int64_t d = 0;
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (edge_kept(v, e)) d++;
    }
    deg[static_cast<size_t>(map.old_to_new[v])] = d;
  };
  if (opts.parallel) par::parallel_for_dynamic(vid_t{0}, n_old, count_deg);
  else for (vid_t v = 0; v < n_old; ++v) count_deg(v);

  std::vector<std::int64_t> offsets(static_cast<size_t>(n_new) + 1, 0);
  const std::int64_t m_new = prefix_sum(
      deg, std::span<std::int64_t>(offsets.data(), static_cast<size_t>(n_new)));
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
  auto fill_edges = [&](vid_t v) {
    if (!flag[v]) return;
    eid_t cursor = row[static_cast<size_t>(map.old_to_new[v])];
    for (eid_t e = view.edge_begin(v); e < view.edge_end(v); ++e) {
      if (!edge_kept(v, e)) continue;
      col[static_cast<size_t>(cursor)] = map.old_to_new[view.edge_target(e)];
      wgt[static_cast<size_t>(cursor)] = view.edge_weight(e);
      ++cursor;
    }
  };
  if (opts.parallel) par::parallel_for_dynamic(vid_t{0}, n_old, fill_edges);
  else for (vid_t v = 0; v < n_old; ++v) fill_edges(v);

  PEEK_COUNT_ADD("compact.regenerate.kept_vertices", n_new);
  PEEK_COUNT_ADD("compact.regenerate.kept_edges", m_new);
  return {CsrGraph(std::move(row), std::move(col), std::move(wgt)),
          std::move(map)};
}

}  // namespace

RegeneratedGraph regenerate(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep,
                            const RegenerationOptions& opts) {
  try {
    return regenerate_impl(view, vertex_keep, keep, opts);
  } catch (const std::bad_alloc&) {
    // Real or injected (fault::InjectedFault) allocation failure: the dense
    // rebuild is the allocation-heaviest stage, so contain it here.
    RegeneratedGraph r;
    r.status = fault::Status::kResourceExhausted;
    return r;
  }
}

}  // namespace peek::compact
