#include "dist/partition.hpp"

#include <algorithm>

namespace peek::dist {

std::vector<vid_t> partition_points(vid_t n, int ranks) {
  std::vector<vid_t> points(static_cast<size_t>(ranks) + 1);
  for (int r = 0; r <= ranks; ++r)
    points[static_cast<size_t>(r)] =
        static_cast<vid_t>(static_cast<std::int64_t>(n) * r / ranks);
  return points;
}

int owner_of(vid_t v, const std::vector<vid_t>& points) {
  auto it = std::upper_bound(points.begin(), points.end(), v);
  return static_cast<int>(it - points.begin()) - 1;
}

LocalGraph make_local_graph(const CsrGraph& g, int rank, int ranks) {
  const auto points = partition_points(g.num_vertices(), ranks);
  LocalGraph lg;
  lg.rank = rank;
  lg.ranks = ranks;
  lg.n_global = g.num_vertices();
  lg.begin = points[static_cast<size_t>(rank)];
  lg.end = points[static_cast<size_t>(rank) + 1];
  lg.row.reserve(static_cast<size_t>(lg.owned()) + 1);
  lg.row.push_back(0);
  for (vid_t v = lg.begin; v < lg.end; ++v) {
    for (eid_t e = g.edge_begin(v); e < g.edge_end(v); ++e) {
      lg.col.push_back(g.edge_target(e));
      lg.wgt.push_back(g.edge_weight(e));
    }
    lg.row.push_back(static_cast<eid_t>(lg.col.size()));
  }
  return lg;
}

}  // namespace peek::dist
