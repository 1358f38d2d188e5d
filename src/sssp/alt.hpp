// ALT (A*, Landmarks, Triangle inequality — Goldberg & Harrelson): landmark
// distance tables turned into admissible A* heuristics for point-to-point
// queries: the library's repeated-query primitive. Pay L SSSPs once, then
// every query explores a fraction of the graph.
#pragma once

#include <vector>

#include "sssp/path.hpp"

namespace peek::sssp {

struct AltOptions {
  int landmarks = 8;
  /// Farthest-point selection start seed.
  std::uint64_t seed = 1;
};

class AltOracle {
 public:
  using Options = AltOptions;

  /// Preprocesses: selects landmarks by farthest-point traversal and stores
  /// forward/backward distance tables (2·L SSSPs).
  AltOracle(const graph::CsrGraph& g, const AltOptions& opts = {});

  /// Admissible lower bound on dist(v, t).
  weight_t heuristic(vid_t v, vid_t t) const;

  /// Point-to-point A* query. Returns the exact shortest path (empty when
  /// unreachable) and counts settled vertices for benchmarking.
  struct QueryResult {
    Path path;
    vid_t settled = 0;
  };
  QueryResult query(vid_t s, vid_t t) const;

  const std::vector<vid_t>& landmarks() const { return landmarks_; }

 private:
  const graph::CsrGraph* g_;
  std::vector<vid_t> landmarks_;
  /// from_[l][v] = dist(landmark_l -> v); to_[l][v] = dist(v -> landmark_l).
  std::vector<std::vector<weight_t>> from_;
  std::vector<std::vector<weight_t>> to_;
};

}  // namespace peek::sssp
