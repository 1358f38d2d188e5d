// Dijkstra's algorithm with a lazy-deletion binary heap, early exit, and
// vertex/edge ban masks. This is the serial SSSP workhorse of the Yen-family
// algorithms: bans let them "remove" prefix vertices and deviation edges
// without mutating the graph (Algorithm 1, lines 6 and 10).
#pragma once

#include <unordered_set>
#include <vector>

#include "fault/cancel.hpp"
#include "sssp/view.hpp"

namespace peek::sssp {

/// Distances + shortest-path-tree parents from one source.
struct SsspResult {
  std::vector<weight_t> dist;   // kInfDist when unreachable
  std::vector<vid_t> parent;    // kNoVertex for source / unreachable
  /// kOk, or kCancelled/kDeadlineExceeded when a CancelToken stopped the run
  /// early — dist/parent then hold a valid partial tree (settled prefix);
  /// unsettled vertices may carry overestimates. Consumers must not treat a
  /// non-kOk tree as shortest.
  fault::Status::Code status = fault::Status::kOk;
};

/// Temporary exclusions applied on top of a GraphView.
struct Bans {
  /// Byte per vertex; nonzero = banned. May be null.
  const std::uint8_t* vertices = nullptr;
  /// Banned forward-CSR edge indices. May be null.
  const std::unordered_set<eid_t>* edges = nullptr;

  bool vertex_banned(vid_t v) const { return vertices && vertices[v]; }
  bool edge_banned(eid_t e) const { return edges && edges->count(e) > 0; }
};

struct DijkstraOptions {
  /// Stop as soon as this vertex is settled (kNoVertex = settle everything).
  vid_t target = kNoVertex;
  Bans bans;
  /// Cooperative cancellation, polled once per settled vertex (clock reads
  /// strided — see fault/cancel.hpp). Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

/// Full SSSP from `source` over `view`.
SsspResult dijkstra(const GraphView& view, vid_t source,
                    const DijkstraOptions& opts = {});

/// One entry of Dijkstra's lazy-deletion binary heap.
struct DijkstraHeapEntry {
  weight_t dist;
  vid_t v;
};

/// Caller-owned storage for back-to-back Dijkstra runs — the KSP engine's
/// deviation SSSPs, thousands per query on one compacted graph. A run
/// refills `tree` and clears `heap` but keeps both capacities, so it pays
/// one sequential fill instead of two allocations, their page faults and
/// the heap's regrowth. Owned by one thread at a time.
struct DijkstraWorkspace {
  SsspResult tree;  // the last run's result
  std::vector<DijkstraHeapEntry> heap;
};

/// dijkstra() computed in `ws`; returns `ws.tree`, valid until the next run
/// in the same workspace. Bit-identical to the allocating overload (it is
/// the same loop).
const SsspResult& dijkstra(const GraphView& view, vid_t source,
                           const DijkstraOptions& opts, DijkstraWorkspace& ws);

/// SSSP on the reverse graph: result.dist[v] is the shortest distance from v
/// TO `target` in the original orientation; parent[v] is v's successor on
/// that path (the reverse shortest-path tree of §4.1 / OptYen).
SsspResult reverse_dijkstra(const CsrGraph& g, vid_t target,
                            const DijkstraOptions& opts = {});

/// Shortest s->t distance only (early-exit convenience).
weight_t shortest_distance(const CsrGraph& g, vid_t s, vid_t t);

}  // namespace peek::sssp
