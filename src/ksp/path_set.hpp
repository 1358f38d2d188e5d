// Candidate-path bookkeeping shared by the Yen-family algorithms: a min-heap
// of candidate paths with duplicate suppression (Algorithm 1 line 9 — a path
// may be generated from several deviations but must enter the pool once).
#pragma once

#include <optional>
#include <unordered_set>
#include <vector>

#include "fault/cancel.hpp"
#include "sssp/path.hpp"

namespace peek::ksp {

using sssp::Path;
using sssp::PathHash;
using sssp::PathLess;

/// A candidate K-th-shortest path plus the Lawler deviation index: deviations
/// from this path need only start at `dev_index` (everything earlier was
/// already explored when the parent path was processed).
struct Candidate {
  Path path;
  int dev_index = 0;
};

class CandidateSet {
 public:
  /// Inserts unless an identical vertex sequence was ever inserted before.
  /// Returns true if inserted.
  bool push(Path path, int dev_index);

  /// Extracts the shortest candidate (distance, then lexicographic — fully
  /// deterministic). Empty when exhausted.
  std::optional<Candidate> pop_min();

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  size_t total_generated() const { return seen_.size(); }

  /// Checkpoint support (recover/): the live candidates in internal heap
  /// order. pop_min's output sequence depends only on the comparator (a total
  /// order), so any valid heap over the same multiset replays identically.
  const std::vector<Candidate>& pending() const { return heap_; }
  /// Every vertex sequence ever inserted, sorted (PathLess) so checkpoint
  /// images are deterministic.
  std::vector<Path> seen_paths() const;
  /// Replaces the current contents from a checkpoint: `pending` becomes the
  /// heap (re-heapified), `seen` the dedup set. `seen` must cover `pending`.
  void restore(std::vector<Candidate> pending, std::vector<Path> seen);

 private:
  struct Greater {
    bool operator()(const Candidate& a, const Candidate& b) const {
      return PathLess{}(b.path, a.path);
    }
  };
  std::vector<Candidate> heap_;  // std::*_heap with Greater (min-heap)
  std::unordered_set<Path, PathHash> seen_;
};

/// Statistics every KSP run reports — used by benches and the ablation study.
struct KspStats {
  int sssp_calls = 0;         // full restricted-SSSP computations
  int tree_shortcuts = 0;     // candidates served by a reverse-tree lookup
  int candidates_generated = 0;
  size_t trees_stored = 0;    // SB/SB*: reverse trees kept alive (memory)
};

struct KspResult {
  std::vector<Path> paths;  // at most K, sorted by (dist, lexicographic)
  KspStats stats;
  /// kOk, or kCancelled/kDeadlineExceeded when a CancelToken stopped the run
  /// mid-flight. On a non-kOk status `paths` still holds the exact top-J
  /// shortest paths for some J < K (rounds are only abandoned BEFORE the
  /// pop that would accept a path built from incomplete deviations).
  fault::Status::Code status = fault::Status::kOk;
};

struct KspOptions {
  int k = 8;
  /// The outer level of §6.1's two-level parallel strategy, run by the
  /// deviation engine (ksp/yen_engine): a round's deviations run
  /// concurrently, each a serial Dijkstra in its worker's workspace. The
  /// paper's inner level (Δ-stepping inside each deviation) is not kept
  /// (DESIGN.md §3). Serial algorithms, NC included, ignore it.
  bool parallel = false;
  /// Cooperative cancellation: checked at round boundaries and threaded into
  /// every deviation SSSP. Null = never cancelled.
  const fault::CancelToken* cancel = nullptr;
};

}  // namespace peek::ksp
