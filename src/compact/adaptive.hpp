// Adaptive compaction selection (§5.4): pick regeneration when the remaining
// graph is a small fraction of the original (m_r < α·m), edge-swap otherwise.
#pragma once

#include "compact/regeneration.hpp"

namespace peek::compact {

enum class Strategy {
  kEdgeSwap,
  kRegeneration,
  kStatusArray,  // baseline, never chosen adaptively
};

const char* to_string(Strategy s);

struct AdaptiveOptions {
  /// The α trade-off coefficient; heavier downstream work → larger α (the
  /// paper suggests e.g. 0.6 for heavy workloads).
  double alpha = 0.5;
  bool parallel = true;
};

/// The §5.4 rule: m_remaining < alpha * m_original → regeneration.
Strategy choose_strategy(eid_t m_remaining, eid_t m_original, double alpha);

/// Result of an adaptive compaction round. Exactly one representation is
/// populated, matching `strategy`.
struct CompactionResult {
  Strategy strategy = Strategy::kEdgeSwap;
  /// Set when strategy == kRegeneration.
  RegeneratedGraph regenerated;
  /// Set when strategy == kEdgeSwap (views into the caller's MutableCsr).
  BiView swapped;
  eid_t remaining_edges = 0;
};

/// Counts the edges that would survive (`vertex_keep` + `keep`) over `view`,
/// in parallel — the m_r estimate driving the adaptive choice. `kept` lists
/// the vertices `vertex_keep` marks (nullable = all alive vertices) in
/// increasing id order, e.g. core::PruneResult::kept_list; only their
/// out-edges are read.
eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            std::span<const vid_t> kept,
                            const EdgeKeep& keep = nullptr,
                            bool parallel = true);

/// The same, listing the kept vertices first (compact::kept_vertices).
eid_t count_remaining_edges(const GraphView& view,
                            const std::uint8_t* vertex_keep,
                            const EdgeKeep& keep = nullptr,
                            bool parallel = true);

/// Applies the adaptive rule to `g` (whose MutableCsr the caller owns so the
/// edge-swap result stays valid). On kRegeneration the MutableCsr is left
/// untouched.
CompactionResult adaptive_compact(MutableCsr& g, eid_t m_original,
                                  const std::uint8_t* vertex_keep,
                                  const EdgeKeep& keep = nullptr,
                                  const AdaptiveOptions& opts = {});

}  // namespace peek::compact
