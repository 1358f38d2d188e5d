// Umbrella header: the whole public API in one include.
//
//   #include "peek.hpp"
//   auto g = peek::graph::rmat(14, 8);
//   auto r = peek::core::peek_ksp(g, s, t, {.k = 8, .parallel = true});
//
// Fine-grained headers remain available for faster builds; this is the
// convenience entry point for applications.
#pragma once

// Fault model: typed statuses, cooperative cancellation, fault injection.
#include "fault/cancel.hpp"    // IWYU pragma: export
#include "fault/injector.hpp"  // IWYU pragma: export
#include "fault/status.hpp"    // IWYU pragma: export

// Graph substrate.
#include "graph/builder.hpp"     // IWYU pragma: export
#include "graph/csr.hpp"         // IWYU pragma: export
#include "graph/generators.hpp"  // IWYU pragma: export
#include "graph/io.hpp"          // IWYU pragma: export
#include "graph/scc.hpp"         // IWYU pragma: export
#include "graph/stats.hpp"       // IWYU pragma: export

// Shortest-path kernels.
#include "sssp/alt.hpp"                 // IWYU pragma: export
#include "sssp/bellman_ford.hpp"        // IWYU pragma: export
#include "sssp/delta_stepping.hpp"      // IWYU pragma: export
#include "sssp/dijkstra.hpp"            // IWYU pragma: export
#include "sssp/hop_limited.hpp"         // IWYU pragma: export
#include "sssp/path.hpp"                // IWYU pragma: export

// Compaction.
#include "compact/adaptive.hpp"      // IWYU pragma: export
#include "compact/status_array.hpp"  // IWYU pragma: export

// KSP algorithms.
#include "ksp/bruteforce.hpp"           // IWYU pragma: export
#include "ksp/hop_limited.hpp"          // IWYU pragma: export
#include "ksp/node_classification.hpp"  // IWYU pragma: export
#include "ksp/optyen.hpp"               // IWYU pragma: export
#include "ksp/pnc.hpp"                  // IWYU pragma: export
#include "ksp/sidetrack.hpp"            // IWYU pragma: export
#include "ksp/stream.hpp"               // IWYU pragma: export
#include "ksp/yen.hpp"                  // IWYU pragma: export

// PeeK.
#include "core/batch.hpp"             // IWYU pragma: export
#include "core/diverse.hpp"           // IWYU pragma: export
#include "core/peek.hpp"              // IWYU pragma: export
#include "core/shortest_k_group.hpp"  // IWYU pragma: export
#include "core/upper_bound.hpp"       // IWYU pragma: export

// Dynamic-graph comparator and the distributed runtime.
#include "dist/dist_peek.hpp"    // IWYU pragma: export
#include "dist/retry.hpp"        // IWYU pragma: export
#include "dyn/dynamic_graph.hpp" // IWYU pragma: export
#include "dyn/dynamic_sssp.hpp"  // IWYU pragma: export

// Query serving.
#include "serve/query_engine.hpp"  // IWYU pragma: export
