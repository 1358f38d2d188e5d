// Seeded violations for tools/peek_analyze.py, check `cancel`, against the
// search core's entry points (sssp::DijkstraWorkspace::run / settle_next).
// NOT compiled — tests/test_peek_analyze.py points the analyzer at this tree.
#include "sssp/dijkstra.hpp"

namespace fixture {

// VIOLATION: one full search per source, none of them cancellable.
void all_sources(const peek::sssp::GraphView& view,
                 peek::sssp::DijkstraWorkspace& ws) {
  for (peek::vid_t s = 0; s < view.num_vertices(); ++s) {
    ws.start(view, s, {});
    ws.run(view, {});
  }
}

// VIOLATION: a hand-stepped search whose poll never sees a token.
void stepped(const peek::sssp::GraphView& view,
             peek::sssp::DijkstraWorkspace& ws, peek::fault::CancelPoll& p,
             peek::weight_t budget) {
  while (ws.next_key() < budget) {
    if (ws.settle_next(view, {}, p) == peek::kNoVertex) break;
  }
}

// OK: the token is forwarded into every run.
void all_sources_cancellable(const peek::sssp::GraphView& view,
                             peek::sssp::DijkstraWorkspace& ws,
                             const peek::fault::CancelToken* cancel) {
  for (peek::vid_t s = 0; s < view.num_vertices(); ++s) {
    peek::sssp::DijkstraOptions opts;
    opts.cancel = cancel;
    ws.start(view, s, {});
    ws.run(view, opts);
  }
}

}  // namespace fixture
