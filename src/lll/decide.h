// The iteration method and satisfiability decision for the low-level
// language (Appendix C Sections 4.2 and 4.4).
//
// A graph path describes a computation; a formula is satisfiable iff there
// is an infinite path from the initial node, with non-contradictory
// propositional parts, on which every eventuality is eventually satisfied
// (eventualities are transformed along each edge by its node relation and
// are discharged on an edge listing them as satisfied).  Finite
// computations are paths reaching END, after which the computation is
// unconstrained — realized here by giving END an unconstrained self-loop
// before iterating.
//
// The iteration repeatedly deletes: edges with contradictory propositional
// parts, edges carrying an unsatisfiable eventuality, and nodes with no
// remaining outgoing edges.  The formula is satisfiable iff the initial
// node survives.  The graph substrate (lll/graph.h) already hands every
// basis-subset node to us as a dense pool id and every eventuality/relation
// payload as an interned sorted span, so the deletion loop and the
// eventuality chain search run directly on the built graph — no per-decision
// re-indexing pass.
#pragma once

#include <cstddef>

#include "lll/graph.h"

namespace il::lll {

struct DecisionStats {
  bool satisfiable = false;
  std::size_t nodes = 0;          ///< graph nodes before iteration
  std::size_t edges = 0;          ///< graph edges before iteration
  std::size_t alive_nodes = 0;    ///< nodes surviving the iteration
  std::size_t alive_edges = 0;
  std::size_t iterations = 0;     ///< passes of the deletion loop

  // Builder-side counters, copied from GraphBuilder::iter_stats() by
  // decide(); zero when the caller built the graph itself.
  std::size_t prefix_hits = 0;  ///< prefix-product accumulator reuse
  std::size_t prefix_misses = 0;
};

/// Runs the iteration method on a built graph (mutates alive flags).
DecisionStats iterate_graph(Graph& g);

/// Builds the graph for `expr` and decides satisfiability.
DecisionStats decide(ExprId expr);

/// Convenience: just the verdict.
bool lll_satisfiable(ExprId expr);

}  // namespace il::lll
