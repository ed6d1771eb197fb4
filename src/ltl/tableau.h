// The tableau decision procedure for propositional temporal logic
// (Appendix B, Section 3).
//
// Given formula A, we decide validity by negating A and constructing a graph
// Graph(!A) representing the set of models of !A:
//
//   * Nodes are fully expanded, propositionally consistent sets of formulas
//     ("states"); a node's label is the set of formulas true in that state.
//   * Edges carry the conjunction of literals that must hold in the source
//     state, plus the eventualities deferred by that expansion (temporal
//     formulas that must be satisfied later on any model following the edge).
//   * Iter(G) repeatedly deletes: edges labeled with an eventuality that can
//     no longer be satisfied (no path from the edge's terminal node to a
//     node whose label contains it), and nodes with no outgoing edges.
//
// A is valid iff every initial node of Graph(!A) is deleted by the
// iteration; !A is satisfiable iff one survives.
//
// Everything here is integer work over the arena's hash-consed ids: labels,
// literal conjunctions, and eventuality sets are sorted id vectors; literal
// contradiction is an O(1) complement-field read; and the per-eventuality
// reachability of Iter is one backward sweep over the alive graph per pass
// rather than a search per edge.  The tableau only *reads* the arena (the
// formula must already be in NNF and all literals exist with both
// polarities), which is what allows engine decision workers to build
// tableaux for formulas from one shared arena concurrently.
//
// Algorithm A (theory combination) plugs in as a pre-pass that deletes every
// edge whose literal conjunction is unsatisfiable in the specialized theory;
// the hook is the `lits_sat` callback.  Algorithm B reuses the same graph
// but replaces boolean deletion by condition fixpoints (see theory/).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ltl/formula.h"

namespace il::ltl {

struct TableauNode {
  std::vector<Id> label;  ///< fully expanded formula set (sorted)
  std::vector<int> out;   ///< edge indices
  std::vector<int> in;    ///< edge indices
  bool alive = true;
};

struct TableauEdge {
  int from = -1;
  int to = -1;
  std::vector<Id> lits;  ///< Atom/NegAtom ids; the edge's literal conjunction
  std::vector<Id> evs;   ///< deferred eventualities (operand formula ids)
  bool alive = true;
};

class Tableau {
 public:
  /// Builds Graph(formula) — callers wanting validity of A pass nnf(!A).
  /// The formula must be in NNF.  The arena is only read.
  Tableau(const Arena& arena, Id formula);

  /// Optional theory pre-pass (Algorithm A): kills edges whose literal
  /// conjunction the callback rejects.  Call before iterate().
  void prune_edges(const std::function<bool(const std::vector<Id>&)>& lits_sat);

  /// The Iter deletion loop.  Returns true if some initial node survives
  /// (i.e. the formula is satisfiable, modulo any theory pre-pass).
  ///
  /// Each pass runs the per-eventuality backward sweeps against the
  /// pass-start alive state and applies the kill lists in eventuality
  /// order.  Deletions are monotone, so the fixpoint — and every alive flag
  /// at return — is identical to the one-sweep-at-a-time schedule.
  bool iterate();

  /// Extracts an ultimately periodic model (prefix + loop of literal
  /// conjunctions) from the surviving graph.  Requires iterate() returned
  /// true.  Every eventuality along the lasso is satisfied.
  struct Lasso {
    std::vector<std::vector<Id>> prefix;  ///< literal conjunction per state
    std::vector<std::vector<Id>> loop;    ///< non-empty
  };
  std::optional<Lasso> extract_model() const;

  // --- introspection (benchmarks E1/E9 report these) ---
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edges_.size(); }
  std::size_t alive_node_count() const;
  std::size_t alive_edge_count() const;
  const std::vector<TableauNode>& nodes() const { return nodes_; }
  const std::vector<TableauEdge>& edges() const { return edges_; }
  const std::vector<int>& initial_nodes() const { return initial_; }
  const Arena& arena() const { return arena_; }

 private:
  struct Expansion {
    std::vector<Id> label;
    std::vector<Id> lits;
    std::vector<Id> next;
    std::vector<Id> evs;
  };

  /// Node identity: the (label, next-set, eventualities) triple.
  struct NodeSig {
    std::vector<Id> label;
    std::vector<Id> next;
    std::vector<Id> evs;

    bool operator==(const NodeSig& o) const {
      return label == o.label && next == o.next && evs == o.evs;
    }
  };
  struct NodeSigHash {
    std::size_t operator()(const NodeSig& s) const;
  };
  struct IdVecHash {
    std::size_t operator()(const std::vector<Id>& v) const;
  };

  /// All full expansions of a start set (the alpha/beta saturation).
  std::vector<Expansion> expand(const std::vector<Id>& start) const;

  int intern_node(const Expansion& e, const std::vector<Id>& next_key);

  const Arena& arena_;
  std::vector<TableauNode> nodes_;
  std::vector<TableauEdge> edges_;
  std::vector<int> initial_;
  std::unordered_map<NodeSig, int, NodeSigHash> node_index_;
};

/// Convenience: satisfiability of an arbitrary (non-NNF) formula.
bool satisfiable(Arena& arena, Id formula);

/// Convenience: validity of an arbitrary formula (tableau on its negation).
bool valid(Arena& arena, Id formula);

}  // namespace il::ltl
