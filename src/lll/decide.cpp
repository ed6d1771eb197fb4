#include "lll/decide.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/assert.h"

namespace il::lll {
namespace {

/// Can eventuality `ev` (as labeled on edge `start`) be satisfied?  Searches
/// chains e_i, e_{i+1}, ... where the eventuality is transformed by each
/// edge's node relation and discharged by membership in some se(e_j).  The
/// primitive is constant along a chain, so the visited set is (edge, node).
/// Everything is already dense: edges carry interned payload-span ids and
/// nodes are pool ids, so the search is pure integer work on sorted spans.
bool eventuality_satisfiable(const Graph& g, const std::vector<std::vector<std::size_t>>& out_edges,
                             const std::vector<char>& edge_alive, std::size_t start, const Ev& ev) {
  const NodePool& pool = *g.pool;
  const std::int32_t prim = ev.first;
  std::unordered_set<std::uint64_t> visited;
  std::vector<std::pair<std::size_t, NodeId>> stack{{start, ev.second}};
  while (!stack.empty()) {
    auto [eidx, cur] = stack.back();
    stack.pop_back();
    if (!edge_alive[eidx]) continue;
    const std::uint64_t key = (static_cast<std::uint64_t>(eidx) << 32) | cur;
    if (!visited.insert(key).second) continue;
    const GEdge& e = g.edges[eidx];
    const Span<Ev> ses = pool.evs(e.ses);
    if (std::binary_search(ses.begin(), ses.end(), Ev{prim, cur})) return true;
    // Transform through this edge's node relation and step to successors.
    const Span<Rel> rel = pool.rels(e.rel);
    auto lo = std::lower_bound(rel.begin(), rel.end(), Rel{cur, 0});
    for (auto it = lo; it != rel.end() && it->first == cur; ++it) {
      for (std::size_t succ : out_edges[e.to]) {
        if (edge_alive[succ]) stack.push_back({succ, it->second});
      }
    }
  }
  return false;
}

}  // namespace

DecisionStats iterate_graph(Graph& g) {
  IL_REQUIRE(g.pool != nullptr, "iterate_graph needs a pool-backed graph");
  DecisionStats stats;
  stats.nodes = g.node_count();
  stats.edges = g.edge_count();

  // END is accepting: a finite constraint may be followed by anything.
  if (g.has_end) {
    GEdge loop;  // from == to == END, empty payloads
    g.edges.push_back(std::move(loop));
  }

  // The substrate already indexes everything: node ids are pool-dense, edge
  // payloads are interned sorted spans.  Build only the per-node out-edge
  // lists (the one piece of derived state the fixpoint needs).
  const std::size_t n_ids = g.pool->node_count();
  std::vector<std::vector<std::size_t>> out_edges(n_ids);
  for (std::size_t i = 0; i < g.edges.size(); ++i) out_edges[g.edges[i].from].push_back(i);

  std::vector<char> edge_alive(g.edges.size(), 1);
  std::vector<char> node_dead(n_ids, 0);

  // Immediately kill contradictory edges.
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (g.pool->prop_contradictory(g.edges[i].prop)) edge_alive[i] = 0;
  }

  for (bool changed = true; changed;) {
    changed = false;
    ++stats.iterations;
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      if (!edge_alive[i]) continue;
      const GEdge& e = g.edges[i];
      if (node_dead[e.from] || node_dead[e.to]) {
        edge_alive[i] = 0;
        changed = true;
        continue;
      }
      for (const Ev& ev : g.pool->evs(e.evs)) {
        if (!eventuality_satisfiable(g, out_edges, edge_alive, i, ev)) {
          edge_alive[i] = 0;
          changed = true;
          break;
        }
      }
    }
    // Nodes with no alive outgoing edges die (END has its self-loop).
    for (NodeId n : g.nodes) {
      if (node_dead[n]) continue;
      bool has_out = false;
      for (std::size_t eidx : out_edges[n]) {
        if (edge_alive[eidx]) {
          has_out = true;
          break;
        }
      }
      if (!has_out) {
        node_dead[n] = 1;
        changed = true;
      }
    }
  }

  // Write the verdict back onto the caller's graph (alive flags are part of
  // the Graph interface) and collect the stats.
  for (std::size_t i = 0; i < g.edges.size(); ++i) g.edges[i].alive = edge_alive[i] != 0;
  for (NodeId n : g.nodes) {
    if (!node_dead[n]) ++stats.alive_nodes;
  }
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (edge_alive[i]) ++stats.alive_edges;
  }
  stats.satisfiable = !node_dead[g.init];
  return stats;
}

DecisionStats decide(ExprId expr) {
  GraphBuilder builder;
  Graph g = builder.build(expr);
  DecisionStats stats = iterate_graph(g);
  stats.prefix_hits = builder.iter_stats().prefix_hits;
  stats.prefix_misses = builder.iter_stats().prefix_misses;
  return stats;
}

bool lll_satisfiable(ExprId expr) { return decide(expr).satisfiable; }

}  // namespace il::lll
