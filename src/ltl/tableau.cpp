#include "ltl/tableau.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "util/assert.h"
#include "util/hash.h"

namespace il::ltl {
namespace {

std::vector<Id> sorted_unique(std::vector<Id> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

std::size_t hash_id_vec(std::size_t seed, const std::vector<Id>& v) {
  hash_combine(seed, v.size());
  for (Id x : v) hash_combine(seed, static_cast<std::uint32_t>(x));
  return seed;
}

/// A sorted-unique id vector with set semantics: cheap to copy when a
/// disjunctive expansion forks a branch (vectors beat node-based sets for
/// the handful of elements a branch holds).
struct IdSet {
  std::vector<Id> v;

  bool insert(Id x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it != v.end() && *it == x) return false;
    v.insert(it, x);
    return true;
  }
  bool contains(Id x) const { return std::binary_search(v.begin(), v.end(), x); }
};

}  // namespace

std::size_t Tableau::IdVecHash::operator()(const std::vector<Id>& v) const {
  return hash_id_vec(0x51ed2701u, v);
}

std::size_t Tableau::NodeSigHash::operator()(const NodeSig& s) const {
  std::size_t seed = hash_id_vec(0x8f1bbcdcu, s.label);
  seed = hash_id_vec(seed, s.next);
  return hash_id_vec(seed, s.evs);
}

Tableau::Tableau(const Arena& arena, Id formula) : arena_(arena) {
  // BFS over start sets; cache expansions per start set so distinct nodes
  // sharing a next-set reuse the work.
  std::unordered_map<std::vector<Id>, std::vector<int>, IdVecHash> expansion_cache;

  // Nodes whose outgoing edges are not yet built, in creation (FIFO) order.
  struct PendingNode {
    int node;
    std::vector<Id> lits;
    std::vector<Id> evs;
    std::vector<Id> next;
  };
  std::vector<PendingNode> pending;

  // Expands `start`, interns the expansions in expansion order, and queues
  // each newly minted node for edge creation.  Node ids depend on the order
  // this runs.
  auto intern_all = [&](const std::vector<Id>& start) -> const std::vector<int>& {
    std::vector<int> ids;
    for (const Expansion& e : expand(start)) {
      const std::size_t before = nodes_.size();
      const int node = intern_node(e, e.next);
      ids.push_back(node);
      if (nodes_.size() > before) pending.push_back({node, e.lits, e.evs, e.next});
    }
    return expansion_cache.emplace(start, std::move(ids)).first->second;
  };

  // Seed with the formula itself.
  for (int n : intern_all({formula})) initial_.push_back(n);

  // Create edges: each node's successors are the expansions of its next set.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingNode p = std::move(pending[i]);  // intern_all may reallocate `pending`
    auto it = expansion_cache.find(p.next);
    const std::vector<int>& succs = it != expansion_cache.end() ? it->second : intern_all(p.next);
    for (int s : succs) {
      TableauEdge e;
      e.from = p.node;
      e.to = s;
      e.lits = p.lits;
      e.evs = p.evs;
      const int edge_idx = static_cast<int>(edges_.size());
      edges_.push_back(std::move(e));
      nodes_[p.node].out.push_back(edge_idx);
      nodes_[s].in.push_back(edge_idx);
    }
  }
}

int Tableau::intern_node(const Expansion& e, const std::vector<Id>& next_key) {
  NodeSig key{e.label, next_key, e.evs};
  auto it = node_index_.find(key);
  if (it != node_index_.end()) return it->second;
  TableauNode n;
  n.label = e.label;
  nodes_.push_back(std::move(n));
  const int id = static_cast<int>(nodes_.size() - 1);
  node_index_.emplace(std::move(key), id);
  return id;
}

std::vector<Tableau::Expansion> Tableau::expand(const std::vector<Id>& start) const {
  std::vector<Expansion> out;

  struct Branch {
    std::vector<Id> todo;
    IdSet seen;   // every formula added (becomes the label)
    IdSet lits;   // literal subset of seen
    IdSet next;
    IdSet evs;
  };

  std::deque<Branch> branches;
  Branch root;
  root.todo = start;
  for (Id f : start) root.seen.insert(f);
  branches.push_back(std::move(root));

  while (!branches.empty()) {
    Branch br = std::move(branches.front());
    branches.pop_front();

    bool contradicted = false;
    while (!br.todo.empty() && !contradicted) {
      const Id f = br.todo.back();
      br.todo.pop_back();
      const Node& n = arena_.node(f);
      auto push = [&](Id g) {
        if (br.seen.insert(g)) br.todo.push_back(g);
      };
      switch (n.kind) {
        case Kind::True:
          break;
        case Kind::False:
          contradicted = true;
          break;
        case Kind::Atom:
        case Kind::NegAtom:
          // The complementary literal is a field read on the interned node.
          if (br.lits.contains(n.complement)) {
            contradicted = true;
          } else {
            br.lits.insert(f);
          }
          break;
        case Kind::And:
          push(n.a);
          push(n.b);
          break;
        case Kind::Or: {
          Branch other = br;
          // this branch takes n.a, the clone takes n.b
          if (other.seen.insert(n.b)) other.todo.push_back(n.b);
          branches.push_back(std::move(other));
          push(n.a);
          break;
        }
        case Kind::Next:
          br.next.insert(n.a);
          break;
        case Kind::Always:
          push(n.a);
          br.next.insert(f);  // o []a
          break;
        case Kind::Eventually: {
          Branch defer = br;
          defer.next.insert(f);      // o <>a
          defer.evs.insert(n.a);     // must be satisfied down the line
          branches.push_back(std::move(defer));
          push(n.a);                 // the "now" branch
          break;
        }
        case Kind::Until: {
          // U(p,q) = q \/ (p /\ o U(p,q)); weak: no eventuality.
          Branch defer = br;
          if (defer.seen.insert(n.a)) defer.todo.push_back(n.a);
          defer.next.insert(f);
          branches.push_back(std::move(defer));
          push(n.b);  // the "q now" branch
          break;
        }
        case Kind::StrongUntil: {
          Branch defer = br;
          if (defer.seen.insert(n.a)) defer.todo.push_back(n.a);
          defer.next.insert(f);
          defer.evs.insert(n.b);
          branches.push_back(std::move(defer));
          push(n.b);
          break;
        }
        case Kind::Not:
        case Kind::Implies:
          IL_REQUIRE(false, "tableau requires NNF input (Not/Implies found)");
      }
    }
    if (contradicted) continue;

    Expansion e;
    e.label = std::move(br.seen.v);    // already sorted-unique
    e.lits = std::move(br.lits.v);
    e.next = std::move(br.next.v);
    e.evs = std::move(br.evs.v);
    out.push_back(std::move(e));
  }

  // Deduplicate identical expansions (different branch orders can coincide).
  std::sort(out.begin(), out.end(), [](const Expansion& a, const Expansion& b) {
    return std::tie(a.label, a.next, a.evs) < std::tie(b.label, b.next, b.evs);
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Expansion& a, const Expansion& b) {
                          return a.label == b.label && a.next == b.next && a.evs == b.evs;
                        }),
            out.end());
  return out;
}

void Tableau::prune_edges(const std::function<bool(const std::vector<Id>&)>& lits_sat) {
  for (TableauEdge& e : edges_) {
    if (e.alive && !lits_sat(e.lits)) e.alive = false;
  }
}

bool Tableau::iterate() {
  // Distinct eventualities appearing on any edge.
  std::vector<Id> all_evs;
  for (const TableauEdge& e : edges_) all_evs.insert(all_evs.end(), e.evs.begin(), e.evs.end());
  all_evs = sorted_unique(std::move(all_evs));

  // One backward sweep per eventuality per pass: mark every alive node from
  // which a node whose label contains `ev` is alive-reachable, then delete
  // all edges whose eventuality is unmarked at their terminal node.  Each
  // pass runs every sweep against the pass-start alive state and applies
  // the kill lists afterwards in eventuality order.  The deletions are
  // monotone, so batching them per pass converges to the same fixpoint as
  // deleting one edge at a time.
  auto sweep_kills = [&](Id ev) {
    std::vector<char> marked(nodes_.size(), 0);
    std::vector<int> stack;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i].alive) continue;
      const auto& label = nodes_[i].label;
      if (std::binary_search(label.begin(), label.end(), ev)) {
        marked[i] = 1;
        stack.push_back(static_cast<int>(i));
      }
    }
    while (!stack.empty()) {
      const int n = stack.back();
      stack.pop_back();
      for (int eidx : nodes_[n].in) {
        const TableauEdge& e = edges_[eidx];
        if (!e.alive || !nodes_[e.from].alive || marked[e.from]) continue;
        marked[e.from] = 1;
        stack.push_back(e.from);
      }
    }
    std::vector<int> kills;
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const TableauEdge& e = edges_[i];
      if (!e.alive || marked[e.to]) continue;
      if (std::binary_search(e.evs.begin(), e.evs.end(), ev)) {
        kills.push_back(static_cast<int>(i));
      }
    }
    return kills;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    // Delete edges with a dead endpoint.
    for (TableauEdge& e : edges_) {
      if (e.alive && (!nodes_[e.from].alive || !nodes_[e.to].alive)) {
        e.alive = false;
        changed = true;
      }
    }
    // Sweep the eventualities still carried by some alive edge.
    std::vector<Id> active;
    for (Id ev : all_evs) {
      for (const TableauEdge& e : edges_) {
        if (e.alive && std::binary_search(e.evs.begin(), e.evs.end(), ev)) {
          active.push_back(ev);
          break;
        }
      }
    }
    std::vector<std::vector<int>> kills;
    for (Id ev : active) kills.push_back(sweep_kills(ev));
    for (const std::vector<int>& kl : kills) {
      for (int eidx : kl) {
        if (edges_[eidx].alive) {
          edges_[eidx].alive = false;
          changed = true;
        }
      }
    }
    // Delete nodes with no outgoing alive edges.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      TableauNode& n = nodes_[i];
      if (!n.alive) continue;
      bool has_out = false;
      for (int eidx : n.out) {
        if (edges_[eidx].alive) {
          has_out = true;
          break;
        }
      }
      if (!has_out) {
        n.alive = false;
        changed = true;
      }
    }
  }
  for (int n : initial_) {
    if (nodes_[n].alive) return true;
  }
  return false;
}

std::size_t Tableau::alive_node_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_) c += n.alive ? 1 : 0;
  return c;
}

std::size_t Tableau::alive_edge_count() const {
  std::size_t c = 0;
  for (const auto& e : edges_) c += e.alive ? 1 : 0;
  return c;
}

std::optional<Tableau::Lasso> Tableau::extract_model() const {
  // Find a surviving initial node.
  int start = -1;
  for (int n : initial_) {
    if (nodes_[n].alive) {
      start = n;
      break;
    }
  }
  if (start < 0) return std::nullopt;

  // Walk the surviving graph.  Pending eventualities are honored by steering
  // toward a node whose label contains the front of the queue (such a node
  // is always alive-reachable, or the edge carrying the eventuality would
  // have been deleted).  A visited (node, pending) pair closes the loop.
  struct StepState {
    int node;
    std::vector<Id> pending;
    bool operator<(const StepState& o) const {
      return std::tie(node, pending) < std::tie(o.node, o.pending);
    }
  };

  std::vector<std::vector<Id>> word;
  std::map<StepState, std::size_t> seen;  // state -> index in word
  StepState cur{start, {}};

  const std::size_t cap = 4 * (nodes_.size() + 2) * (nodes_.size() + 2) + 64;
  while (word.size() < cap) {
    // Discharge satisfied eventualities.
    auto& label = nodes_[cur.node].label;
    cur.pending.erase(std::remove_if(cur.pending.begin(), cur.pending.end(),
                                     [&](Id ev) {
                                       return std::binary_search(label.begin(), label.end(), ev);
                                     }),
                      cur.pending.end());

    auto it = seen.find(cur);
    if (it != seen.end() && cur.pending.empty()) {
      // Loop closed with no obligations outstanding.
      Lasso lasso;
      lasso.prefix.assign(word.begin(), word.begin() + static_cast<std::ptrdiff_t>(it->second));
      lasso.loop.assign(word.begin() + static_cast<std::ptrdiff_t>(it->second), word.end());
      if (lasso.loop.empty()) return std::nullopt;  // defensive; cannot happen
      return lasso;
    }
    if (it == seen.end()) seen.emplace(cur, word.size());

    // Choose the outgoing edge: if an eventuality is pending, pick the edge
    // on a shortest alive path toward a node whose label contains it;
    // otherwise any alive edge.
    int chosen = -1;
    if (!cur.pending.empty()) {
      const Id goal = cur.pending.front();
      // BFS over alive edges recording the first edge of the path.
      std::map<int, int> first_edge;  // node -> edge index taken from cur
      std::deque<int> q{cur.node};
      std::set<int> visited{cur.node};
      int found_edge = -1;
      while (!q.empty() && found_edge < 0) {
        const int n = q.front();
        q.pop_front();
        for (int eidx : nodes_[n].out) {
          const TableauEdge& e = edges_[eidx];
          if (!e.alive || !nodes_[e.to].alive) continue;
          if (!visited.insert(e.to).second) continue;
          const int fe = (n == cur.node) ? eidx : first_edge[n];
          first_edge[e.to] = fe;
          const auto& l = nodes_[e.to].label;
          if (std::binary_search(l.begin(), l.end(), goal)) {
            found_edge = fe;
            break;
          }
          q.push_back(e.to);
        }
      }
      chosen = found_edge;
    }
    if (chosen < 0) {
      for (int eidx : nodes_[cur.node].out) {
        const TableauEdge& e = edges_[eidx];
        if (e.alive && nodes_[e.to].alive) {
          chosen = eidx;
          break;
        }
      }
    }
    if (chosen < 0) return std::nullopt;  // dead end (cannot happen post-iterate)

    const TableauEdge& e = edges_[chosen];
    word.push_back(e.lits);
    for (Id ev : e.evs) cur.pending.push_back(ev);
    cur.pending = sorted_unique(std::move(cur.pending));
    cur.node = e.to;
  }
  return std::nullopt;  // cap exceeded (defensive)
}

bool satisfiable(Arena& arena, Id formula) {
  Tableau t(arena, arena.nnf(formula));
  return t.iterate();
}

bool valid(Arena& arena, Id formula) {
  Tableau t(arena, arena.nnf(arena.mk_not(formula)));
  return !t.iterate();
}

}  // namespace il::ltl
