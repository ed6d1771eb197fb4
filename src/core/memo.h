// Subformula memoization for interval-logic evaluation.
//
// Evaluating [] / <> over an interval re-evaluates the body at every start
// position, and nested interval formulas re-run the F interval-construction
// search from each of those positions; the same (node, interval, bindings)
// queries therefore recur many times within one check.  An EvalCache
// remembers those results.  Keys are fully packed integers:
//
//   - the AST node by hash-cons id (core/intern.h) — structurally identical
//     subformulas built anywhere in the process share entries,
//   - the trace by Trace::id() (caches outlive a single Evaluator: the
//     engine keeps one per worker thread across a whole batch, and the id
//     changes whenever a trace is mutated),
//   - the evaluation interval, search direction, and the meta-variable
//     bindings the node can observe, as a short (meta id, value) span.
//
// The table is insert-only open addressing (linear probing, power-of-two
// capacity): no buckets, no per-entry allocation, and lookups touch one
// cache line in the common case.  Because keys capture every input of the
// memoized functions exactly, cached evaluation is bit-identical to uncached
// evaluation; tests assert this across all case-study specifications.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace il {

class Env;

class EvalCache {
 public:
  /// What a key's node/interval meant when the entry was stored.
  enum class Op : std::uint8_t { Sat, FindFwd, FindBwd };

  /// Meta-variable bindings a key carries inline.  Keys are restricted to
  /// the node's *free* metas first (restrict_env_span), which in practice
  /// leaves a handful.  An EvalCache query observing more bindings than
  /// this is evaluated uncached (counted in env_overflows()); an obligation
  /// key spills them into its graph's span table (ObligationGraph::Key).
  static constexpr std::size_t kMaxEnv = 4;

  struct Key {
    std::uint32_t node = 0;   ///< hash-cons node id (Formula or Term)
    Op op = Op::Sat;
    std::uint8_t n_env = 0;   ///< bindings in use
    std::uint64_t trace = 0;  ///< Trace::id()
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::uint32_t metas[kMaxEnv] = {0, 0, 0, 0};   ///< sorted meta ids
    std::int64_t values[kMaxEnv] = {0, 0, 0, 0};

    bool operator==(const Key& o) const {
      if (node != o.node || trace != o.trace || lo != o.lo || hi != o.hi || op != o.op ||
          n_env != o.n_env) {
        return false;
      }
      for (std::uint8_t i = 0; i < n_env; ++i) {
        if (metas[i] != o.metas[i] || values[i] != o.values[i]) return false;
      }
      return true;
    }
  };

  /// Cached result: a sat() boolean or a found interval, stored uniformly as
  /// (lo, hi, null) with `value` carrying the boolean for Op::Sat.
  struct Entry {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool null = true;
    bool value = false;
  };

  EvalCache();

  /// Returns the entry for `key`, or nullptr on a miss.  Hit/miss counters
  /// are updated either way.  The pointer is invalidated by the next store().
  const Entry* lookup(const Key& key);

  /// Stores `entry`; no-op once the soft capacity is reached (the cache
  /// never evicts — batch lifetimes are short and bounded).
  void store(const Key& key, const Entry& entry);

  void clear();

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t inserts() const { return inserts_; }
  std::size_t env_overflows() const { return env_overflows_; }
  std::size_t size() const { return count_; }

  /// Bytes held by the slot table (gauge; capacity, not load, since the
  /// table is what the allocator charges us for).
  std::size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Called by the evaluator when a node's observable bindings exceed
  /// kMaxEnv and the query bypasses the cache.
  void note_env_overflow() { ++env_overflows_; }

  /// Soft cap on stored entries; 0 means unlimited.
  void set_capacity(std::size_t cap) { capacity_ = cap; }

 private:
  struct Slot {
    Key key;
    Entry entry;
    bool used = false;
  };

  static std::size_t hash_key(const Key& k);
  std::size_t probe(const Key& key) const;  ///< slot index of key or first free
  void grow();

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;       ///< slots_.size() - 1 (power of two)
  std::size_t count_ = 0;
  std::size_t capacity_ = 1u << 22;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
  std::size_t env_overflows_ = 0;
};

// Slot tables hold millions of keys: the 64-bit trace id sits in the word
// after node/op/n_env, so a key stays 80 bytes.
static_assert(sizeof(EvalCache::Key) == 80, "EvalCache::Key is packed into 80 bytes");

/// Restricts the ambient bindings to a node's free metas (both sides sorted
/// by id: a linear merge) into an inline (meta, value) span of capacity
/// EvalCache::kMaxEnv, so cache/obligation keys are shared across bindings
/// the node never reads.  Returns false when the observable bindings
/// overflow the span: the memoizing evaluator (core/semantics.cpp) then
/// evaluates uncached, and ObligationGraph::key() spills them.
bool restrict_env_span(const std::vector<std::uint32_t>& metas, const Env& env,
                       std::uint8_t& n_env, std::uint32_t* metas_out,
                       std::int64_t* values_out);

// ---------------------------------------------------------------------------
// ObligationGraph: settled/open obligation states for incremental monitoring.
// ---------------------------------------------------------------------------

/// The obligation store behind the incremental monitor (core/incremental.h).
///
/// Where an EvalCache remembers *answers* — entries that are either valid or
/// evicted wholesale — an ObligationGraph remembers *questions in flight*
/// over one growing trace.  Each obligation is a suffix-sensitive query
/// (node id, <lo, inf>, op, restricted env) together with:
///
///   - its current result and whether that result is SETTLED (pinned forever:
///     no future append can change it) or OPEN (provisional, recomputed when
///     the trace grows),
///   - per-kind resume state, so re-settlement is a delta pass instead of a
///     re-evaluation: [] / <> keep a scan frontier plus the list of start
///     positions whose body verdict is still open; event searches keep the
///     end of their settled prefix (plus the rolling changeset probe there,
///     forward, or the best edge inside it, backward),
///   - explicit dependency edges from OPEN obligations to the child
///     obligations they read, reverse-indexed for invalidation.
///
/// When a state is appended, begin_epoch() runs the change-propagation
/// pass.  Every open obligation that reads the stuttering horizon is
/// registered once on a flat list of open readers — and swap-removed the
/// moment it settles or is freed.  Its sensitivity window is [key.lo, inf):
/// evaluation is over stuttering-extended traces, so the window never ends
/// and every later horizon falls inside it.  An epoch therefore walks the
/// whole list, O(touched), and the readers seed the reverse-dependency
/// dirty closure.  Settled obligations are firewalls — they are never
/// marked and the closure does not pass through them — which is exactly
/// how verdicts for closed intervals stay pinned while only the live suffix
/// re-settles.  Recomputation itself is lazy:
/// the evaluator re-settles a dirty obligation the next time a root verdict
/// needs it.
///
/// One rule reclaims records: a record stays resident while it is a root
/// (queried directly by a verdict) or an open record reads it.  Edges are
/// dropped as soon as no future recomputation can follow them — when the
/// reading record settles (on_settle: a settled record never recomputes,
/// so it never re-reads a child), when a recomputation starts and a child
/// has settled since (begin_recompute), and when an open event find
/// relocates and its previous body record is superseded
/// (unlink_superseded).  Each dropped edge makes its child a candidate,
/// and collect() — called once at the end of every verdict pass, when no
/// evaluation holds an ObId — frees each candidate left with no parent and
/// no root mark, cascading into the children it releases.  This reference
/// count is complete: an edge always runs from a node to a strict subterm
/// of it (the AST is hash-consed and finite), so the graph is acyclic and
/// every record no root can reach loses its last parent eventually — there
/// is nothing left for a tracing sweep to find.  Freed slots go straight
/// onto a free list for reuse.
///
/// Single-threaded by design: one graph belongs to one monitor over one
/// trace (a MonitorService fleet keeps one graph per monitor; see
/// engine/service.h).
class ObligationGraph {
 public:
  using ObId = std::uint32_t;
  static constexpr ObId kNoOb = 0xffffffffu;

  /// What question an obligation answers.
  enum class Op : std::uint8_t {
    Sat,       ///< s<lo,inf> |= node
    FindFwd,   ///< F(node, <lo,inf>, Forward)
    FindBwd,   ///< F(node, <lo,inf>, Backward)
    StarsFwd,  ///< star_requirements(node, <lo,inf>, Forward)
    StarsBwd,  ///< star_requirements(node, <lo,inf>, Backward)
  };

  /// Obligation identity, built by key().  The interval is always
  /// <lo, inf>: queries with a finite right end are settled by construction
  /// and live in the monitor's settled EvalCache instead (the trace never
  /// changes below its horizon).  Up to EvalCache::kMaxEnv observed bindings
  /// sit inline in metas/values.  A longer span is interned into the graph's
  /// span table: n_env then exceeds kMaxEnv, metas stay zero and values[0]
  /// holds the span's table id.  Every open-world query therefore has a key.
  struct Key {
    std::uint32_t node = 0;  ///< hash-cons node id (Formula or Term)
    std::uint64_t lo = 0;
    Op op = Op::Sat;
    std::uint8_t n_env = 0;  ///< observed bindings (> kMaxEnv: spilled)
    std::uint32_t metas[EvalCache::kMaxEnv] = {0, 0, 0, 0};
    std::int64_t values[EvalCache::kMaxEnv] = {0, 0, 0, 0};

    /// Entries of metas/values in use.
    std::size_t inline_len() const { return n_env > EvalCache::kMaxEnv ? 1 : n_env; }

    bool operator==(const Key& o) const {
      if (node != o.node || lo != o.lo || op != o.op || n_env != o.n_env) return false;
      for (std::size_t i = 0; i < inline_len(); ++i) {
        if (metas[i] != o.metas[i] || values[i] != o.values[i]) return false;
      }
      return true;
    }
  };

  struct Obligation {
    Key key;
    EvalCache::Entry result;  ///< boolean for Sat/Stars*, interval for Find*
    bool settled = false;     ///< pinned: no future append can change result
    bool dirty = true;        ///< must re-settle before result is reusable
    /// Index in the open-reader list, kNoOb if absent (maintained by the
    /// graph; placed here to fill padding after the two flags).
    ObId reader_pos = kNoOb;
    std::uint64_t epoch = 0;  ///< epoch the result was (re)computed at
    /// Trace horizon (last visible index) the result was computed at.  An
    /// open result is only reusable at the *same* horizon: a batched epoch
    /// (one begin_epoch() covering several appended states) evaluates the
    /// block's intermediate verdicts at increasing virtual horizons, and
    /// this field — not the dirty bit, which the single invalidation walk
    /// cleared block-wide — is what forces re-settlement between them.
    std::uint64_t horizon = 0;

    // Resume state for the delta pass (meaning depends on the node kind):
    std::uint64_t frontier = 0;  ///< next start position to scan ([], <>, event searches)
    bool have_prev = false;      ///< rolling probe below seeded? (forward search)
    bool prev = false;           ///< changeset probe value at frontier-1
    /// Kind-specific auxiliary interval: for a backward event search, the
    /// best (maximum) rising edge inside the settled prefix;
    /// for an interval-formula obligation, the lo of the body obligation
    /// the last recomputation attached (so a relocating find can unlink the
    /// superseded record).  Valid only while have_aux.
    std::uint64_t aux_lo = 0;
    std::uint64_t aux_hi = 0;
    bool have_aux = false;

    // Lifecycle (maintained by the graph, read-only to the evaluator):
    bool freed = false;    ///< slot is on the free list awaiting reuse
    bool is_root = false;  ///< queried directly by a verdict: never freed
    /// Start positions in [lo, frontier) whose body verdict was still OPEN
    /// at the last recomputation — whatever its current sign.  For [] these
    /// are mostly true-but-open conjuncts, plus possibly the false-but-open
    /// position a short-circuited scan stopped at; for <> dually.  Every
    /// listed position must be rechecked each epoch; settled positions are
    /// dropped (and a settled-false / settled-true one pins the operator).
    std::vector<std::uint64_t> open_positions;
    /// Child obligations read by the recomputations so far.  An
    /// over-approximation is safe for invalidation; begin_recompute() drops
    /// the edges to children that have settled, and on_settle() drops them
    /// all, so a settled record has none.
    std::vector<ObId> deps;
  };

  /// Current epoch (== number of begin_epoch() calls).
  std::uint64_t epoch() const { return epoch_; }

  /// Starts a new epoch after the trace grew: bumps the clock and runs the
  /// invalidation pass — every open reader of the horizon seeds the
  /// reverse-dependency dirty closure.  Call once per appended block, before re-reading root
  /// verdicts.
  void begin_epoch();

  /// The key of the query (node, op, <lo, inf>) under `env` restricted to
  /// the node's free `metas`.  Bindings beyond EvalCache::kMaxEnv are
  /// interned into the span table, which lives as long as the graph.
  Key key(std::uint32_t node, Op op, std::uint64_t lo, const std::vector<std::uint32_t>& metas,
          const Env& env);

  /// The obligation for `key`, created open+dirty on first sight (freed
  /// slots recycled first).
  ObId obtain(const Key& key);
  Obligation& at(ObId id) { return obligations_[id]; }
  const Obligation& at(ObId id) const { return obligations_[id]; }

  /// Records "recomputing `parent` read `child`" in both directions
  /// (idempotent per edge).
  void add_dep(ObId parent, ObId child);

  /// Records "recomputing `id` read the stuttering horizon": appends it to
  /// the open-reader list (once — its window [id.key.lo, inf) already
  /// contains every later horizon).
  void touch_horizon(ObId id);

  /// Tells the graph `id` just settled: it leaves the open-reader list — a
  /// settled record can never be touched by an epoch again — and its
  /// open-position list and outgoing edges are dropped, since only a
  /// recomputation reads them and settlement is permanent.  The children
  /// become candidates for collect().
  void on_settle(ObId id);

  /// Called by the evaluator as it starts recomputing `self`: drops the
  /// edges to children that have settled since (a settled child can never
  /// dirty anyone, and any child this recomputation actually re-reads
  /// re-registers through add_dep).  This is what bounds the dependency
  /// lists of long-lived open obligations; the dropped children become
  /// candidates for collect().
  void begin_recompute(ObId self);

  /// Marks `id` as queried directly by a verdict: a root, never freed.
  void mark_root(ObId id);

  /// The orphaned-obligation fix: when an open find relocates, the body
  /// record it previously attached (identified by `child_key`) is
  /// superseded — its edge from `parent` is unlinked immediately, and the
  /// record becomes a candidate for collect().
  void unlink_superseded(ObId parent, const Key& child_key);

  /// Frees every candidate left with no parent and no root mark; freeing a
  /// record drops its own edges, so the collection cascades through the
  /// children it releases.  Freed slots are reused by the next obtain().
  /// Verdicts are unaffected: a freed record that is ever queried again is
  /// recomputed from scratch.  Call only when no evaluation holds an ObId
  /// (the monitor calls it at the end of every verdict pass).  Returns the
  /// records freed.
  std::size_t collect();

  /// Records queried directly by a verdict (mark_root()), in marking order.
  const std::vector<ObId>& roots() const { return roots_; }

  /// Estimated bytes resident in the store (gauge): the obligation and
  /// reverse-index vectors at capacity, per-obligation resume state
  /// (open-position and dependency lists), the open-reader list, the
  /// reclaim bookkeeping (root, free and candidate lists, walk scratch),
  /// the index/edge hash tables at their per-entry footprint, and the span
  /// table.  O(n); meant for budget checks at epoch boundaries, not
  /// per-query accounting.
  std::size_t bytes() const;

  // Accounting (lifetime counters unless noted).
  /// Resident records: slots minus freed-awaiting-reuse.
  std::size_t size() const { return obligations_.size() - free_list_.size(); }
  std::size_t edges() const { return edge_set_.size(); }
  std::size_t settled_count() const;          ///< resident settled obligations
  std::size_t open_count() const;             ///< resident open obligations
  std::size_t last_dirtied() const { return last_dirtied_; }  ///< by last begin_epoch()
  std::size_t total_dirtied() const { return total_dirtied_; }  ///< lifetime sum
  std::size_t recomputes() const { return recomputes_; }
  std::size_t settled_hits() const { return settled_hits_; }
  std::size_t fresh_hits() const { return fresh_hits_; }
  /// Binding spans interned by key() (gauge).
  std::size_t spans() const { return spans_.size(); }

  // Reader-list accounting.  An epoch walks the list once, so the walks are
  // epoch() and the readers they visit are touched_total().
  std::size_t index_nodes() const { return readers_.size(); }  ///< readers registered (gauge)
  std::size_t touched_total() const { return touched_total_; }  ///< seeds, lifetime
  std::size_t last_touched() const { return last_touched_; }  ///< by last begin_epoch()

  // Reclaim accounting (lifetime counters).
  std::size_t gc_sweeps() const { return gc_sweeps_; }  ///< collect() passes that freed
  std::size_t gc_freed() const { return gc_freed_; }
  std::size_t gc_freed_bytes() const { return gc_freed_bytes_; }
  std::size_t orphan_unlinks() const { return orphan_unlinks_; }

  /// Called by the evaluator: an obligation was re-settled this epoch / was
  /// answered from its pinned result / was answered because it was already
  /// fresh (recomputed earlier in the same epoch).
  void note_recompute() { ++recomputes_; }
  void note_settled_hit() { ++settled_hits_; }
  void note_fresh_hit() { ++fresh_hits_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  static std::uint64_t pack_edge(ObId parent, ObId child) {
    return (static_cast<std::uint64_t>(parent) << 32) | child;
  }
  void erase_from(std::vector<ObId>& v, ObId id);  ///< unordered erase-if-found
  /// Removes the edge parent -> child from the edge set and the child's
  /// reverse list, and makes the child a candidate; the caller removes it
  /// from the parent's dependency list.
  void unlink_edge(ObId parent, ObId child);
  void drop_deps(ObId id);  ///< unlinks and releases every outgoing edge of `id`
  /// Frees parentless non-root `id`: drops its outgoing edges (its children
  /// become candidates), the index and reader-list entries and the resume
  /// state, and puts the slot on the free list.
  void free_record(ObId id);
  void seed_and_close(std::vector<ObId>& stack);  ///< dirty closure over reverse_
  void remove_reader(Obligation& ob);  ///< swap-remove from readers_, if listed

  std::vector<Obligation> obligations_;
  std::unordered_map<Key, ObId, KeyHash> index_;
  std::vector<std::vector<ObId>> reverse_;  ///< child -> parents
  std::unordered_set<std::uint64_t> edge_set_;  ///< packed parent<<32|child
  std::vector<ObId> readers_;      ///< open horizon-readers, unordered
  std::vector<ObId> roots_;        ///< is_root records
  std::vector<ObId> free_list_;    ///< freed slots, reused by obtain()
  std::vector<ObId> candidates_;   ///< lost an edge since the last collect()
  std::vector<ObId> walk_stack_;   ///< scratch: dirty-closure stack
  /// Spilled binding spans (sorted (meta, value) runs) -> table id.
  std::map<std::vector<std::pair<std::uint32_t, std::int64_t>>, std::int64_t> spans_;
  std::uint64_t epoch_ = 0;
  std::size_t last_dirtied_ = 0;
  std::size_t total_dirtied_ = 0;
  std::size_t recomputes_ = 0;
  std::size_t settled_hits_ = 0;
  std::size_t fresh_hits_ = 0;
  std::size_t touched_total_ = 0;
  std::size_t last_touched_ = 0;
  std::size_t gc_sweeps_ = 0;
  std::size_t gc_freed_ = 0;
  std::size_t gc_freed_bytes_ = 0;
  std::size_t orphan_unlinks_ = 0;
};

}  // namespace il
