// Incremental evaluation over a growing trace: the obligation-expansion /
// settlement recast of core/semantics.h used by the online monitor.
//
// The plain evaluator answers s<0,inf> |= a by structural recursion; on a
// monitor that re-asks after every appended state, almost all of that work
// re-derives facts about the settled prefix.  The incremental evaluator
// splits every query by one construction-time node flag (suffix_sensitive,
// core/ast.h) and one interval property (is the right endpoint open?):
//
//   - CLOSED WORLD — a finite interval, or a suffix-insensitive node over
//     any interval: the answer reads only positions at or below the current
//     horizon, which appends never change.  These queries run through a
//     plain Evaluator backed by the monitor's settled EvalCache, keyed by
//     the trace's *stable* lineage id: every entry is valid forever, so the
//     cache is never evicted while the trace only grows.
//
//   - OPEN WORLD — a suffix-sensitive node over <lo, inf>: the answer may
//     change as states arrive.  Each such query is an obligation in the
//     ObligationGraph (core/memo.h) carrying its current verdict, a settled
//     flag, dependency edges, and per-kind resume state.  Every query gets
//     a record — bindings too many to key inline spill into the graph's
//     span table — and all of them go through one memoized entry
//     (memoized()).  Re-settlement is a delta pass:
//
//       []a / <>a  one scan: a frontier plus the start positions whose body
//             verdict is still open; an append rechecks those and scans
//             only the new positions.  Settles on a settled decisive body
//             verdict (false for [], true for <>).
//       event search: the changeset probes are extended while they stay
//             settled, and that settled prefix is never rescanned.  Forward
//             keeps the probe at its end and settles on a found change
//             whose probes are all settled; backward keeps the best edge
//             inside it and scans only the open region above, top-down.  A
//             suffix-insensitive defining formula probes settled
//             everywhere, so its prefix reaches the horizon each epoch.
//       everything else composes child obligations and settles exactly when
//             the children its value depends on have settled.
//
// Obligation values are bit-identical to the uncached evaluator at every
// trace length (the differential suite in tests/test_monitor_incremental.cpp
// proves it per appended state); settlement is sound but deliberately
// conservative — an obligation marked settled can never change, one left
// open merely costs a recheck.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/ast.h"
#include "core/memo.h"
#include "core/semantics.h"
#include "trace/trace.h"

namespace il {

/// Evaluator binding formulas to one *growing* trace.  All durable state
/// lives in the borrowed graph/cache, so the evaluator itself is a cheap
/// stateless façade — the monitor constructs one per verdict.  Call
/// ObligationGraph::begin_epoch() after each append, before re-reading
/// roots.
///
/// Single-threaded, like the monitor that owns it.
class IncrementalEvaluator {
 public:
  /// `graph` and `settled_cache` are borrowed and must outlive the
  /// evaluator.  Cache keys use trace.stable_id(), so the trace may only
  /// grow while the stores are in use: a state rewritten in place would
  /// leave stale results behind (the monitor owns its trace and only
  /// appends to it).
  ///
  /// Evaluates as if the trace ended at index `horizon` (inclusive), which
  /// must be <= trace.last_index(); pass trace.last_index() for the whole
  /// trace.  Batched epochs (Monitor::append_block) pass intermediate
  /// horizons.  Open-world scans stop there and open obligations record it,
  /// so a block of appends can run ONE begin_epoch() and still read every
  /// intermediate verdict bit-identical to per-state epochs: resume state
  /// (frontiers, open positions, rolling probes) evolves through the same
  /// horizon sequence either way.  The closed-world delegate needs no
  /// override — settled results are horizon-invariant by construction (that
  /// is what lets the settled cache live forever under appends).
  IncrementalEvaluator(const Trace& trace, ObligationGraph* graph, EvalCache* settled_cache,
                       std::uint64_t horizon);

  /// Whole-computation satisfaction (s<0,inf> |= formula) at the current
  /// trace length, re-settling only dirty obligations.
  bool sat_root(const Formula& formula, const Env& env);

 private:
  /// Query results, with how each loads from and stores into an
  /// obligation's result slot.
  struct Val {
    bool value = false;
    bool settled = false;
    static Val load(const EvalCache::Entry& e, bool settled) { return {e.value, settled}; }
    void store(EvalCache::Entry& e) const { e.value = value; }
  };
  struct Found {
    Interval iv;
    bool settled = false;
    static Found load(const EvalCache::Entry& e, bool settled) {
      return {e.null ? Interval::none() : Interval::make(e.lo, e.hi), settled};
    }
    void store(EvalCache::Entry& e) const {
      e.lo = iv.lo;
      e.hi = iv.hi;
      e.null = iv.null;
    }
  };

  using ObId = ObligationGraph::ObId;
  static constexpr ObId kNoOb = ObligationGraph::kNoOb;

  /// Obligation-or-delegate dispatch.  `dep_to` is the obligation whose
  /// recomputation issued this query (kNoOb at a root): child obligations
  /// register reverse-dependency edges to it.
  Val sat_inc(const Formula& f, Interval iv, const Env& env, ObId dep_to);
  Found find_inc(const Term& t, Interval ctx, Dir dir, const Env& env, ObId dep_to);
  Val stars_inc(const Term& t, Interval ctx, Dir dir, const Env& env, ObId dep_to);

  /// The one memoized open-world entry: obtains the record for (node, op,
  /// <lo, inf>, env), links it under `dep_to` (or marks it a root), answers
  /// from a settled or fresh result, and otherwise runs compute(self) and
  /// stores its result.  Node is Formula or Term.
  template <typename R, typename Node, typename Compute>
  R memoized(const Node& node, ObligationGraph::Op op, std::uint64_t lo, const Env& env,
             ObId dep_to, Compute&& compute);

  /// Open-world recomputation bodies.  `self` is the obligation being
  /// recomputed: it carries the resume state, and the child queries it
  /// issues register their dependency edges to it.
  Val sat_compute(const Formula& f, std::uint64_t lo, const Env& env, ObId self);
  Val scan_compute(const Formula& f, std::uint64_t lo, const Env& env, ObId self);  ///< [] and <>
  Found find_compute(const Term& t, std::uint64_t lo, Dir dir, const Env& env, ObId self);
  Found find_event_fwd(const Term& t, std::uint64_t lo, const Env& env, ObId self);
  Found find_event_bwd(const Term& t, std::uint64_t lo, const Env& env, ObId self);
  Val stars_compute(const Term& t, std::uint64_t lo, Dir dir, const Env& env, ObId self);

  /// Changeset probe: does the defining formula hold on <k, inf>?
  /// Suffix-insensitive defining formulas go through the settled delegate
  /// (the overwhelmingly common case); sensitive ones recurse open-world.
  Val probe(const Formula& defining, std::uint64_t k, const Env& env, ObId self);

  const Trace& trace_;
  ObligationGraph* graph_;
  std::uint64_t horizon_;  ///< last visible index (== trace_.last_index() unless virtual)
  Evaluator delegate_;     ///< closed-world path, over the settled cache
};

}  // namespace il
