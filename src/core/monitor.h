// Online runtime monitor for interval-logic specifications.
//
// A Monitor accumulates states as a system runs and re-evaluates its
// formulas over the stuttering-extended trace seen so far.  This implements
// the "mechanical verification support" role the paper assigns the logic
// (Section 9) in its runtime-checking form: after every observed state the
// monitor reports, per axiom, whether the trace-so-far (extended by
// stuttering, i.e. assuming the system now quiesces) satisfies it.
//
// Verdicts are therefore *provisional*: an axiom that fails now may recover
// once an awaited event occurs (e.g. a pending ◇).  The monitor also tracks
// `violations`, counting axioms false at the final state, which is the
// quantity the benchmarks and tests assert on for complete runs.
//
// Verdicts come from an obligation graph (core/incremental.h): appending a
// state dirties only the obligations whose right endpoint is still open,
// and the next verdict re-settles exactly those.  Work per append is
// proportional to the live suffix (pending response obligations + newly
// arrived states), not the trace length; verdicts for closed intervals are
// pinned and never recomputed.  The monitor keeps two stores for its whole
// lifetime: a settled EvalCache (closed-world results, keyed by the trace's
// stable lineage id, valid forever under appends) and the ObligationGraph
// (open-world state).  append() is the natural driver: observe + delta
// verdict in one call.  Verdicts are bit-identical, at every prefix, to the
// uncached evaluator check_spec_cached(spec, prefix, env, nullptr) — the
// reference the differential suites compare against.  For a single verdict
// over a recorded trace, call check_spec (core/check.h) instead: a one-shot
// verdict has no deltas to exploit.
//
// A Monitor is a stateful online object: current(), although const, writes
// the internal stores, so a single Monitor must be driven from one thread
// at a time.  Use one Monitor per stream; for resident fleets sharing
// ingest streams use engine::MonitorService (engine/service.h), and for
// offline batch verdicts engine::BatchChecker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/memo.h"
#include "trace/trace.h"

namespace il {

class Monitor {
 public:
  explicit Monitor(Spec spec, Env env = {});

  /// Observes one state.
  void observe(const State& s);

  /// Observes one state and returns the refreshed verdicts: the streaming
  /// append-delta pass (equivalent to observe() + current()).
  CheckResult append(const State& s);

  /// Observes `count` states as one block and writes the verdict after each
  /// into out[0..count): bit-identical to `count` append() calls, per state.
  /// Runs ONE obligation-graph epoch covering the whole block — a single
  /// invalidation pass instead of one per state — and evaluates the
  /// intermediate verdicts at increasing *virtual* horizons
  /// (core/incremental.h), which is what makes batched service epochs pay.
  void append_block(const State* const* states, std::size_t count, CheckResult* out);

  /// Verdicts for the trace so far (provisional; see header comment).
  CheckResult current() const;

  /// Number of observed states.
  std::size_t states_seen() const { return trace_.size(); }

  const Trace& trace() const { return trace_; }
  const Spec& spec() const { return spec_; }

  /// The settled closed-world store: entries are valid forever while the
  /// trace only grows, so hits accumulate across appends.
  const EvalCache& cache() const { return cache_; }

  /// The open-world store.
  const ObligationGraph& obligations() const { return graph_; }

  /// Pre-sizes the trace's state storage (e.g. for benchmarks that append
  /// a known number of states and must not pay reallocation mid-loop).
  void reserve(std::size_t states);

  // -- resource-budget hooks (engine/service.h byte budget) ----------------

  /// Bytes resident in this monitor's evaluation stores: the memo cache's
  /// slot table plus the obligation graph's estimate — obligation and
  /// reverse-index vectors, per-kind resume state, the open-reader list,
  /// reclaim bookkeeping, and hash-table entries (gauge).  Every verdict
  /// pass ends with ObligationGraph::collect(), so between verdicts the
  /// graph holds only its live records.
  std::size_t footprint_bytes() const { return cache_.bytes() + graph_.bytes(); }

 private:
  void sync_epoch() const;  ///< fold unseen appends into one epoch
  CheckResult verdict_at(std::size_t horizon) const;  ///< epoch already synced

  Spec spec_;
  Env env_;
  Trace trace_;
  mutable EvalCache cache_;  ///< persists across observe()/current() calls
  mutable ObligationGraph graph_;
  mutable std::size_t seen_states_ = 0;  ///< trace size at the last epoch
};

}  // namespace il
