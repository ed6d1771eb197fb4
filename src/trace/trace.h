// A computation: a finite sequence of states, interpreted as an infinite
// sequence by repeating (stuttering) the last state forever.  This is
// exactly the paper's convention (Chapter 3): "For a finite computation, we
// extend the last state to form an infinite sequence."
//
// All interval-logic satisfaction is defined over these stuttering-extended
// sequences.  Because the extension is constant, no event (a predicate
// changing from false to true) can occur beyond index size()-1, which keeps
// every changeset finite and the semantics computable.
//
// Each trace carries a process-unique id() used by memoization keys
// (core/memo.h) in place of pointer identity.  The id changes whenever the
// state sequence is mutated, so a cache entry can never be satisfied by a
// trace whose contents have changed since the entry was stored.
//
// For *streaming* consumers the whole-identity bump is too blunt: appending
// a state leaves every existing position untouched, so results that only
// read the settled prefix are still valid.  A trace therefore also carries
// a lineage identity, stable_id() (fresh per construction/copy, surviving
// push), for stores that stay valid while the trace only grows.  The
// incremental monitor (core/monitor.h) is the client: it owns its trace
// and only ever appends to it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/state.h"

namespace il {

class Trace {
 public:
  Trace() : id_(next_id()), stable_id_(id_) {}
  explicit Trace(std::vector<State> states)
      : states_(std::move(states)), id_(next_id()), stable_id_(id_) {}

  Trace(const Trace& other) : states_(other.states_), id_(next_id()), stable_id_(id_) {}
  Trace& operator=(const Trace& other) {
    states_ = other.states_;
    id_ = next_id();
    stable_id_ = id_;
    return *this;
  }
  Trace(Trace&&) = default;  ///< moves keep the ids: same logical trace
  Trace& operator=(Trace&&) = default;

  /// Identity for memoization keys.  Unique per distinct state sequence the
  /// process has observed: fresh per construction/copy, refreshed on push().
  std::uint64_t id() const { return id_; }

  /// Lineage identity: fresh per construction/copy, *not* refreshed by
  /// push() or the mutable-state accessors.  Two snapshots with the same
  /// stable_id() are the same sequence, possibly grown or rewritten in
  /// between.
  std::uint64_t stable_id() const { return stable_id_; }

  /// Number of explicitly stored states.  Must be >= 1 before evaluation.
  std::size_t size() const { return states_.size(); }
  bool empty() const { return states_.empty(); }

  /// State at index k of the *infinite* stuttering-extended sequence:
  /// indices past the end read the final state.
  const State& at(std::size_t k) const;

  /// Pre-sizes the state storage; identity and counters are untouched
  /// (capacity is not content).
  void reserve(std::size_t n) { states_.reserve(n); }

  /// Appends a state (invalidating previously cached results by id change;
  /// stable_id() is unchanged).
  void push(State s) {
    states_.push_back(std::move(s));
    id_ = next_id();
  }

  /// Last explicitly stored state (requires non-empty).
  const State& back() const;
  /// Mutable access to the last state.  The identity id is refreshed when
  /// the reference is handed out, so finish mutating through it before the
  /// next evaluation — a reference retained across a memoized check would
  /// let later mutations alias the id the cache already stored under.
  State& back_mut();
  /// Mutable access to the state at index k (same identity contract as
  /// back_mut).  Lets exhaustive sweeps (core/bounded.h) advance one state
  /// of a reused trace instead of rebuilding the whole sequence.
  State& state_mut(std::size_t k);

  /// Index of the last explicitly stored state (requires non-empty).
  std::size_t last_index() const;

  std::string to_string() const;

  const std::vector<State>& states() const { return states_; }

 private:
  static std::uint64_t next_id();  ///< 64-bit: never wraps back to 0 in practice

  std::vector<State> states_;
  std::uint64_t id_ = 0;
  std::uint64_t stable_id_ = 0;
};

/// Builder that records a system's evolution: mutate the working state via
/// set()/set_bool() and call commit() to append a snapshot.  Used by all the
/// Chapter 5-8 system simulators.
class TraceBuilder {
 public:
  TraceBuilder() = default;

  void set(const std::string& name, std::int64_t value) { working_.set(name, value); }
  void set_bool(const std::string& name, bool value) { working_.set_bool(name, value); }
  std::int64_t get(const std::string& name) const { return working_.get(name); }

  /// Appends a snapshot of the working state to the trace.
  void commit() { trace_.push(working_); }

  /// Convenience: apply `fn` to the working state, then commit.
  template <typename Fn>
  void step(Fn&& fn) {
    fn(working_);
    commit();
  }

  const Trace& trace() const { return trace_; }
  Trace take() { return std::move(trace_); }

 private:
  State working_;
  Trace trace_;
};

}  // namespace il
