// Batched decision procedures: the engine's second workload class.
//
// The paper's pipeline elaborates interval logic into propositional
// temporal logic (Appendix B) and into the low-level language (Appendix C);
// both ends terminate in a graph-based decision procedure.  A production
// verifier decides *fleets* of such questions — regression corpora of
// validity lemmas, per-scenario satisfiability probes, tableau-vs-LLL
// differential sweeps — so the batch engine serves them exactly like trace
// checks: workers claim jobs from one atomic counter and results land in
// input order, deterministically, independent of thread count.  Each
// decision runs start to finish on the thread that claimed it.
//
// The unified intern layer is what makes the fan-out safe and cheap: a
// DecisionJob references formulas by id into an `ltl::Arena` and/or the
// global `lll::ExprTable`, both of which are read-only during a run.  All
// formula *construction* (parse, NNF, LLL encoding) happens on the caller's
// thread — the job-builder helpers below do it for you — after which
// workers only read the shared tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "lll/ast.h"
#include "ltl/formula.h"

namespace il::engine {

namespace detail {
class ParkedPool;
}

/// One decision question.  Referenced arenas are borrowed and must stay
/// alive (and un-mutated) until run() returns.
struct DecisionJob {
  enum class Kind : std::uint8_t {
    TableauSat,    ///< Appendix B tableau: is `formula` satisfiable?
    TableauValid,  ///< Appendix B tableau on the negation: is `formula` valid?
    LllSat,        ///< Appendix C graph iteration: is `expr` satisfiable?
  };

  Kind kind = Kind::TableauSat;
  const ltl::Arena* arena = nullptr;  ///< tableau kinds; must be pre-NNF'd
  ltl::Id formula = -1;  ///< NNF formula (already negated for TableauValid)
  lll::ExprId expr = lll::kNoExpr;  ///< LllSat operand
};

/// Job builders: run the mutating construction steps (NNF, negation) now,
/// on the calling thread, so the arena is read-only by the time the batch
/// fans out.
DecisionJob tableau_sat_job(ltl::Arena& arena, ltl::Id formula);
DecisionJob tableau_valid_job(ltl::Arena& arena, ltl::Id formula);
DecisionJob lll_sat_job(lll::ExprId expr);

struct DecisionResult {
  bool verdict = false;  ///< satisfiable (…Sat) or valid (TableauValid)
  std::size_t graph_nodes = 0;  ///< decision graph size before iteration
  std::size_t graph_edges = 0;
  std::size_t alive_nodes = 0;  ///< survivors of the deletion fixpoint
  std::size_t alive_edges = 0;
  std::size_t iterations = 0;   ///< LLL deletion passes (0 for tableau jobs)
};

/// Aggregate counters from the last run().  The decision_* quad follows the
/// engine-wide *_hits/_misses/_inserts/_entries convention (engine.h).
struct DecisionStats {
  std::size_t jobs = 0;
  std::size_t threads = 0;  ///< pool workers serving the outer fan-out (0 = inline)
  std::size_t tableau_jobs = 0;
  std::size_t lll_jobs = 0;
  std::size_t unique_jobs = 0;  ///< jobs actually decided (cache/dedup removed the rest)
  std::size_t graph_nodes = 0;  ///< summed over jobs
  std::size_t graph_edges = 0;
  std::size_t decision_hits = 0;     ///< jobs answered by the DecisionCache
  std::size_t decision_misses = 0;
  std::size_t decision_inserts = 0;  ///< results stored this run
  std::size_t decision_entries = 0;  ///< entries resident after the run
};

/// Cross-batch memo of decision results, mirroring what EvalCache does for
/// trace checks: the hash-consed intern layer makes a formula a stable
/// integer, so "have we decided this before" is one map probe on packed ids.
/// Tableau keys carry the owning arena's content-derived *prefix
/// fingerprint* (ltl::Arena::fingerprint_at(id), the digest as of the
/// formula's own node) rather than the arena's address: ids are per-arena,
/// but id assignment is deterministic in the construction sequence the
/// fingerprint digests, so an (fingerprint, id) pair denotes the same
/// formula in every arena whose construction *begins* with that sequence.
/// Entries therefore survive arena teardown, are answered for a freshly
/// rebuilt arena with identical content — no clear_cache()-before-teardown
/// requirement — and keep hitting while the live arena grows past the
/// formulas already decided.  LLL
/// expression ids are process-global, so their fingerprint slot is zero.
/// Consulted once per job on the calling thread, never from workers, so it
/// needs no synchronization.
class DecisionCache {
 public:
  struct Key {
    std::uint8_t kind = 0;        ///< DecisionJob::Kind
    std::uint64_t arena_fp = 0;   ///< arena content fingerprint; 0 for LllSat
    std::int32_t id = -1;         ///< ltl::Id or lll::ExprId

    bool operator==(const Key& o) const {
      return kind == o.kind && arena_fp == o.arena_fp && id == o.id;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  static Key key_for(const DecisionJob& job);

  /// The cached result, or nullptr on a miss.  Hit/miss counters are
  /// updated either way.  The pointer is invalidated by the next store().
  const DecisionResult* lookup(const Key& key);

  /// Stores `result`; no-op once the soft capacity is reached (the cache
  /// never evicts — regression corpora are bounded).
  void store(const Key& key, const DecisionResult& result);

  void clear();

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }
  std::size_t inserts() const { return inserts_; }
  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<Key, DecisionResult, KeyHash> map_;
  std::size_t capacity_ = 1u << 20;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
};

class BatchDecider {
 public:
  /// Spawns the resident worker pool (engine/pool.h) with the resolved
  /// num_threads workers (none when that is 1).  Workers park between runs,
  /// so a decider serving many batches pays the spawn once.  Each decision
  /// runs start to finish on the one thread that claimed it.
  explicit BatchDecider(Options options = {});
  ~BatchDecider();

  BatchDecider(const BatchDecider&) = delete;
  BatchDecider& operator=(const BatchDecider&) = delete;

  /// Decides every job; results[i] corresponds to jobs[i].  Deterministic:
  /// independent of thread count, scheduling, and cache temperature.
  /// The calling thread first resolves every job against the cross-batch
  /// DecisionCache and collapses within-batch duplicates, then fans out only
  /// the distinct unresolved jobs; their results are stored back, so an
  /// identical batch re-run is pure cache hits.  Exceptions thrown by a job
  /// (e.g. the LLL graph budget guard) are captured and rethrown on the
  /// calling thread for the lowest-indexed failing job.
  std::vector<DecisionResult> run(const std::vector<DecisionJob>& jobs);

  const Options& options() const { return options_; }
  const DecisionStats& stats() const { return stats_; }
  const DecisionCache& cache() const { return cache_; }
  /// Drops every cached entry.  Keys are content-derived (see
  /// DecisionCache), so this is a memory knob, not a lifetime requirement:
  /// entries stay valid across arena teardown and rebuild.
  void clear_cache() { cache_.clear(); }

 private:
  Options options_;
  DecisionStats stats_;
  DecisionCache cache_;
  std::unique_ptr<detail::ParkedPool> pool_;  ///< null = fully inline
};

/// Decides one job — the unit of work a BatchDecider worker executes,
/// exposed so sequential call-sites run exactly the same code.
DecisionResult run_decision_job(const DecisionJob& job);

/// One-shot convenience over a temporary BatchDecider.
std::vector<DecisionResult> decide_batch(const std::vector<DecisionJob>& jobs,
                                         Options options = {});

}  // namespace il::engine
