#include "engine/decision.h"

#include <cstring>
#include <utility>

#include "engine/pool.h"
#include "lll/decide.h"
#include "ltl/tableau.h"
#include "util/assert.h"
#include "util/hash.h"

namespace il::engine {

DecisionJob tableau_sat_job(ltl::Arena& arena, ltl::Id formula) {
  DecisionJob job;
  job.kind = DecisionJob::Kind::TableauSat;
  job.arena = &arena;
  job.formula = arena.nnf(formula);
  return job;
}

DecisionJob tableau_valid_job(ltl::Arena& arena, ltl::Id formula) {
  DecisionJob job;
  job.kind = DecisionJob::Kind::TableauValid;
  job.arena = &arena;
  job.formula = arena.nnf(arena.mk_not(formula));
  return job;
}

DecisionJob lll_sat_job(lll::ExprId expr) {
  DecisionJob job;
  job.kind = DecisionJob::Kind::LllSat;
  job.expr = expr;
  return job;
}

DecisionResult run_decision_job(const DecisionJob& job) {
  DecisionResult r;
  switch (job.kind) {
    case DecisionJob::Kind::TableauSat:
    case DecisionJob::Kind::TableauValid: {
      IL_REQUIRE(job.arena != nullptr && job.formula >= 0,
                 "tableau DecisionJob must bind an arena and a formula");
      ltl::Tableau tableau(*job.arena, job.formula);
      r.graph_nodes = tableau.node_count();
      r.graph_edges = tableau.edge_count();
      const bool sat = tableau.iterate();
      r.alive_nodes = tableau.alive_node_count();
      r.alive_edges = tableau.alive_edge_count();
      // TableauValid jobs hold nnf(!A): A is valid iff no model survives.
      r.verdict = job.kind == DecisionJob::Kind::TableauValid ? !sat : sat;
      break;
    }
    case DecisionJob::Kind::LllSat: {
      IL_REQUIRE(job.expr != lll::kNoExpr, "LllSat DecisionJob must bind an expression");
      const lll::DecisionStats stats = lll::decide(job.expr);
      r.verdict = stats.satisfiable;
      r.graph_nodes = stats.nodes;
      r.graph_edges = stats.edges;
      r.alive_nodes = stats.alive_nodes;
      r.alive_edges = stats.alive_edges;
      r.iterations = stats.iterations;
      break;
    }
  }
  return r;
}

DecisionCache::Key DecisionCache::key_for(const DecisionJob& job) {
  Key key;
  key.kind = static_cast<std::uint8_t>(job.kind);
  if (job.kind == DecisionJob::Kind::LllSat) {
    key.id = job.expr;
  } else {
    // The *prefix* fingerprint as of the formula's own node: stable while
    // the arena grows past it, so a corpus decided early keeps hitting
    // after later parses extend the same arena.  Malformed (arena-less)
    // jobs keep fp 0; they throw in run_decision_job before any result
    // could be stored under it.
    key.arena_fp = job.arena != nullptr && job.formula >= 0 &&
                           static_cast<std::size_t>(job.formula) < job.arena->size()
                       ? job.arena->fingerprint_at(job.formula)
                       : 0;
    key.id = job.formula;
  }
  return key;
}

std::size_t DecisionCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = static_cast<std::size_t>(k.arena_fp);
  hash_combine(h, static_cast<std::size_t>(static_cast<std::uint32_t>(k.id)));
  hash_combine(h, static_cast<std::size_t>(k.kind));
  return h;
}

const DecisionResult* DecisionCache::lookup(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return &it->second;
}

void DecisionCache::store(const Key& key, const DecisionResult& result) {
  if (capacity_ != 0 && map_.size() >= capacity_) return;
  if (map_.emplace(key, result).second) ++inserts_;
}

void DecisionCache::clear() { map_.clear(); }

BatchDecider::BatchDecider(Options options) : options_(options) {
  const std::size_t workers = detail::effective_pool(~std::size_t{0}, options_.num_threads);
  if (workers > 1) pool_ = std::make_unique<detail::ParkedPool>(workers);
}

BatchDecider::~BatchDecider() = default;

std::vector<DecisionResult> BatchDecider::run(const std::vector<DecisionJob>& jobs) {
  stats_ = DecisionStats{};
  stats_.jobs = jobs.size();
  for (const DecisionJob& j : jobs) {
    if (j.kind == DecisionJob::Kind::LllSat) {
      ++stats_.lll_jobs;
    } else {
      ++stats_.tableau_jobs;
    }
  }

  std::vector<DecisionResult> results(jobs.size());
  if (jobs.empty()) return results;
  const std::size_t inserts_before = cache_.inserts();

  // Resolve phase, on the calling thread: answer jobs from the cross-batch
  // cache and collapse within-batch duplicates (regression corpora repeat
  // formulas; hash-consed ids make the duplicate check one map probe).
  // `slot[i]` is the index into the distinct-work list, or kResolved.
  constexpr std::size_t kResolved = ~std::size_t{0};
  std::vector<std::size_t> slot(jobs.size(), kResolved);
  std::vector<std::size_t> distinct;  // job index of each distinct-work slot
  std::vector<DecisionCache::Key> distinct_keys;
  std::unordered_map<DecisionCache::Key, std::size_t, DecisionCache::KeyHash> first_seen;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const DecisionCache::Key key = DecisionCache::key_for(jobs[i]);
    if (const DecisionResult* cached = cache_.lookup(key)) {
      results[i] = *cached;
      ++stats_.decision_hits;
      continue;
    }
    ++stats_.decision_misses;
    const auto [it, inserted] = first_seen.try_emplace(key, distinct.size());
    if (inserted) {
      distinct.push_back(i);
      distinct_keys.push_back(key);
    }
    slot[i] = it->second;
  }
  stats_.unique_jobs = distinct.size();

  std::vector<DecisionResult> decided(distinct.size());
  if (!distinct.empty()) {
    const std::size_t outer = detail::effective_pool(distinct.size(), options_.num_threads);
    if (pool_ == nullptr || outer <= 1) {
      for (std::size_t d = 0; d < distinct.size(); ++d) {
        decided[d] = run_decision_job(jobs[distinct[d]]);
      }
    } else {
      pool_->run(distinct.size(),
                 [&](std::size_t d) { decided[d] = run_decision_job(jobs[distinct[d]]); });
      stats_.threads = outer;
    }
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (slot[i] != kResolved) results[i] = decided[slot[i]];
  }
  for (std::size_t d = 0; d < distinct.size(); ++d) cache_.store(distinct_keys[d], decided[d]);
  stats_.decision_inserts = cache_.inserts() - inserts_before;
  stats_.decision_entries = cache_.size();

  for (const DecisionResult& r : results) {
    stats_.graph_nodes += r.graph_nodes;
    stats_.graph_edges += r.graph_edges;
  }
  return results;
}

std::vector<DecisionResult> decide_batch(const std::vector<DecisionJob>& jobs,
                                         Options options) {
  BatchDecider decider(options);
  return decider.run(jobs);
}

}  // namespace il::engine
