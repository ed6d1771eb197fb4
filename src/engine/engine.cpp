#include "engine/engine.h"

#include <atomic>
#include <exception>
#include <memory>

#include "engine/pool.h"
#include "util/assert.h"

namespace il {
namespace engine {

namespace {

struct WorkerReport {
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t memo_inserts = 0;
  std::size_t memo_entries = 0;
};

}  // namespace

CheckResult run_job(const CheckJob& job, EvalCache* cache) {
  IL_REQUIRE(job.spec != nullptr && job.trace != nullptr, "CheckJob must bind a spec and a trace");
  return check_spec_cached(*job.spec, *job.trace, job.env, cache);
}

BatchChecker::BatchChecker(Options options) : options_(options) {
  // A resident pool, as in BatchDecider: a checker serving many batches
  // pays the spawn once, and a sequential configuration spawns nothing.
  // Sized by num_threads alone: the job count is unknown until run().
  const std::size_t workers = detail::effective_pool(~std::size_t{0}, options_.num_threads);
  if (workers > 1) pool_ = std::make_unique<detail::ParkedPool>(workers);
}

BatchChecker::~BatchChecker() = default;

std::vector<CheckResult> BatchChecker::run(const std::vector<CheckJob>& jobs) {
  check_stats_ = CheckStats{};
  check_stats_.jobs = jobs.size();

  std::vector<CheckResult> results(jobs.size());
  if (jobs.empty()) return results;

  const std::size_t workers = detail::effective_pool(jobs.size(), options_.num_threads);

  if (pool_ == nullptr || workers <= 1) {
    // Inline fast path: no wake for the sequential-equivalent case.
    EvalCache cache;
    for (std::size_t i = 0; i < jobs.size(); ++i) results[i] = run_job(jobs[i], &cache);
    check_stats_.memo_hits = cache.hits();
    check_stats_.memo_misses = cache.misses();
    check_stats_.memo_inserts = cache.inserts();
    check_stats_.memo_entries = cache.size();
  } else {
    // One pool item per worker slot: each slot owns a private EvalCache for
    // the whole batch and claims job indices from one shared counter, so
    // load balances across slots while every cache stays thread-local.
    struct Slot {
      WorkerReport report;
      std::size_t error_index = 0;
      std::exception_ptr error;
    };
    std::vector<Slot> slots(workers);
    std::atomic<std::size_t> next{0};
    pool_->run(workers, [&](std::size_t w) {
      Slot& slot = slots[w];
      EvalCache cache;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) break;
        try {
          results[i] = run_job(jobs[i], &cache);
        } catch (...) {
          // Indices claimed by one slot increase, so the first capture is
          // this slot's lowest.
          if (!slot.error) {
            slot.error = std::current_exception();
            slot.error_index = i;
          }
        }
      }
      slot.report.memo_hits = cache.hits();
      slot.report.memo_misses = cache.misses();
      slot.report.memo_inserts = cache.inserts();
      slot.report.memo_entries = cache.size();
    });
    // The rethrow happens after the reports are aggregated, so the memo
    // counters are complete even for a failed batch.
    check_stats_.threads = workers;
    const Slot* first_error = nullptr;
    for (const Slot& slot : slots) {
      check_stats_.memo_hits += slot.report.memo_hits;
      check_stats_.memo_misses += slot.report.memo_misses;
      check_stats_.memo_inserts += slot.report.memo_inserts;
      check_stats_.memo_entries += slot.report.memo_entries;
      if (slot.error && (first_error == nullptr || slot.error_index < first_error->error_index)) {
        first_error = &slot;
      }
    }
    if (first_error != nullptr) std::rethrow_exception(first_error->error);
  }

  for (const CheckResult& r : results) check_stats_.axioms_failed += r.failed.size();
  for (const CheckJob& j : jobs) check_stats_.axioms_checked += j.spec->all().size();
  return results;
}

std::vector<CheckResult> check_batch(const std::vector<CheckJob>& jobs, Options options) {
  BatchChecker checker(options);
  return checker.run(jobs);
}

std::vector<CheckJob> jobs_for_traces(const Spec& spec, const std::vector<Trace>& traces,
                                      const Env& env) {
  std::vector<CheckJob> jobs;
  jobs.reserve(traces.size());
  for (const Trace& tr : traces) jobs.push_back(CheckJob{&spec, &tr, env});
  return jobs;
}

}  // namespace engine
}  // namespace il
