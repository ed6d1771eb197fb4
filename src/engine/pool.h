// The engine's shared fan-out machinery: ParkedPool, a resident worker
// pool.  Workers claim job indices from a single atomic counter, results
// land in pre-sized slots, and the lowest-indexed exception is rethrown on
// the calling thread.  The workers are spawned once and *parked* on a
// condition variable between runs instead of being created and joined per
// batch.  A run() is a wake (publish a context + notify) and a drain (the
// caller claims indices alongside the workers until the context is
// exhausted), which costs microseconds where a thread spawn costs tens —
// the difference that makes fine-grained streaming pay off.  Every engine
// front-end fans out through it: BatchChecker (engine.h), BatchDecider
// (decision.h), and the resident MonitorService (service.h).  Runs do not
// nest: a body must not call run() on the pool that is running it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/fault.h"

namespace il::engine::detail {

/// Resolves Options::num_threads against a workload: 0 means the hardware
/// concurrency (1 if that is unknown), and the pool never exceeds the
/// number of jobs.  Every front-end resolves its worker count here (pass
/// ~0 as `jobs` for a resident pool), so "how many workers will this
/// spawn" has exactly one answer.
inline std::size_t effective_pool(std::size_t jobs, std::size_t requested) {
  std::size_t pool = requested;
  if (pool == 0) pool = std::thread::hardware_concurrency();
  if (pool == 0) pool = 1;
  if (pool > jobs) pool = jobs;
  return pool;
}

/// A resident worker pool.  Threads are spawned once, park on a condition
/// variable between runs, and execute a claim-counter loop over each run's
/// context when woken:
///
///   - run(count, body) executes body(i) for every i in [0, count) exactly
///     once; callers pre-size result slots so output order is input order,
///   - exceptions are captured and the lowest-indexed one is rethrown on
///     the run() caller after the context drains,
///   - run() returns only when every participant has checked back in, so
///     `body` (which lives on the caller's stack) is never read after
///     return.
///
/// The caller participates in its own claim loop, so a run on a fully busy
/// pool degrades to the plain sequential loop instead of blocking.
/// Concurrent run() callers queue on an internal mutex, so threads that
/// share one pool never interleave their fan-outs and at most one context
/// is active at a time.
class ParkedPool {
 public:
  explicit ParkedPool(std::size_t threads) : threads_(threads == 0 ? 1 : threads) {
    workers_.reserve(threads_);
    for (std::size_t w = 0; w < threads_; ++w) {
      workers_.emplace_back([this]() { worker_loop(); });
    }
  }

  ~ParkedPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

  std::size_t size() const { return threads_; }

  /// Wakes the pool, runs body(i) for every i in [0, count) with the caller
  /// claiming alongside the workers, and blocks until the context drains.
  /// Rethrows the lowest-indexed captured exception, if any.
  void run(std::size_t count, const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    if (count == 1) {
      // Single work item: publishing a context just wakes workers to lose
      // the claim race.  Run inline — same order, same error contract — so
      // e.g. a service epoch advancing one monitor costs no wake at all.
      body(0);
      return;
    }
    std::lock_guard<std::mutex> serialize(run_mu_);
    Context ctx;
    ctx.count = count;
    ctx.body = &body;
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_ = &ctx;
    }
    wake_.notify_all();
    drain(ctx);
    {
      std::unique_lock<std::mutex> lock(mu_);
      drained_.wait(lock, [&]() { return ctx.inside == 0; });
    }
    if (ctx.error) std::rethrow_exception(ctx.error);
  }

 private:
  struct Context {
    std::size_t count = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::size_t inside = 0;  ///< workers currently executing this context
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  /// The shared claim loop.  Whoever runs it — owner or parked worker —
  /// claims indices until the counter passes count; the claimer that
  /// observes exhaustion unpublishes the context so parked workers stop
  /// joining it.
  void drain(Context& ctx) {
    for (;;) {
      const std::size_t i = ctx.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ctx.count) break;
      try {
        IL_INJECT_FAULT("pool.dispatch");
        (*ctx.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!ctx.error || i < ctx.error_index) {
          ctx.error = std::current_exception();
          ctx.error_index = i;
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (active_ == &ctx) active_ = nullptr;
  }

  void worker_loop() {
    for (;;) {
      Context* ctx = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&]() { return shutdown_ || active_ != nullptr; });
        if (shutdown_) return;
        ctx = active_;
        ++ctx->inside;
      }
      drain(*ctx);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--ctx->inside == 0) drained_.notify_all();
      }
    }
  }

  const std::size_t threads_;
  std::mutex run_mu_;  ///< serializes concurrent run() callers
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable drained_;
  bool shutdown_ = false;
  Context* active_ = nullptr;  ///< the running context while it has unclaimed indices
  std::vector<std::thread> workers_;
};

}  // namespace il::engine::detail
