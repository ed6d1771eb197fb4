// The decide_corpus workload: batches of generated LTL formulas through
// parse -> NNF -> (tableau jobs, LLL encoding) -> BatchDecider::run, each
// formula checked tableau-vs-LLL and validity-vs-satisfiability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/decision.h"
#include "span.h"

namespace perfbench {

/// BatchDecider Options::num_threads: three pool workers plus the calling
/// generator thread, which claims jobs too, keep four threads busy.
constexpr std::size_t kDeciderThreads = 3;

struct DecideRun {
  std::size_t jobs = 0;
  std::size_t batches = 0;
  std::int64_t t0_ns = 0;           ///< start of the timed window
  std::vector<double> latency_us;   ///< per batch: parse start .. results returned
  std::vector<std::int64_t> batch_end_ns;  ///< when each batch returned
  std::vector<double> batch_jobs;   ///< jobs in each batch
  std::vector<double> gen_lag_us;   ///< per batch: gap since the previous batch returned
  std::size_t failed_jobs = 0;      ///< jobs of throwing batches or disagreeing formulas
  std::size_t mismatches = 0;       ///< disagreeing formulas and throws
  std::size_t cache_hits = 0;       ///< BatchDecider::stats(), summed over batches
  std::size_t cache_misses = 0;
  std::size_t unique_jobs = 0;
};

class Decider {
 public:
  /// Set-up: starts the decider's pool and decides one warm-up job.
  explicit Decider(std::size_t threads = kDeciderThreads);

  /// Decides corpus batches for `seconds`, closed loop: the next batch is
  /// built when the previous one returns.  `batches_limit` (0 = none)
  /// stops earlier; the probes use it.
  DecideRun run(double seconds, std::uint64_t seed, SpanRecorder& spans,
                std::size_t batches_limit = 0);

 private:
  std::unique_ptr<il::engine::BatchDecider> decider_;
};

}  // namespace perfbench
