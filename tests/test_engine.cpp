// Tests for the parallel batch-checking engine: determinism against the
// sequential path, thread-count independence, aggregation ordering, and the
// memoization cache's transparency.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/check.h"
#include "core/parser.h"
#include "engine/engine.h"
#include "systems/mutex.h"
#include "systems/queue_system.h"

namespace il {
namespace {

using engine::BatchChecker;
using engine::CheckJob;
using engine::Options;

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

/// A diverse fleet of case-study traces: good and buggy mutex runs over
/// several seeds plus FIFO / swapped queue runs.
struct Fleet {
  Spec mutex = sys::mutex_spec(3);
  Spec queue = sys::queue_spec(domain(4));
  std::vector<Trace> traces;
  std::vector<CheckJob> jobs;

  Fleet() {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sys::MutexRunConfig mc;
      mc.seed = seed;
      mc.entries = 4;
      traces.push_back(sys::run_mutex(mc));
      traces.push_back(sys::run_mutex_buggy(mc));
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sys::QueueRunConfig qc;
      qc.seed = seed;
      qc.values = 4;
      traces.push_back(sys::run_fifo_queue(qc));
      traces.push_back(sys::run_swapping_queue(qc));
    }
    // Traces are stable from here on; jobs borrow pointers into `traces`.
    // The first 8 traces are mutex runs, the rest queue runs.
    for (std::size_t i = 0; i < traces.size(); ++i) {
      jobs.push_back(CheckJob{i < 8 ? &mutex : &queue, &traces[i], {}});
    }
  }
};

void expect_same(const std::vector<CheckResult>& got, const std::vector<CheckResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ok, want[i].ok) << "job " << i;
    EXPECT_EQ(got[i].failed, want[i].failed) << "job " << i;
  }
}

TEST(Engine, EmptyBatch) {
  BatchChecker checker;
  EXPECT_TRUE(checker.run({}).empty());
  EXPECT_EQ(checker.check_stats().jobs, 0u);
  EXPECT_EQ(checker.check_stats().threads, 0u);
}

TEST(Engine, SingleJobMatchesSequentialAndRunsInline) {
  sys::MutexRunConfig mc;
  mc.entries = 3;
  Trace tr = sys::run_mutex(mc);
  Spec spec = sys::mutex_spec(3);

  Options opts;
  opts.num_threads = 8;  // still inline: one job never spawns a pool
  BatchChecker checker(opts);
  auto results = checker.run({CheckJob{&spec, &tr, {}}});
  ASSERT_EQ(results.size(), 1u);
  CheckResult sequential = check_spec(spec, tr);
  EXPECT_EQ(results[0].ok, sequential.ok);
  EXPECT_EQ(results[0].failed, sequential.failed);
  EXPECT_EQ(checker.check_stats().threads, 0u);
  EXPECT_EQ(checker.check_stats().jobs, 1u);
}

TEST(Engine, BatchMatchesSequentialAcrossThreadCounts) {
  Fleet fleet;
  std::vector<CheckResult> sequential;
  for (const CheckJob& job : fleet.jobs) {
    sequential.push_back(check_spec(*job.spec, *job.trace, job.env));
  }
  for (std::size_t threads : {1u, 2u, 3u, 8u, 64u}) {
    Options opts;
    opts.num_threads = threads;
    BatchChecker checker(opts);
    expect_same(checker.run(fleet.jobs), sequential);
    EXPECT_EQ(checker.check_stats().jobs, fleet.jobs.size());
    EXPECT_LE(checker.check_stats().threads, fleet.jobs.size());
  }
}

TEST(Engine, MemoizationIsTransparent) {
  Fleet fleet;
  // The uncached oracle: run_job without a cache evaluates every query afresh.
  std::vector<CheckResult> baseline;
  for (const CheckJob& job : fleet.jobs) baseline.push_back(run_job(job, nullptr));
  Options memo;
  memo.num_threads = 4;
  BatchChecker with(memo);
  expect_same(with.run(fleet.jobs), baseline);
  EXPECT_GT(with.check_stats().memo_hits, 0u) << "cache should fire on case-study specs";
}

TEST(Engine, FailedAxiomAggregationOrdering) {
  // A spec whose Init and Axioms entries all fail: the result must list
  // them in declaration order (init first), prefixed with the spec name,
  // identically in sequential and batch mode.
  Spec spec;
  spec.name = "order";
  spec.init.push_back({"i1", parse_formula("x = 99")});
  spec.axioms.push_back({"a1", parse_formula("[] x = 99")});
  spec.axioms.push_back({"a2", parse_formula("x = 1")});  // holds
  spec.axioms.push_back({"a3", parse_formula("<> x = 42")});

  TraceBuilder tb;
  tb.set("x", 1);
  tb.commit();
  tb.set("x", 2);
  tb.commit();
  Trace tr = tb.take();

  const std::vector<std::string> want = {"order.i1", "order.a1", "order.a3"};
  CheckResult sequential = check_spec(spec, tr);
  EXPECT_FALSE(sequential.ok);
  EXPECT_EQ(sequential.failed, want);

  Options opts;
  opts.num_threads = 4;
  std::vector<CheckJob> jobs(5, CheckJob{&spec, &tr, {}});
  for (const CheckResult& r : engine::check_batch(jobs, opts)) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failed, want);
  }
}

TEST(Engine, QuantifiedSpecWithEnvMatchesSequential) {
  // Memo keys must respect meta-variable bindings: run the queue spec,
  // whose axioms quantify over the value domain.
  sys::QueueRunConfig qc;
  qc.values = 3;
  Trace fifo = sys::run_fifo_queue(qc);
  Trace lifo = sys::run_lifo_stack(qc);
  Spec spec = sys::queue_spec(domain(3));

  std::vector<CheckJob> jobs = {{&spec, &fifo, {}}, {&spec, &lifo, {}}};
  Options opts;
  opts.num_threads = 2;
  auto results = engine::check_batch(jobs, opts);
  ASSERT_EQ(results.size(), 2u);
  CheckResult seq_fifo = check_spec(spec, fifo);
  CheckResult seq_lifo = check_spec(spec, lifo);
  EXPECT_EQ(results[0].ok, seq_fifo.ok);
  EXPECT_EQ(results[0].failed, seq_fifo.failed);
  EXPECT_EQ(results[1].ok, seq_lifo.ok);
  EXPECT_EQ(results[1].failed, seq_lifo.failed);
}

TEST(Engine, JobsForTracesBuildsAlignedBatch) {
  Fleet fleet;
  auto jobs = engine::jobs_for_traces(fleet.mutex, fleet.traces);
  ASSERT_EQ(jobs.size(), fleet.traces.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].spec, &fleet.mutex);
    EXPECT_EQ(jobs[i].trace, &fleet.traces[i]);
  }
}

TEST(Engine, InvalidJobThrowsOnCallingThread) {
  Spec spec = sys::mutex_spec(2);
  Trace empty;  // evaluation over an empty trace violates a precondition
  sys::MutexRunConfig mc;
  Trace good = sys::run_mutex(mc);
  std::vector<CheckJob> jobs = {{&spec, &good, {}}, {&spec, &empty, {}}, {&spec, &good, {}},
                                {&spec, &empty, {}}};
  Options opts;
  opts.num_threads = 4;
  BatchChecker checker(opts);
  EXPECT_THROW(checker.run(jobs), std::invalid_argument);
}

TEST(Engine, BatchResultAggregatesCacheStats) {
  Fleet fleet;

  // Multi-threaded run: the batch result must sum hit/miss/insert counters
  // over every worker's private cache.
  Options opts;
  opts.num_threads = 4;
  BatchChecker checker(opts);
  checker.run(fleet.jobs);
  const engine::CheckStats& stats = checker.check_stats();
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.memo_misses, 0u);
  EXPECT_GT(stats.memo_inserts, 0u);
  EXPECT_GT(stats.memo_entries, 0u);
  // Entries cannot exceed inserts, and every insert follows a miss.
  EXPECT_LE(stats.memo_entries, stats.memo_inserts);
  EXPECT_LE(stats.memo_inserts, stats.memo_misses);

  // The inline (single-job) path reports through the same fields.
  BatchChecker inline_checker;
  inline_checker.run({fleet.jobs.front()});
  EXPECT_EQ(inline_checker.check_stats().threads, 0u);
  EXPECT_GT(inline_checker.check_stats().memo_inserts, 0u);
  EXPECT_EQ(inline_checker.check_stats().memo_entries, inline_checker.check_stats().memo_inserts);
}

TEST(Engine, StatsCountAxioms) {
  Spec spec = sys::mutex_spec(2);
  sys::MutexRunConfig mc;
  Trace tr = sys::run_mutex(mc);
  std::vector<CheckJob> jobs(3, CheckJob{&spec, &tr, {}});
  BatchChecker checker;
  checker.run(jobs);
  EXPECT_EQ(checker.check_stats().axioms_checked, 3 * spec.all().size());
  EXPECT_EQ(checker.check_stats().axioms_failed, 0u);
}

}  // namespace
}  // namespace il
