// E3 — Chapter 5 queues: simulation and specification-checking cost as the
// number of values (and hence trace length and quantifier domain) grows,
// and batch-engine throughput over fleets of queue runs.
#include <benchmark/benchmark.h>

#include "core/check.h"
#include "engine/engine.h"
#include "systems/queue_system.h"

namespace {

using namespace il;
using namespace il::sys;

std::vector<std::int64_t> domain(std::size_t n) {
  std::vector<std::int64_t> d;
  for (std::size_t i = 1; i <= n; ++i) d.push_back(static_cast<std::int64_t>(i));
  return d;
}

void bench_fifo_simulate(benchmark::State& state) {
  QueueRunConfig config;
  config.values = static_cast<std::size_t>(state.range(0));
  std::size_t len = 0;
  for (auto _ : state) {
    config.seed++;
    Trace tr = run_fifo_queue(config);
    len = tr.size();
    benchmark::DoNotOptimize(tr);
  }
  state.counters["trace_len"] = static_cast<double>(len);
}

void bench_fifo_check(benchmark::State& state) {
  QueueRunConfig config;
  config.values = static_cast<std::size_t>(state.range(0));
  Trace tr = run_fifo_queue(config);
  Spec spec = queue_spec(domain(config.values));
  for (auto _ : state) {
    auto r = check_spec(spec, tr);
    benchmark::DoNotOptimize(r);
  }
  state.counters["trace_len"] = static_cast<double>(tr.size());
}

void bench_unreliable_check(benchmark::State& state) {
  UnreliableQueueRunConfig config;
  config.values = static_cast<std::size_t>(state.range(0));
  Trace tr = run_unreliable_queue(config);
  Spec spec = unreliable_queue_spec(domain(config.values));
  for (auto _ : state) {
    auto r = check_spec(spec, tr);
    benchmark::DoNotOptimize(r);
  }
  state.counters["trace_len"] = static_cast<double>(tr.size());
}

// Batch throughput: one queue spec checked against many independent runs
// through the engine.  range(0) = fleet size, range(1) = threads.
void bench_fifo_batch_engine(benchmark::State& state) {
  const std::size_t fleet = static_cast<std::size_t>(state.range(0));
  QueueRunConfig config;
  config.values = 6;
  Spec spec = queue_spec(domain(config.values));
  std::vector<Trace> traces;
  traces.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    config.seed = i + 1;
    traces.push_back(run_fifo_queue(config));
  }
  auto jobs = engine::jobs_for_traces(spec, traces);
  engine::Options opts;
  opts.num_threads = static_cast<std::size_t>(state.range(1));
  engine::BatchChecker checker(opts);
  for (auto _ : state) {
    auto results = checker.run(jobs);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * fleet));
  state.counters["traces"] = static_cast<double>(fleet);
  state.counters["axioms_checked"] = static_cast<double>(checker.check_stats().axioms_checked);
}

// The memoized checker on the quantifier-heavy queue axiom (uncached
// reference numbers are recorded in bench/BASELINE.md).
void bench_fifo_check_memoized(benchmark::State& state) {
  QueueRunConfig config;
  config.values = static_cast<std::size_t>(state.range(0));
  Trace tr = run_fifo_queue(config);
  Spec spec = queue_spec(domain(config.values));
  engine::Options opts;
  opts.num_threads = 1;
  std::vector<engine::CheckJob> jobs = {{&spec, &tr, {}}};
  engine::BatchChecker checker(opts);
  for (auto _ : state) {
    auto r = checker.run(jobs);
    benchmark::DoNotOptimize(r);
  }
  state.counters["trace_len"] = static_cast<double>(tr.size());
}

}  // namespace

BENCHMARK(bench_fifo_simulate)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(bench_fifo_check)->Arg(4)->Arg(6)->Arg(8);
BENCHMARK(bench_unreliable_check)->Arg(3)->Arg(5);
BENCHMARK(bench_fifo_batch_engine)->Args({8, 1})->Args({8, 2})->Args({8, 4})->Args({32, 4});
BENCHMARK(bench_fifo_check_memoized)->Arg(6)->Arg(8);

BENCHMARK_MAIN();
