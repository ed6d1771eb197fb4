// E12 — runtime-monitor overhead: cost of one verdict over a recorded
// trace, versus trace length; plus offline batch throughput of the same
// specification through the engine.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/check.h"
#include "core/parser.h"
#include "engine/engine.h"
#include "systems/mutex.h"

namespace {

using namespace il;

Spec monitored_spec() {
  Spec spec;
  spec.name = "monitored";
  spec.axioms.push_back({"safety", parse_formula("[] (cs1 -> x1)")});
  spec.axioms.push_back({"scan", parse_formula("[] [ x1 <= cs1 ] <> !x2")});
  return spec;
}

// Both cases below compute ONE verdict over an already-recorded trace — the
// one-shot shape, served by check_spec (a single verdict has no deltas for
// the incremental monitor to exploit).  The incremental monitor's own
// shapes — a verdict after every state, warm and cold — live in
// bench_monitor_incremental.cpp.
void bench_monitor_per_state(benchmark::State& state) {
  const std::size_t prefix = static_cast<std::size_t>(state.range(0));
  sys::MutexRunConfig config;
  config.entries = 20;
  config.max_steps = prefix + 50;
  const Trace tr = sys::run_mutex(config);
  const Spec spec = monitored_spec();
  const std::size_t n = std::min(prefix, tr.size() - 1);
  const std::vector<State> head(tr.states().begin(),
                                tr.states().begin() + static_cast<std::ptrdiff_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    Trace t(head);
    state.ResumeTiming();
    t.push(tr.at(n));
    auto r = check_spec(spec, t);
    benchmark::DoNotOptimize(r);
  }
}

void bench_monitor_full_run(benchmark::State& state) {
  sys::MutexRunConfig config;
  config.entries = static_cast<std::size_t>(state.range(0));
  const Trace tr = sys::run_mutex(config);
  const Spec spec = monitored_spec();
  for (auto _ : state) {
    const bool final_ok = check_spec(spec, tr).ok;
    benchmark::DoNotOptimize(final_ok);
  }
  state.counters["states"] = static_cast<double>(tr.size());
}

// Offline throughput: the batch engine checking the monitored spec against
// a fleet of recorded runs.  range(0) = fleet size, range(1) = threads.
void bench_monitor_batch_engine(benchmark::State& state) {
  const std::size_t fleet = static_cast<std::size_t>(state.range(0));
  Spec spec = monitored_spec();
  std::vector<Trace> traces;
  traces.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    sys::MutexRunConfig config;
    config.seed = i + 1;
    config.entries = 8;
    traces.push_back(sys::run_mutex(config));
  }
  auto jobs = engine::jobs_for_traces(spec, traces);
  engine::Options opts;
  opts.num_threads = static_cast<std::size_t>(state.range(1));
  engine::BatchChecker checker(opts);
  std::size_t violations = 0;
  for (auto _ : state) {
    auto results = checker.run(jobs);
    violations = checker.check_stats().axioms_failed;
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * fleet));
  state.counters["traces"] = static_cast<double>(fleet);
  state.counters["violations"] = static_cast<double>(violations);
  const auto& s = checker.check_stats();
  state.counters["memo_hit_rate"] =
      s.memo_hits + s.memo_misses == 0
          ? 0.0
          : static_cast<double>(s.memo_hits) / static_cast<double>(s.memo_hits + s.memo_misses);
}

}  // namespace

BENCHMARK(bench_monitor_per_state)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(bench_monitor_full_run)->Arg(4)->Arg(8);
BENCHMARK(bench_monitor_batch_engine)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({64, 4});

BENCHMARK_MAIN();
