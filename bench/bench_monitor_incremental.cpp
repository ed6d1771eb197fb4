// E13 — incremental monitoring: the append-delta pass against a full
// recheck per state, on the bench_monitor_full_run workload shape (a mutex
// run streamed state by state with a verdict after every state).
//
//   bench_monitor_append_full_run    incremental monitor, verdict per state
//   bench_monitor_recheck_full_run   check_spec on every prefix, verdict per
//                                    state (re-evaluation from scratch)
//   bench_monitor_append_warm        steady-state cost of ONE append+verdict
//                                    on a monitor that has verdicted all
//                                    along (the delta is the live suffix)
//   bench_monitor_append_cold        first-ever verdict at the same prefix
//                                    (builds the whole obligation graph)
//
// CI asserts append_full_run < recheck_full_run from the emitted JSON: the
// obligation graph must beat re-evaluation or it has no reason to exist.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>

#include "core/check.h"
#include "core/monitor.h"
#include "core/parser.h"
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

Trace mutex_run(std::size_t entries) {
  sys::MutexRunConfig config;
  config.entries = entries;
  return sys::run_mutex(config);
}

/// Streams the whole run with a verdict per state through one monitor.
void bench_monitor_append_full_run(benchmark::State& state) {
  const Trace tr = mutex_run(static_cast<std::size_t>(state.range(0)));
  const Spec spec = monitored_spec();
  std::size_t failed = 0;
  for (auto _ : state) {
    Monitor m(spec);
    for (const State& s : tr.states()) failed += m.append(s).failed.size();
    benchmark::DoNotOptimize(failed);
  }
  state.counters["states"] = static_cast<double>(tr.size());
}

/// The same verdict stream by re-evaluation: check_spec on every prefix.
void bench_monitor_recheck_full_run(benchmark::State& state) {
  const Trace tr = mutex_run(static_cast<std::size_t>(state.range(0)));
  const Spec spec = monitored_spec();
  std::size_t failed = 0;
  for (auto _ : state) {
    Trace prefix;
    for (const State& s : tr.states()) {
      prefix.push(s);
      failed += check_spec(spec, prefix).failed.size();
    }
    benchmark::DoNotOptimize(failed);
  }
  state.counters["states"] = static_cast<double>(tr.size());
}

/// Steady state: the monitor has verdicted after every prefix state; timed
/// region is the next 64 appends (a block, so the per-append delta cost is
/// read from items_per_second without drowning in pause/resume overhead).
void bench_monitor_append_warm(benchmark::State& state) {
  const std::size_t prefix = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 64;
  sys::MutexRunConfig config;
  config.entries = prefix + kBlock;  // keep the stream active throughout
  config.max_steps = prefix + kBlock;
  const Trace tr = sys::run_mutex(config);
  const Spec spec = monitored_spec();
  const std::size_t n = std::min(prefix, tr.size() - 1);
  std::size_t failed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Monitor m(spec);
    for (std::size_t k = 0; k < n; ++k) m.append(tr.at(k));
    state.ResumeTiming();
    for (std::size_t j = 0; j < kBlock; ++j) failed += m.append(tr.at(n + j)).failed.size();
    benchmark::DoNotOptimize(failed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
}

/// Cold: same prefix observed but never verdicted; timed region is the
/// first current(), which expands the whole obligation graph at once.
void bench_monitor_append_cold(benchmark::State& state) {
  const std::size_t prefix = static_cast<std::size_t>(state.range(0));
  sys::MutexRunConfig config;
  config.entries = prefix;
  config.max_steps = prefix + 50;
  const Trace tr = sys::run_mutex(config);
  const Spec spec = monitored_spec();
  const std::size_t n = std::min(prefix, tr.size() - 1);
  for (auto _ : state) {
    state.PauseTiming();
    Monitor m(spec);
    for (std::size_t k = 0; k <= n; ++k) m.observe(tr.at(k));
    state.ResumeTiming();
    auto r = m.current();
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace

BENCHMARK(bench_monitor_append_full_run)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(bench_monitor_recheck_full_run)->Arg(4)->Arg(8)->Arg(16);
// The mutex simulation's first critical-section entry lands around state
// ~170 and entries recur every ~80 states, so the spec's live suffix (the
// open obligations an append must recheck) is a window of roughly that
// size: the warm per-append cost grows until the first entry and then
// flattens, while the cold first-verdict cost keeps growing with the
// prefix it must expand.
BENCHMARK(bench_monitor_append_warm)->Arg(64)->Arg(256)->Arg(1024);
BENCHMARK(bench_monitor_append_cold)->Arg(64)->Arg(256)->Arg(1024);

BENCHMARK_MAIN();
