// E15 — what fault isolation costs: quarantined slots on the ingest path.
//
//   bench_service_fault_ingest/V  a 32-state burst through a resident fleet
//                                 of 1000 monitors of which V were
//                                 organically quarantined before timing
//                                 (V = 0 / 10 / 100, i.e. 0% / 1% / 10%).
//                                 The V=0 case is shaped exactly like
//                                 bench_service_batch_ingest/1000/32: CI
//                                 gates it within 5% of that run, which is
//                                 the fault-isolation overhead bound for a
//                                 healthy fleet with injection compiled out.
//                                 V>0 prices the quarantined slots: each one
//                                 renders Verdict::Faulted rows per epoch
//                                 instead of evaluating, so throughput
//                                 should *rise* with V.
//
// Quarantine here is organic (no IL_FAULT_INJECTION needed): the victims
// monitor `[] (boom = 1 -> $unbound > 0)`, which short-circuits on every
// mutex state (absent keys read 0) and throws from the unbound meta exactly
// when the setup feeds one boom=1 state.
//
// Timed by the wall clock (UseRealTime) over a pinned iteration count
// (kIngestIterations), like bench_service_batch_ingest: the CI gate divides
// one by the other, so both must read the same clock over the same number
// of bursts.  Every iteration appends to the same resident monitors, so
// per-iteration cost depends on how many came before; a pinned count keeps
// the two runs comparable, and several iterations average out one slow
// epoch.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "core/parser.h"
#include "engine/service.h"
#include "systems/mutex.h"

namespace {

using namespace il;

constexpr std::size_t kBlock = 32;  ///< timed states per iteration
constexpr std::size_t kFleet = 1000;
constexpr int kIngestIterations = 8;  ///< same as bench_service_batch_ingest

/// Same monitored spec as bench_service_batch_ingest, so the V=0 run is
/// comparable to bench_service_batch_ingest/1000/32 in the same JSON drop.
Spec monitored_spec() {
  Spec spec;
  spec.name = "monitored";
  spec.axioms.push_back({"safety", parse_formula("[] (cs1 -> x1)")});
  spec.axioms.push_back({"scan", parse_formula("[] [ x1 <= cs1 ] <> !x2")});
  return spec;
}

/// Throws std::invalid_argument (unbound meta) on the first boom=1 state.
Spec boom_spec() {
  Spec spec;
  spec.name = "boom";
  spec.axioms.push_back({"no_boom", parse_formula("[] (boom = 1 -> $unbound > 0)")});
  return spec;
}

Trace mutex_run(std::size_t entries) {
  sys::MutexRunConfig config;
  config.entries = entries;
  return sys::run_mutex(config);
}

/// 32-state bursts through a 1000-monitor fleet with `victims` quarantined.
/// Setup (untimed): register victims on the boom spec, feed one boom state
/// so they quarantine organically, drain.  Timed region: identical to
/// bench_service_batch_ingest — pause, enqueue kBlock states, resume, flush,
/// drain.
void bench_service_fault_ingest(benchmark::State& state) {
  const std::size_t victims = static_cast<std::size_t>(state.range(0));
  const Spec spec = monitored_spec();
  const Spec boom = boom_spec();
  const Trace tr = mutex_run(8);
  engine::Options options;
  options.num_threads = 4;
  options.max_epoch_batch = 32;
  options.queue_capacity = 2 * kBlock;
  engine::MonitorService service(options);
  for (std::size_t i = 0; i < kFleet; ++i)
    service.register_spec(i < victims ? boom : spec);
  State boomed = tr.at(0);
  boomed.set("boom", 1);
  service.append(boomed);
  service.flush();
  service.drain();
  std::size_t k = 0;
  std::size_t rows = 0;
  for (auto _ : state) {
    service.pause();
    for (std::size_t j = 0; j < kBlock; ++j) {
      service.append(tr.at(k));
      k = (k + 1) % tr.size();
    }
    service.resume();
    service.flush();
    rows += service.drain().size();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kBlock));
  state.counters["monitors"] = static_cast<double>(kFleet);
  state.counters["quarantined"] = static_cast<double>(service.stats().monitors_quarantined);
}

}  // namespace

BENCHMARK(bench_service_fault_ingest)
    ->Arg(0)
    ->Arg(10)
    ->Arg(100)
    ->Iterations(kIngestIterations)
    ->UseRealTime();

BENCHMARK_MAIN();
