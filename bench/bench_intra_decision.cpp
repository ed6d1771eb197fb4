// E10 — intra-decision parallelism: one hard decision using several workers.
//
// The engine's other benches scale *across* jobs; here the batch has exactly
// one job and the arg is Options::intra_decision_threads — the width lent to
// the decision's internal frontiers (tableau expansion waves, per-eventuality
// sweeps, LLL subset-construction waves).  Width 1 is the serial baseline;
// results are bit-identical at every width, so the only thing that may move
// is wall time.  Each case also exports its work-unit counters (waves,
// frontier sets, prefix-product hits) so the CI gate can check the
// prefix-product memo actually fired on the deep shapes.
//
// The cross-batch DecisionCache is cleared before every timed iteration:
// otherwise every iteration after the first would be a pure cache probe.
#include <benchmark/benchmark.h>

#include <string>

#include "engine/decision.h"
#include "lll/ast.h"
#include "ltl/formula.h"

namespace {

using namespace il::lll;

/// Depth-n iter* nesting in the first argument (bench_lll_blowup's
/// bench_deep_first_arg): the prefix-product stress shape.
ExprId deep_first_arg(int n) {
  ExprId a = concat(lit("p"), tstar());
  for (int i = 0; i < n; ++i) {
    a = iter_paren(a, concat(lit("q" + std::to_string(i)), tstar()));
  }
  return a;
}

/// The Section 4.5 nesting family (bench_nested_iterators).
ExprId nested(int n) {
  ExprId acc = kNoExpr;
  for (int i = 0; i < n; ++i) {
    const std::string p = "p" + std::to_string(i);
    const std::string q = "q" + std::to_string(i);
    ExprId it = iter_paren(semi(lit(p), lit(p)), lit(q));
    acc = acc == kNoExpr ? it : same_len(acc, it);
  }
  return infloop(acc);
}

/// /\_{i<n} [](p_i -> <>q_i) (bench_response_chain): the deep tableau case.
std::string response_chain(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i) out += " /\\ ";
    out += "[](p" + std::to_string(i) + " -> <>q" + std::to_string(i) + ")";
  }
  return out;
}

void run_single_job(benchmark::State& state, const il::engine::DecisionJob& job) {
  il::engine::Options options;
  options.num_threads = 1;  // no outer fan-out: the one job gets the pool
  options.intra_decision_threads = static_cast<std::size_t>(state.range(0));
  il::engine::BatchDecider decider(options);  // pool spawned once, outside timing
  const std::vector<il::engine::DecisionJob> jobs{job};
  il::engine::DecisionResult last;
  for (auto _ : state) {
    decider.clear_cache();  // every iteration decides the job afresh
    auto results = decider.run(jobs);
    last = results[0];
    benchmark::DoNotOptimize(results);
  }
  state.counters["waves"] = static_cast<double>(last.waves);
  state.counters["frontier_sets"] = static_cast<double>(last.frontier_sets);
  state.counters["sweep_tasks"] = static_cast<double>(last.sweep_tasks);
  state.counters["prefix_hits"] = static_cast<double>(last.prefix_hits);
  state.counters["prefix_misses"] = static_cast<double>(last.prefix_misses);
}

void bench_intra_deep_first_arg(benchmark::State& state) {
  run_single_job(state, il::engine::lll_sat_job(deep_first_arg(2)));
}

void bench_intra_nested_iterators(benchmark::State& state) {
  run_single_job(state, il::engine::lll_sat_job(nested(2)));
}

void bench_intra_response_chain(benchmark::State& state) {
  il::ltl::Arena arena;
  run_single_job(state,
                 il::engine::tableau_sat_job(arena, arena.parse(response_chain(3))));
}

}  // namespace

BENCHMARK(bench_intra_deep_first_arg)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(bench_intra_nested_iterators)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(bench_intra_response_chain)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

BENCHMARK_MAIN();
