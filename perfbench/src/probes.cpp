#include "probes.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/parser.h"
#include "decide.h"
#include "lll/decide.h"
#include "lll/encode.h"
#include "ltl/formula.h"
#include "ltl/tableau.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Replayed sessions per sampled monitor; the block size is the service's
/// default epoch batch.
constexpr std::size_t kReplaySessions = 2;
constexpr std::size_t kReplayBlock = 32;
/// Corpus formulas the decision probe decides one at a time: enough that
/// the p99 rule has ten samples beyond it.
constexpr std::size_t kProbeFormulas = 1200;
/// Batches the one-thread BatchDecider decides: one epoch.
constexpr std::size_t kDeciderProbeBatches = kEpochBatches;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void probe_monitors(const FleetInputs& saturate, std::uint64_t seed, SpanRecorder& spans,
                    Report& report) {
  const std::uint32_t name = spans.name_id("core.monitor.append_block");
  struct Acc {
    double ns = 0;
    std::size_t states = 0;
    double footprint = 0;
    std::size_t sessions = 0;
  };
  std::vector<Acc> acc(kFamilies);
  Rng rng = Rng(seed).fork(4);
  for (std::size_t s = 0; s < saturate.streams.size(); ++s) {
    const StreamPlan& plan = saturate.streams[s];
    std::set<Family> seen;
    for (const std::size_t source : session_monitors(plan, rng.below(plan.sessions.size()))) {
      const MonitorSource& m = plan.monitors[source];
      if (m.family != Family::Generated && !seen.insert(m.family).second) continue;
      const il::Spec spec = build_spec(m, plan);
      Acc& a = acc[static_cast<std::size_t>(m.family)];
      for (std::size_t r = 0; r < kReplaySessions; ++r) {
        const std::vector<il::State>& states =
            plan.sessions[rng.below(plan.sessions.size())].states;
        std::vector<const il::State*> ptrs;
        for (const il::State& st : states) ptrs.push_back(&st);
        std::vector<il::CheckResult> out(ptrs.size());
        il::Monitor monitor(spec);
        for (std::size_t i = 0; i < ptrs.size(); i += kReplayBlock) {
          const std::size_t n = std::min(kReplayBlock, ptrs.size() - i);
          const std::int64_t t = now_ns();
          {
            SpanRecorder::Scope span(spans, name, (static_cast<std::uint64_t>(s) << 40) | i);
            monitor.append_block(ptrs.data() + i, n, out.data() + i);
          }
          a.ns += static_cast<double>(now_ns() - t);
        }
        a.states += ptrs.size();
        a.footprint += static_cast<double>(monitor.footprint_bytes());
        ++a.sessions;
      }
    }
  }
  for (std::size_t f = 0; f < kFamilies; ++f) {
    const std::string family = family_name(static_cast<Family>(f));
    report.add("monitor.append_us." + family, ratio(acc[f].ns / 1e3, acc[f].states), "us",
               acc[f].states, "per state, append_block of " + std::to_string(kReplayBlock));
    report.add("monitor.footprint_bytes." + family, ratio(acc[f].footprint, acc[f].sessions),
               "bytes", acc[f].sessions, "footprint_bytes() at session end");
  }
}

void probe_parser(const FleetInputs& saturate, SpanRecorder& spans, Report& report) {
  const std::uint32_t name = spans.name_id("core.parser.parse_formula");
  std::vector<double> us;
  for (int pass = 0; pass < 3; ++pass) {
    for (const StreamPlan& plan : saturate.streams) {
      for (const MonitorSource& m : plan.monitors) {
        for (const std::string& text : m.axioms) {
          const std::int64_t t = now_ns();
          {
            SpanRecorder::Scope span(spans, name, us.size());
            il::parse_formula(text);
          }
          us.push_back(static_cast<double>(now_ns() - t) / 1e3);
        }
      }
    }
  }
  report.add("parser.parse_us.p50", median(us), "us", us.size(), "generated axiom texts");
}

void probe_decisions(std::uint64_t seed, SpanRecorder& spans, Report& report) {
  const std::uint32_t parse_name = spans.name_id("ltl.parse");
  const std::uint32_t nnf_name = spans.name_id("ltl.nnf");
  const std::uint32_t tableau_name = spans.name_id("ltl.tableau");
  const std::uint32_t encode_name = spans.name_id("lll.encode");
  const std::uint32_t decide_name = spans.name_id("lll.decide");
  const LtlCorpus corpus(seed);
  const std::vector<std::string> texts(corpus.universe().begin(),
                                       corpus.universe().begin() + kProbeFormulas);
  std::vector<double> parse_us, nnf_us, tableau_us, encode_us, decide_us;
  double nodes = 0, edges = 0, prefix_hits = 0, prefix_all = 0;
  il::ltl::Arena arena;
  const auto timed = [&](std::uint32_t name, std::size_t request, std::vector<double>& into,
                         auto&& call) {
    const std::int64_t t = now_ns();
    {
      SpanRecorder::Scope span(spans, name, request);
      call();
    }
    into.push_back(static_cast<double>(now_ns() - t) / 1e3);
  };
  for (std::size_t i = 0; i < texts.size(); ++i) {
    il::ltl::Id id = -1;
    il::lll::ExprId expr = il::lll::kNoExpr;
    timed(parse_name, i, parse_us, [&] { id = arena.parse(texts[i]); });
    timed(nnf_name, i, nnf_us, [&] { id = arena.nnf(id); });
    timed(tableau_name, i, tableau_us, [&] {
      il::ltl::Tableau tableau(arena, id);
      tableau.iterate();
      nodes += static_cast<double>(tableau.node_count());
    });
    timed(encode_name, i, encode_us, [&] { expr = il::lll::encode_ltl(arena, id); });
    timed(decide_name, i, decide_us, [&] {
      const il::lll::DecisionStats st = il::lll::decide(expr);
      edges += static_cast<double>(st.edges);
      prefix_hits += static_cast<double>(st.prefix_hits);
      prefix_all += static_cast<double>(st.prefix_hits + st.prefix_misses);
    });
  }
  const double n = static_cast<double>(texts.size());
  report.add("ltl.parse_us", median(parse_us), "us", parse_us.size(), "p50 per formula");
  report.add("ltl.nnf_us", median(nnf_us), "us", nnf_us.size(), "p50 per formula");
  report.add("ltl.tableau_us.p50", median(tableau_us), "us", tableau_us.size(), "build + iterate");
  report.add_tail("ltl.tableau_us.p99", tail(tableau_us, 99), "us", "build + iterate");
  report.add("ltl.tableau_nodes", nodes / n, "nodes", texts.size(), "mean per formula");
  report.add("lll.encode_us", median(encode_us), "us", encode_us.size(), "p50 per formula");
  report.add("lll.decide_us.p50", median(decide_us), "us", decide_us.size(), "build + iterate");
  report.add_tail("lll.decide_us.p99", tail(decide_us, 99), "us", "build + iterate");
  report.add("lll.graph_edges", edges / n, "edges", texts.size(), "mean per formula");
  report.add("lll.prefix_hit_rate", ratio(prefix_hits, prefix_all), "ratio",
             static_cast<std::size_t>(prefix_all), "prefix-product reuse");

  Decider one_thread(1);
  const DecideRun run = one_thread.run(60, seed, spans, kDeciderProbeBatches);
  report.add("decision.cache_hit_rate",
             ratio(static_cast<double>(run.cache_hits),
                   static_cast<double>(run.cache_hits + run.cache_misses)),
             "ratio", run.cache_hits + run.cache_misses, "DecisionCache lookups");
  report.add("decision.unique_frac",
             ratio(static_cast<double>(run.unique_jobs), static_cast<double>(run.jobs)), "ratio",
             run.jobs, "jobs actually decided");
}

}  // namespace

void probe_layers(const FleetInputs& saturate, std::uint64_t seed, SpanRecorder& spans,
                  Report& report) {
  probe_monitors(saturate, seed, spans, report);
  probe_parser(saturate, spans, report);
  probe_decisions(seed, spans, report);
}

void report_service(const FleetRun& run, const SpanRecorder& spans, Report& report) {
  const il::engine::ServiceStats& st = run.stats;
  const il::engine::StreamStats& t = st.totals;
  const std::vector<double> append = spans.durations_us("engine.service.append");
  report.add("service.append_us.p50", median(append), "us", append.size());
  report.add_tail("service.append_us.p99", tail(append, 99), "us");
  report.add("service.queue_full", static_cast<double>(run.refused), "count", run.states,
             "try_append refusals");
  report.add_tail("service.drain_us.p99", tail(spans.durations_us("engine.service.drain"), 99),
                  "us", "drains that returned rows");
  report.add("service.rows_per_drain",
             ratio(static_cast<double>(run.rows_drained), static_cast<double>(run.drains_with_rows)),
             "rows", run.drains_with_rows, "per drain that returned rows");
  report.add_tail("service.register_us.p99",
                  tail(spans.durations_us("engine.service.register"), 99), "us");
  report.add_tail("service.retire_us.p99", tail(spans.durations_us("engine.service.retire"), 99),
                  "us");
  report.add("service.rows_pending_peak", static_cast<double>(run.rows_per_drain_peak), "rows",
             run.drains_with_rows, "largest drain: every pending row is returned");
  report.add("service.states_per_batch",
             ratio(static_cast<double>(st.states_applied), static_cast<double>(st.epoch_batches)),
             "states", st.epoch_batches, "stats(): states_applied / epoch_batches");
  report.add("service.queue_peak", static_cast<double>(st.queue_peak), "commands", 1, "stats()");

  const double appends = static_cast<double>(t.verdicts);
  const double monitors = static_cast<double>(t.monitors);
  const double lookups = static_cast<double>(t.memo_hits + t.memo_misses);
  report.add("obligation.dirtied_per_append", ratio(static_cast<double>(t.obligation_dirtied), appends),
             "count", t.verdicts, "per monitor-append");
  report.add("obligation.recomputed_per_append",
             ratio(static_cast<double>(t.obligation_recomputed), appends), "count", t.verdicts,
             "per monitor-append");
  report.add("obligation.index_visited_per_stab",
             ratio(static_cast<double>(t.obligation_index_visited),
                   static_cast<double>(t.obligation_index_stabs)),
             "nodes", t.obligation_index_stabs);
  report.add("obligation.entries_per_monitor", ratio(static_cast<double>(t.obligation_entries), monitors),
             "count", t.monitors, "resident monitors at the end");
  report.add("obligation.edges_per_monitor", ratio(static_cast<double>(t.obligation_edges), monitors),
             "count", t.monitors, "resident monitors at the end");
  report.add("obligation.bytes_per_monitor", ratio(static_cast<double>(t.obligation_bytes), monitors),
             "bytes", t.monitors, "resident monitors at the end");
  report.add("memo.hit_rate", ratio(static_cast<double>(t.memo_hits), lookups), "ratio",
             static_cast<std::size_t>(lookups));
  report.add("memo.bytes_per_monitor", ratio(static_cast<double>(t.memo_bytes), monitors), "bytes",
             t.monitors, "resident monitors at the end");
  report.add("gc.sweeps", static_cast<double>(t.gc_sweeps), "count", 1);
  report.add("gc.freed_per_sweep",
             ratio(static_cast<double>(t.gc_freed), static_cast<double>(t.gc_sweeps)), "records",
             t.gc_sweeps);
}

}  // namespace perfbench
